"""Scenario constructors: parameters, certificates, oracles, round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phnet import (ScenarioError, assemble_generator, build_beam, build_chain,
                   build_coupled, build_mass_damped_string, build_scenario,
                   assemble, certify_network_dissipative, check_impedance,
                   detect_serial_structure, network_from_dict,
                   network_to_dict, null_basis, spectrum, validate_subsystem,
                   SerialStructure, SCENARIOS)
from phnet.discretize import discrete_energy_rate
from phnet.model import flux_form
from phnet.scenarios import _wave_subsystem

from helpers import random_constrained_state, slowest_mode


def constraint_projector(net):
    """Orthogonal projector onto the constraint null space on (tau, x_c)."""
    z = null_basis(assemble(net).constraint_matrix())
    return z @ z.conj().T


class TestChain:
    def test_single_damped_string_abscissa(self):
        net = build_chain(m=1, kappa=[0.5])
        gen = assemble_generator(net, 64)
        assert abs(spectrum(gen).abscissa - 0.5 * np.log(1 / 3)) <= 1e-6

    def test_three_segments_certified(self):
        net = build_chain(m=3, kappa=[1.0, 0.0, 0.0])
        assert certify_network_dissipative(net).passed
        sym = 0.5 * (net.k_mat + net.k_mat.T)
        ev = np.linalg.eigvalsh(sym)
        assert np.sum(ev < -1e-12) == 1    # one damped port

    def test_kappa0_zero_rejected(self):
        with pytest.raises(ScenarioError):
            build_chain(m=3, kappa=[0.0, 0.1, 0.1])

    def test_negative_joint_damper_rejected(self):
        with pytest.raises(ScenarioError):
            build_chain(m=2, kappa=[0.5, -0.1])

    def test_literal_bc_sign_fails_certification(self):
        net = build_chain(m=1, kappa=[0.5], literal_bc_sign=True)
        assert not certify_network_dissipative(net).passed

    def test_serial_identity_ordering(self):
        net = build_chain(m=3, kappa=[0.5, 0.0, 0.0])
        result = detect_serial_structure(net)
        assert isinstance(result, SerialStructure)
        assert result.ordering == (0, 1, 2)

    def test_segment_lengths_keep_certificate_and_shift_spectrum(self):
        # two unit segments with a conservative joint behave as one string
        # of length 2: abscissa = ln((1-k)/(1+k)) / 4
        net = build_chain(m=2, kappa=[0.5, 0.0])
        gen = assemble_generator(net, 48)
        expect = 0.25 * np.log(1 / 3)
        assert abs(spectrum(gen).abscissa - expect) <= 1e-7
        # same physical system as a single segment of length 2
        net2 = build_chain(m=1, kappa=[0.5], lengths=[2.0])
        assert certify_network_dissipative(net2).passed
        gen2 = assemble_generator(net2, 64)
        assert abs(spectrum(gen2).abscissa - expect) <= 1e-7

    def test_lipschitz_coefficients_certified_and_stable(self):
        net = build_chain(m=3, kappa=[0.5, 0.0, 0.0],
                          rho=[{"kind": "polynomial", "data": [1.0, 0.2]},
                               {"kind": "polynomial", "data": [1.1, -0.15]},
                               {"kind": "polynomial", "data": [0.9, 0.1]}],
                          tension=[{"kind": "polynomial", "data": [1.0, 0.1]},
                                   {"kind": "polynomial", "data": [1.0, 0.2]},
                                   {"kind": "polynomial", "data": [1.2, -0.1]}])
        assert certify_network_dissipative(net).passed
        gen = assemble_generator(net, 48)
        assert spectrum(gen).abscissa < -1e-4

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ScenarioError):
            build_chain(m=1, kappa=[0.5],
                        rho=[{"kind": "polynomial", "data": [0.5, -1.0]}])

    def test_negative_knot_rejected(self):
        # the knot at z = 1/6 lies between points of the 513-point grid,
        # which used to accept this rho and build H entries up to 344
        with pytest.raises(ScenarioError, match="rho and T must be uniformly positive"):
            build_chain(m=1, kappa=[0.5],
                        rho=[{"kind": "samples", "data": [1, -0.001, 1, 1, 1, 1, 1]}])

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "samples"])
    def test_empty_profile_rejected(self, kind):
        with pytest.raises(ScenarioError, match="no data"):
            build_chain(m=1, kappa=[0.5], tension=[{"kind": kind, "data": []}])


class TestBeam:
    def test_k0_diag_clamped_certified(self):
        net = build_beam(left_bc=np.diag([1.0, 0.0]), right_bc="clamped")
        assert certify_network_dissipative(net).passed
        gen = assemble_generator(net, 48)
        assert spectrum(gen).abscissa < 0

    def test_k0_positive_definite_pinned_certified(self):
        k0 = np.array([[2.0, 0.5], [-0.5, 1.0]])    # Sym K0 = diag(2, 1) > 0
        net = build_beam(left_bc=k0, right_bc="pinned")
        assert certify_network_dissipative(net).passed
        gen = assemble_generator(net, 48)
        assert spectrum(gen).abscissa < 0

    @pytest.mark.parametrize("k0", [[[2.0, 0.0], [3.0, 2.0]], [[0.5, 2.0], [0.0, 3.0]]])
    def test_k0_positive_definite_subsystem_valid(self, k0):
        # each W_C row pairs with the component that defines its W_B row, so
        # the K0 terms cannot make [W_B; W_C] singular
        beam = build_beam(left_bc=np.array(k0), right_bc="clamped").subsystems[0]
        rep = validate_subsystem(beam)
        assert rep.passed
        ratio = next(c for c in rep.checks if c["name"] == "[W_B; W_C] invertible")
        assert ratio["margin"] > 1e-2
        assert check_impedance(beam).passed

    def test_k0_zero_is_conservative(self):
        net = build_beam(left_bc=np.zeros((2, 2)), right_bc="pinned")
        cert = certify_network_dissipative(net)
        assert cert.passed and abs(cert.margin) <= 1e-10
        gen = assemble_generator(net, 48)
        assert abs(spectrum(gen).abscissa) <= 1e-7

    def test_pinned_pinned_classical_modes(self):
        net = build_beam(left_bc="pinned", right_bc="pinned")
        gen = assemble_generator(net, 64)
        rep = spectrum(gen)
        assert abs(rep.abscissa) <= 1e-7
        for k in (1, 2, 3):
            assert np.min(np.abs(rep.eigenvalues - 1j * (k * np.pi) ** 2)) <= 1e-5

    def test_damped_beam_matches_transcendental_characteristic(self):
        # independent oracle: the boundary determinant of the modal ansatz
        # phi = sum c_i exp(g_i z), g_i^4 = -lambda^2
        from helpers import beam_moment_damped_characteristic, secant_root
        net = build_beam(left_bc=np.diag([1.0, 0.0]), right_bc="clamped")
        rep = spectrum(assemble_generator(net, 64))
        char = beam_moment_damped_characteristic(1.0)
        checked = 0
        for lam in rep.eigenvalues:
            if lam.imag <= 0 or checked >= 4:
                continue
            root = secant_root(char, lam, lam * (1 + 1e-6) + 1e-6)
            assert abs(char(root)) <= 1e-10
            assert abs(root - lam) <= 1e-8 * max(1.0, abs(lam))
            checked += 1
        assert checked == 4

    def test_inadmissible_k0_rejected(self):
        with pytest.raises(ScenarioError, match="K0"):
            build_beam(left_bc=np.array([[-1.0, 0.0], [0.0, 0.0]]),
                       right_bc="clamped")
        with pytest.raises(ScenarioError, match="K0"):
            build_beam(left_bc=np.array([[1.0, 0.0], [0.0, -2.0]]),
                       right_bc="clamped")

    def test_negative_knot_ei_rejected(self):
        with pytest.raises(ScenarioError, match="rho and EI must be uniformly positive"):
            build_beam(ei={"kind": "samples", "data": [1, 1, 1, 1, 1, -0.001, 1]})

    def test_every_conservative_right_end_certifies(self):
        for right in ("pinned", "free", "shear_hinge", "clamped", "bc5", "bc6"):
            net = build_beam(left_bc=np.eye(2), right_bc=right)
            assert certify_network_dissipative(net).passed, right


class TestCoupled:
    def test_damper_string_beam_certified_stable(self):
        net = build_coupled(variant="damper_string_beam", kappa=1.0)
        assert certify_network_dissipative(net).passed
        gen = assemble_generator(net, 40)
        assert spectrum(gen).abscissa < 0

    def test_damper_variant_decay_matches_abscissa(self):
        # time-domain and eigenvalue paths agree on the decay rate
        from phnet import decay_fit, simulate
        net = build_coupled(variant="damper_string_beam", kappa=1.0)
        gen = assemble_generator(net, 40)
        rep = spectrum(gen)
        x0 = slowest_mode(gen, rep)
        tr = simulate(gen, x0, dt=2e-3, t_end=5.0, record_every=5)
        _, eta = decay_fit(tr)
        assert abs(eta - 2 * rep.abscissa) <= 0.05 * abs(eta)

    def test_controller_eigenvalues_closed_form(self):
        for m, k, r in ((1.0, 1.0, 1.0), (2.0, 3.0, 0.5), (0.5, 1.0, 2.0)):
            net = build_coupled(variant="spring_mass_damper_string_beam",
                                mass=m, stiffness=k, damping=r)
            ev = np.sort_complex(np.linalg.eigvals(net.controllers[0].a_c))
            disc = np.sqrt(complex(r * r - 4 * k * m))
            expect = np.sort_complex(np.array([(-r + disc) / (2 * m),
                                               (-r - disc) / (2 * m)]))
            assert np.allclose(ev, expect, atol=1e-12)

    def test_spring_mass_certified(self):
        net = build_coupled(variant="spring_mass_damper_string_beam")
        assert certify_network_dissipative(net).passed

    def test_dissipation_identity(self):
        # Re<A x, x> = -r |x_c,2|^2 on constrained states, to rounding
        r = 1.3
        net = build_coupled(variant="spring_mass_damper_string_beam",
                            damping=r)
        gen = assemble_generator(net, 32)
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = random_constrained_state(gen, rng)
            x = gen.lift @ v
            rate = discrete_energy_rate(gen, v)
            xc2 = x[gen.controller_slice][1]
            assert abs(rate + r * abs(xc2) ** 2) <= 1e-8 * max(1.0, abs(rate))

    def test_trajectory_power_balance(self):
        # along a simulated trajectory the discrete midpoint balance gives
        # (H_{k+1} - H_k)/dt = -r |x_c,2(midpoint)|^2 exactly
        from phnet import make_initial_state, simulate
        from phnet.simulate import CayleyStepper
        r = 0.7
        net = build_coupled(variant="spring_mass_damper_string_beam", damping=r)
        gen = assemble_generator(net, 24)
        x0 = make_initial_state(net, gen, "bump")
        v, _ = gen.project(x0)
        dt = 1e-2
        stepper = CayleyStepper(gen, dt)
        for _ in range(50):
            v1 = stepper.step(v)
            mid = gen.lift @ (0.5 * (v + v1))
            xc2 = mid[gen.controller_slice][1]
            lhs = (stepper.energy(v1) - stepper.energy(v)) / dt
            assert abs(lhs + r * abs(xc2) ** 2) <= 1e-10
            v = v1

    def test_r_zero_rejected(self):
        with pytest.raises(ScenarioError):
            build_coupled(variant="spring_mass_damper_string_beam", damping=0.0)

    def test_kappa_zero_rejected_for_damper_variant(self):
        with pytest.raises(ScenarioError):
            build_coupled(variant="damper_string_beam", kappa=0.0)


class TestMassDampedString:
    def test_certified(self):
        assert certify_network_dissipative(build_mass_damped_string()).passed

    def test_parameters_positive(self):
        with pytest.raises(ScenarioError):
            build_mass_damped_string(damping=-1.0)


CONSERVATIVE_ENDS = ("pinned", "free", "shear_hinge", "clamped", "bc5", "bc6")


def assert_invertible_splitting(s):
    assert np.linalg.matrix_rank(np.vstack([s.w_b, s.w_c])) == 2 * s.order * s.dim


def assert_flux_splitting(s):
    """Sym(W_C* W_B) equals Q/2 entry for entry (the entries are +-1/2 and
    0, so equality is exact) and [W_B; W_C] is invertible."""
    cross = s.w_c.conj().T @ s.w_b
    assert np.array_equal(0.5 * (cross + cross.conj().T), 0.5 * flux_form(s))
    assert_invertible_splitting(s)


class TestPortSplitting:
    """W_C rows are the flux-conjugate partners of the W_B rows."""

    @pytest.mark.parametrize("kind", ["interior", "last", "mass_interior", "mass_free"])
    def test_wave_splitting_is_the_flux_form(self, kind):
        assert_flux_splitting(_wave_subsystem(1.0, 1.0, kind=kind))

    @pytest.mark.parametrize("left", CONSERVATIVE_ENDS + ("K0 = 0",))
    @pytest.mark.parametrize("right", CONSERVATIVE_ENDS)
    def test_conservative_beam_splitting_is_the_flux_form(self, left, right):
        left_bc = np.zeros((2, 2)) if left == "K0 = 0" else left
        assert_flux_splitting(build_beam(left_bc=left_bc, right_bc=right).subsystems[0])

    @pytest.mark.parametrize("k0", [[[0.7, 0.0], [0.0, 0.0]], [[2.0, 0.4], [-0.3, 1.5]]],
                             ids=["diag", "sym_pd"])
    @pytest.mark.parametrize("right", CONSERVATIVE_ENDS)
    def test_dissipative_beam_end_is_invertible_and_certifies(self, k0, right):
        net = build_beam(left_bc=np.array(k0), right_bc=right)
        assert_invertible_splitting(net.subsystems[0])
        assert certify_network_dissipative(net).passed


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_reference_roundtrip(self, name):
        net = build_scenario(name, {})
        doc = network_to_dict(net, scenario=(name, {}))
        back = network_from_dict(doc)
        assert np.abs(constraint_projector(back)
                      - constraint_projector(net)).max() <= 1e-12

    def test_varying_p0_and_complex_roundtrip(self):
        from phnet import MatrixFunction, Network, PHSubsystem
        zs = np.linspace(0, 1, 5)
        p0 = MatrixFunction.samples(
            np.array([[[-1.0 - z, 0.5j], [-0.5j, -2.0]] for z in zs]))
        s = PHSubsystem(order=1, dim=2,
                        p_matrices=(p0, np.array([[0.0, 1.0], [1.0, 0.0]])),
                        hamiltonian=MatrixFunction.constant(np.diag([1.0, 2.0])),
                        w_b=np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]]),
                        w_c=np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]]))
        net = Network(subsystems=(s,), k_mat=np.diag([-1.0, 0.0]))
        back = network_from_dict(network_to_dict(net))
        b = back.subsystems[0]
        assert b.p0.kind == "samples"
        assert np.allclose(b.p0.data, p0.data)
        assert np.abs(constraint_projector(back)
                      - constraint_projector(net)).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_explicit_roundtrip(self, name):
        net = build_scenario(name, {})
        doc = network_to_dict(net)
        back = network_from_dict(doc)
        assert np.abs(constraint_projector(back)
                      - constraint_projector(net)).max() <= 1e-12
        # energy forms survive as well
        f1 = assemble(net).energy_form()
        f2 = assemble(back).energy_form()
        assert np.abs(f1 - f2).max() <= 1e-12


# the conservative beam-end catalogue plus one name that is not in it
BEAM_ENDS = ("pinned", "free", "shear_hinge", "clamped", "bc5", "bc6", "hinged")
FINITE = st.floats(-1.0, 2.0)
COEFFICIENT = FINITE | st.sampled_from([float("nan"), float("inf"), float("-inf")])


def profiles(number):
    """A number or a profile dict, its data possibly empty or non-positive at a knot."""
    return number | st.fixed_dictionaries({
        "kind": st.sampled_from(["constant", "polynomial", "samples"]),
        "data": st.lists(number, max_size=8)})


@st.composite
def scenario_params(draw):
    """A scenario name and a parameter set, valid or not."""
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    params = {}

    def maybe(key, strategy):
        if draw(st.booleans()):
            params[key] = draw(strategy)

    # one parameter set in four may hold NaN or an infinity
    number = COEFFICIENT if draw(st.integers(0, 3)) == 0 else FINITE
    profile = profiles(number)
    if name == "chain_of_strings":
        m = draw(st.integers(1, 5))
        params["m"] = m
        for key, leaf in (("kappa", number), ("lengths", number),
                          ("rho", profile), ("tension", profile)):
            maybe(key, st.one_of(st.lists(leaf, min_size=m, max_size=m),
                                 st.lists(leaf, max_size=m + 1)))
        maybe("literal_bc_sign", st.booleans())
    elif name == "euler_bernoulli_beam":
        for key in ("rho", "ei"):
            maybe(key, profile)
        maybe("left_bc", st.one_of(st.sampled_from(BEAM_ENDS),
                                   st.lists(st.lists(number, min_size=2, max_size=2),
                                            min_size=2, max_size=2)))
        maybe("right_bc", st.sampled_from(BEAM_ENDS))
    else:
        keys = ["rho", "tension", "mass", "stiffness", "damping"]
        if name != "mass_damped_string":
            keys += ["kappa", "rho_beam", "ei_beam"]
        for key in keys:
            maybe(key, profile if key in ("rho", "tension", "rho_beam", "ei_beam")
                  else number)
    if draw(st.integers(0, 9)) == 5:      # now and then an unknown key
        params["bogus"] = 1
    return name, params


class TestParameterProperty:
    @pytest.mark.parametrize("name, params", [
        ("chain_of_strings", {"m": 1, "rho": [5e-324]}),
        ("chain_of_strings", {"m": 1, "rho": [1e-200], "lengths": [1e-200]}),
        ("euler_bernoulli_beam", {"rho": 5e-324}),
        ("mass_damped_string", {"mass": 5e-324}),
    ])
    def test_overflowing_coefficient_is_a_scenario_error(self, name, params):
        with pytest.raises(ScenarioError, match="not finite"):
            build_scenario(name, params)

    @pytest.mark.parametrize("name, params", [
        ("chain_of_strings", {"m": True}),
        ("chain_of_strings", {"m": 2, "rho": [True, 1]}),
        ("chain_of_strings", {"m": 1, "kappa": [True]}),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "samples", "data": [1, True]}]}),
        ("chain_of_strings", {"m": 1, "literal_bc_sign": "no"}),
        ("chain_of_strings", {"m": 1, "literal_bc_sign": [False]}),
        ("chain_of_strings", {"m": 1, "literal_bc_sign": 1}),
        ("euler_bernoulli_beam", {"left_bc": [[True, 0], [0, 0]]}),
        ("mass_damped_string", {"mass": True})])
    def test_wrongly_typed_parameter_is_a_scenario_error(self, name, params):
        with pytest.raises(ScenarioError, match="boolean"):
            build_scenario(name, params)

    @pytest.mark.parametrize("name, params, key", [
        ("chain_of_strings", {"m": 2, "kappa": [0.5, float("nan")]}, "kappa"),
        ("chain_of_strings", {"m": 2, "lengths": [1, float("inf")]}, "lengths"),
        ("chain_of_strings", {"m": 1, "rho": [{"kind": "samples", "data": [1, -np.inf]}]},
         "rho"),
        ("damper_string_beam", {"kappa": float("inf")}, "kappa"),
        ("euler_bernoulli_beam", {"left_bc": [[np.nan, 0], [0, 0]]}, "left_bc")])
    def test_non_finite_parameter_is_a_scenario_error(self, name, params, key):
        with pytest.raises(ScenarioError, match="parameter '%s' = .*must be finite" % key):
            build_scenario(name, params)

    @settings(max_examples=200)
    @given(case=scenario_params())
    def test_builds_or_raises_scenario_error_and_round_trips(self, case):
        name, params = case
        try:
            net = build_scenario(name, params)
        except ScenarioError:
            return
        projector = constraint_projector(net)
        verdict = certify_network_dissipative(net).passed
        for doc in (network_to_dict(net, scenario=(name, params)), network_to_dict(net)):
            back = network_from_dict(json.loads(json.dumps(doc)))
            assert np.abs(constraint_projector(back) - projector).max() <= 1e-12
            assert certify_network_dissipative(back).passed == verdict
