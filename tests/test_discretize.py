"""Grid invariants, collocated operators, and reduced-generator oracles."""

import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phnet import (MatrixFunction, Network, PHStructuralError, PHSubsystem,
                   assemble_generator, build_beam, build_chain, build_coupled,
                   discretize_subsystem, make_grid, make_initial_state, resolvent_scan,
                   simulate, spectrum)
from phnet.discretize import (DiscreteGenerator, SubsystemOperators, boundary_flux,
                              discrete_energy_rate)
from phnet.scenarios import SCENARIOS, _wave_subsystem, build_scenario

from helpers import (chain_transfer_characteristic, complex_explicit_network, dense_lift,
                     dense_reduction, full_space_pencil, kron_collocation,
                     random_constrained_state, random_passive_network, random_passive_subsystem,
                     secant_root)

P1_WAVE = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestGrid:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_diff_exact_on_monomials(self, n):
        grid = make_grid(n)
        for p in range(6):
            want = p * grid.points ** (p - 1) if p > 0 else np.zeros(n)
            assert np.abs(grid.diff @ grid.points ** p - want).max() <= 1e-10

    def test_weights_sum_to_one(self):
        for n in (8, 24, 48):
            assert abs(make_grid(n).quad.sum() - 1.0) <= 1e-14

    def test_quadrature_exactness_high_degree(self):
        # Gauss-Lobatto with n points integrates degree 2n-3 exactly
        n = 10
        grid = make_grid(n)
        for deg in (2 * n - 3, 2 * n - 4):
            exact = 1.0 / (deg + 1)
            assert abs(grid.quad @ grid.points ** deg - exact) <= 1e-14

    def test_grid_is_memoised_and_read_only(self):
        # every subsystem of a reduction and its companion shares one grid per n
        grid = make_grid(12)
        assert make_grid(12) is grid
        for arr in (grid.points, grid.diff, grid.quad):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_summation_by_parts_identity(self):
        for n in (8, 32, 64):
            grid = make_grid(n)
            w, d = np.diag(grid.quad), grid.diff
            boundary = np.zeros((n, n))
            boundary[0, 0], boundary[-1, -1] = -1.0, 1.0
            assert np.abs(w @ d + d.T @ w - boundary).max() <= 1e-11


class TestDiscretizeSubsystem:
    def test_scalar_transport_is_diffmat(self):
        s = PHSubsystem(order=1, dim=1, p_matrices=(None, np.eye(1)),
                        hamiltonian=MatrixFunction.constant(np.eye(1)),
                        w_b=np.array([[1.0, 0.0]]), w_c=np.array([[0.0, 1.0]]))
        ops = discretize_subsystem(s, 16)
        assert np.allclose(ops.l, make_grid(16).diff)

    def test_indefinite_hamiltonian_named(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        bad = PHSubsystem(order=1, dim=2, p_matrices=(None, P1_WAVE),
                          hamiltonian=MatrixFunction.constant(np.diag([1.0, -1.0])),
                          w_b=s.w_b, w_c=s.w_c)
        with pytest.raises(PHStructuralError, match="H numerically singular at the "
                           "collocation nodes, or indefinite"):
            discretize_subsystem(bad, 16)

    def test_mass_scales_with_hamiltonian(self):
        s1 = _wave_subsystem(1.0, 1.0, kind="last")
        s2 = PHSubsystem(order=1, dim=2, p_matrices=(None, P1_WAVE),
                         hamiltonian=MatrixFunction.constant(2.0 * np.eye(2)),
                         w_b=s1.w_b, w_c=s1.w_c)
        m1 = discretize_subsystem(s1, 12).mass
        m2 = discretize_subsystem(s2, 12).mass
        assert np.allclose(m2, 2.0 * m1)

    def test_energy_of_sine_state(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        ops = discretize_subsystem(s, 32)
        x = np.zeros((32, 2))
        x[:, 0] = np.sin(np.pi * ops.grid.points)
        energy = float(np.einsum("ia,iab,ib->", x, ops.mass, x))
        assert abs(energy - 0.5) <= 1e-8

    def test_n_too_small(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        with pytest.raises(PHStructuralError):
            discretize_subsystem(s, 6)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(1, 4), dim=st.integers(1, 3),
           complex_ok=st.booleans(), with_p0=st.booleans(), varying_h=st.booleans(),
           extra=st.integers(0, 20))
    def test_matches_kronecker_reference(self, seed, order, dim, complex_ok, with_p0,
                                         varying_h, extra):
        s = random_passive_subsystem(np.random.default_rng(seed), order=order, dim=dim,
                                     varying_h=varying_h, with_p0=with_p0,
                                     complex_ok=complex_ok)
        n = 4 * order + 4 + extra
        ops = discretize_subsystem(s, n)
        l_ref, m_ref, t_ref = kron_collocation(s, n)
        for got, want, rtol in zip((ops.l, ops.t), (l_ref, t_ref), (1e-14, 1e-15)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        # M is its node blocks: the diagonal d x d blocks of the reference, bit for bit
        nodes = np.arange(n)
        m_blocks = m_ref.reshape(n, s.dim, n, s.dim)[nodes, :, nodes, :]
        assert ops.mass.dtype == m_blocks.dtype and ops.mass.shape == (n, s.dim, s.dim)
        assert np.array_equal(ops.mass, m_blocks)


def free_free_wave_network():
    s = _wave_subsystem(1.0, 1.0, kind="last")
    return Network(subsystems=(s,), k_mat=np.zeros((2, 2)))


def damped_wave_network(kappa=0.5):
    return Network(subsystems=(_wave_subsystem(1.0, 1.0, kind="last"),),
                   k_mat=np.array([[-kappa, 0.0], [0.0, 0.0]]))


class TestAssembleGenerator:
    def test_free_free_spectrum(self):
        gen = assemble_generator(free_free_wave_network(), 48)
        rep = spectrum(gen)
        assert abs(rep.abscissa) <= 1e-8
        assert len(rep.zero_modes) >= 1
        for k in range(1, 6):
            assert np.min(np.abs(rep.eigenvalues - 1j * np.pi * k)) <= 1e-8

    def test_damped_wave_matches_characteristic_equation(self):
        gen = assemble_generator(damped_wave_network(0.5), 64)
        rep = spectrum(gen)
        target = 0.5 * np.log(1.0 / 3.0)
        assert abs(rep.abscissa - target) <= 1e-6
        for k in range(5):
            lam = target + 1j * np.pi * k
            assert np.min(np.abs(rep.eigenvalues - lam)) <= 1e-6

    def test_spectral_convergence_of_abscissa(self):
        target = 0.5 * np.log(1.0 / 3.0)
        a64 = spectrum(assemble_generator(damped_wave_network(0.5), 64)).abscissa
        a128 = spectrum(assemble_generator(damped_wave_network(0.5), 128)).abscissa
        assert abs(a64 - target) <= 1e-6
        assert abs(a128 - a64) <= 1e-8

    def test_two_segment_chain_against_transfer_matrix(self):
        from phnet import build_chain
        net = build_chain(m=2, kappa=[0.5, 0.0])
        gen = assemble_generator(net, 48)
        rep = spectrum(gen)
        assert rep.abscissa < 0
        # transfer-matrix oracle: identical unit strings, conservative joint
        char = chain_transfer_characteristic([1.0, 1.0], [1.0, 1.0],
                                             [1.0, 1.0], [0.5, 0.0])
        # closed form for matched impedances: e^{4 lam} = (1-k)/(1+k)
        base = 0.25 * np.log((1 - 0.5) / (1 + 0.5))
        for k in range(4):
            guess = base + 0.5j * np.pi * k
            root = secant_root(char, guess, guess * (1 + 1e-4) + 1e-4)
            assert abs(char(root)) <= 1e-10
            assert np.min(np.abs(rep.eigenvalues - root)) <= 1e-7

    def test_complex_field_schroedinger_type_oracle(self):
        # x_t = i (Hx)'' with a dissipative left end y'(0) = -i k y(0) and a
        # Neumann right end; eigenvalues solve gamma tanh gamma = i k with
        # lambda = i gamma^2
        k = 0.8
        w_b = np.array([[0, 0, 1j * k, 1.0], [0, 1.0, 0, 0]])
        w_c = np.array([[0, 0, 1.0, 0], [1.0, 0, 0, 0]])
        s = PHSubsystem(order=2, dim=1,
                        p_matrices=(None, np.zeros((1, 1)), np.array([[1j]])),
                        hamiltonian=MatrixFunction.constant(np.eye(1)),
                        w_b=w_b, w_c=w_c)
        net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
        from phnet import certify_network_dissipative
        assert certify_network_dissipative(net).passed
        rep = spectrum(assemble_generator(net, 64))

        def char(g):
            return g * np.tanh(g) - 1j * k

        for mode in (1, 2, 3):
            guess = 1j * mode * np.pi + k / (mode * np.pi)
            root = secant_root(char, guess, guess * 1.001)
            lam = 1j * root ** 2
            assert abs(char(root)) <= 1e-12
            assert np.min(np.abs(rep.eigenvalues - lam)) <= 1e-8

    def test_null_space_exactness(self):
        gen = assemble_generator(damped_wave_network(), 48)
        g = gen.meta["constraint"]
        assert np.abs(g @ gen.lift).max() <= 1e-10 * max(1.0, np.abs(g).max())

    def test_sym_drift_recorded_and_small(self):
        gen = assemble_generator(damped_wave_network(), 48)
        assert gen.meta["sym_drift"] <= 1e-9

    def test_rank_deficient_constraints_reported(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        dup = np.vstack([s.w_b[0], s.w_b[0]])   # two identical rows
        bad = PHSubsystem(order=1, dim=2, p_matrices=s.p_matrices,
                          hamiltonian=s.hamiltonian, w_b=dup, w_c=s.w_c)
        net = Network(subsystems=(bad,), k_mat=np.zeros((2, 2)))
        with pytest.raises(PHStructuralError, match="subsystem 0"):
            assemble_generator(net, 24)

    @pytest.mark.parametrize("net", [build_chain(m=1, tension=[5e-324]),
                                     build_beam(ei=5e-324),
                                     build_chain(m=1, tension=[1e-13])])
    def test_vanishing_hamiltonian_named(self, net):
        with pytest.raises(PHStructuralError,
                           match="subsystem 0: H numerically singular at the collocation nodes"):
            assemble_generator(net, 24)

    def test_companion_resolution_policy(self):
        # about 0.8 n, at least 4N + 6 points, refined to n + 4 when that
        # floor is n itself; built once, on first use
        for n, n_comp in ((48, 38), (8, 10), (10, 14)):
            gen = assemble_generator(damped_wave_network(), n)
            assert gen.companion is gen.companion
            assert [g.n for g in gen.companion.grids] == [n_comp]

    def test_traces_match_per_subsystem_extraction(self):
        # trace_map = T Z[:n_pde] reassociates tau_j = t_j (Z v)[slice_j],
        # so the two agree to rounding; a string, a beam and a controller
        net = build_coupled(variant="spring_mass_damper_string_beam")
        gen = assemble_generator(net, 24)
        v = np.random.default_rng(5).standard_normal(gen.n_red)
        x = gen.lift @ v
        taus = gen.traces(v)
        assert len(taus) == len(net.subsystems)
        for s, sl, tau in zip(net.subsystems, gen.sample_slices, taus):
            want = discretize_subsystem(s, 24).t @ x[sl]
            assert np.abs(tau - want).max() <= 1e-11 * np.abs(want).max()

    def test_complex_k_keeps_imaginary_part(self):
        # free end plus a complex impedance y2(0) = -k y1(0); the modes solve
        # e^{2 lam} = (1 - k)/(1 + k), so the abscissa is 1/2 log|(1+k)/(1-k)|
        k = -0.5 + 0.2j
        net = Network(subsystems=(_wave_subsystem(1.0, 1.0, kind="last"),),
                      k_mat=np.array([[k, 0.0], [0.0, 0.0]]))
        rep = spectrum(assemble_generator(net, 48))
        assert abs(rep.abscissa - 0.5 * np.log(abs((1 + k) / (1 - k)))) <= 1e-6

    def test_complex_port_row_scaling_keeps_spectrum(self):
        # multiplying a W_B row and its W_C partner by 1j leaves the
        # constraint kernel and the supply Sym(W_C* W_B) unchanged
        s = _wave_subsystem(1.0, 1.0, kind="last")
        w_b, w_c = s.w_b.astype(complex), s.w_c.astype(complex)
        w_b[0] *= 1j
        w_c[0] *= 1j
        scaled = PHSubsystem(order=1, dim=2, p_matrices=s.p_matrices,
                             hamiltonian=s.hamiltonian, w_b=w_b, w_c=w_c)
        k = np.array([[-0.5, 0.0], [0.0, 0.0]])
        want = spectrum(assemble_generator(Network(subsystems=(s,), k_mat=k), 48))
        got = spectrum(assemble_generator(Network(subsystems=(scaled,), k_mat=k), 48))
        assert len(got.eigenvalues) == len(want.eigenvalues) > 0
        for lam in got.eigenvalues:
            assert np.min(np.abs(want.eigenvalues - lam)) <= 1e-10

    def test_real_scalar_hamiltonian_stays_real(self):
        # a scalar H means H * I; a real one must not make the pencil complex
        s = _wave_subsystem(1.0, 1.0, kind="last")

        def gen_with(ham):
            sub = PHSubsystem(order=1, dim=2, p_matrices=s.p_matrices,
                              hamiltonian=ham, w_b=s.w_b, w_c=s.w_c)
            return assemble_generator(Network(subsystems=(sub,), k_mat=np.zeros((2, 2))), 16)

        scalar, matrix = gen_with(2.0), gen_with(2.0 * np.eye(2))
        assert scalar.lift.dtype == scalar.s_red.dtype == np.float64
        got, want = spectrum(scalar).eigenvalues, spectrum(matrix).eigenvalues
        assert len(got) == len(want) > 0
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 2),
           complex_ok=st.booleans(), with_controller=st.booleans(), extra=st.integers(0, 8))
    def test_matches_full_space_reference(self, seed, n_subsystems, complex_ok,
                                          with_controller, extra):
        # the per-node factors and the block-wise L lift against the
        # full-space closed loop: an energy-orthonormal constraint null space
        net = random_passive_network(np.random.default_rng(seed), n_subsystems,
                                     complex_ok, with_controller)
        n = 12 + extra
        gen = assemble_generator(net, n)
        l_full, m_full, g, t = full_space_pencil(net, n)
        lift = gen.lift
        assert lift.dtype == gen.s_red.dtype == l_full.dtype
        assert np.abs(g @ lift).max() <= 1e-10 * max(1.0, np.abs(g).max())
        rank = np.linalg.matrix_rank
        assert lift.shape[1] == rank(lift) == len(m_full) - rank(g)
        gram = lift.conj().T @ m_full @ lift
        assert np.abs(gram - np.eye(gen.n_red)).max() <= 1e-12
        # the aliases the benchmark oracles read
        assert np.array_equal(gen.m_red, np.eye(gen.n_red)) and gen.sim_operator() is gen.s_red
        s_red = lift.conj().T @ m_full @ l_full @ lift
        assert np.abs(gen.s_red - s_red).max() <= 1e-13 * np.abs(s_red).max()
        trace_map = t @ lift[:t.shape[1]]
        assert np.abs(gen.trace_map - trace_map).max() <= 1e-13 * np.abs(trace_map).max()


PARITY_CASES = ([(name, n) for name in sorted(SCENARIOS) for n in (32, 48)]
                + [("complex_explicit", 16)])


def _parity_network(name):
    return complex_explicit_network() if name == "complex_explicit" else build_scenario(name)


def _reachable_arrays(obj, path, seen):
    """(path, array) of every ndarray reachable from obj through containers,
    instance dicts and array bases."""
    if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
        yield from _reachable_arrays(obj.base, path + ".base", seen)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _reachable_arrays(value, "%s[%r]" % (path, key), seen)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _reachable_arrays(value, "%s[%d]" % (path, i), seen)
    elif hasattr(obj, "__dict__"):
        yield from _reachable_arrays(vars(obj), path, seen)


class TestFactoredReduction:
    """The generator stores W, the kernel and the column split; lift and
    m_full are dense views built on request."""

    def test_generator_stores_one_factor(self):
        # W alone stands for the energy weight: M and W^{-1} are not fields
        fields = {f.name for f in dataclasses.fields(DiscreteGenerator)}
        assert "w" in fields and not fields & {"mass", "w_inv"}

    def test_operators_hold_mass_blocks(self):
        # a subsystem's M is its (n, d, d) stack of node blocks, never a dense matrix
        fields = [f.name for f in dataclasses.fields(SubsystemOperators)]
        assert fields == ["l", "mass", "t", "grid"]
        s = random_passive_subsystem(np.random.default_rng(3), order=2, dim=3)
        ops = discretize_subsystem(s, 16)
        assert ops.mass.shape == (16, s.dim, s.dim) and ops.l.shape == (16 * s.dim,) * 2

    @pytest.mark.parametrize("name,n", PARITY_CASES)
    def test_views_match_dense_construction(self, name, n):
        net = _parity_network(name)
        gen = assemble_generator(net, n)
        _, m_full, _, _ = full_space_pencil(net, n)
        lift = dense_lift(net, n)
        assert gen.lift.dtype == lift.dtype and np.array_equal(gen.lift, lift)
        assert gen.m_full.dtype == m_full.dtype and np.array_equal(gen.m_full, m_full)
        assert gen.n_full == len(m_full)
        gram = gen.lift.conj().T @ gen.m_full @ gen.lift
        assert np.abs(gram - np.eye(gen.n_red)).max() <= 1e-12
        # read-only and built once
        assert gen.lift is gen.lift and not gen.lift.flags.writeable
        assert gen.m_full is gen.m_full and not gen.m_full.flags.writeable

    @pytest.mark.parametrize("name,n", PARITY_CASES)
    def test_project_matches_dense_formula(self, name, n):
        net = _parity_network(name)
        gen = assemble_generator(net, n)
        lift, m_full = dense_lift(net, n), full_space_pencil(net, n)[1]
        rng = np.random.default_rng(n)
        real = rng.standard_normal(gen.n_full)
        for x in (real, real + 1j * rng.standard_normal(gen.n_full)):
            v, residual = gen.project(x)
            want = lift.conj().T @ (m_full @ x)
            diff = x - lift @ want
            want_residual = np.sqrt(np.real(diff.conj() @ m_full @ diff)
                                    / np.real(x.conj() @ m_full @ x))
            assert np.abs(v - want).max() <= 1e-13 * np.abs(want).max()
            assert abs(residual - want_residual) <= 1e-13 * want_residual

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 3),
           complex_ok=st.booleans(), with_controller=st.booleans(), n=st.integers(12, 24))
    def test_project_round_trip_on_random_networks(self, seed, n_subsystems, complex_ok,
                                                   with_controller, n):
        rng = np.random.default_rng(seed)
        net = random_passive_network(rng, n_subsystems, complex_ok, with_controller)
        gen = assemble_generator(net, n)
        # a constrained state projects back onto its own coordinates
        v = rng.standard_normal(gen.n_red) + 1j * rng.standard_normal(gen.n_red)
        got, residual = gen.project(gen.lift @ v)
        assert np.abs(got - v).max() <= 1e-13 * np.abs(v).max()
        assert residual <= 1e-13
        # any state: the residual is the dense |x - lift lift* M x|_M / |x|_M
        lift, m_full = dense_lift(net, n), full_space_pencil(net, n)[1]
        x = rng.standard_normal(gen.n_full)
        diff = x - lift @ (lift.conj().T @ (m_full @ x))
        want = np.sqrt(np.real(diff.conj() @ m_full @ diff) / np.real(x @ m_full @ x))
        assert abs(gen.project(x)[1] - want) <= 1e-13 * want

    @pytest.mark.parametrize("name,n", PARITY_CASES)
    def test_reduction_by_blocks_matches_dense_arithmetic(self, name, n):
        # s_red and trace_map by blocks are the dense lift's products, bit for bit
        net = _parity_network(name)
        gen = assemble_generator(net, n)
        s_red, trace_map = dense_reduction(net, n)
        assert gen.s_red.dtype == s_red.dtype and np.array_equal(gen.s_red, s_red)
        assert gen.trace_map.dtype == trace_map.dtype and np.array_equal(gen.trace_map, trace_map)

    def test_reduction_peak_stays_below_two_s_red(self):
        # the companion's build is _reduce alone: by blocks, nothing of
        # n_full x n_red is formed, and the peak stays below twice s_red
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        tracemalloc.start()
        try:
            companion = gen.companion
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * companion.s_red.nbytes

    def test_complex_explicit_network_is_complex_with_controller_and_external_port(self):
        net = complex_explicit_network()
        assert net.controllers and net.external_ports
        assert np.iscomplexobj(assemble_generator(net, 16).s_red)

    def test_library_builds_no_dense_lift_or_mass(self):
        # after every library call a run makes, neither generator holds an
        # array with an n_full dimension: the constraint rows in meta
        # (rows x n_full) are the one exception
        net = build_scenario("chain_of_strings", {"m": 10})
        gen = assemble_generator(net, 24)
        rep = spectrum(gen)
        resolvent_scan(gen, samples=5, spectrum_report=rep)
        simulate(gen, make_initial_state(net, gen), dt=1e-2, t_end=0.05)
        for g in (gen, gen.companion):
            found = [(path, arr.shape) for path, arr in _reachable_arrays(vars(g), "", set())
                     if g.n_full in arr.shape]
            assert found == [("['meta']['constraint']", g.meta["constraint"].shape)]
            assert "lift" not in vars(g) and "m_full" not in vars(g)


class TestDiscreteEnergyBalance:
    def test_balance_exact_on_constraint_space(self):
        # Re<Lx, x>_M equals the boundary flux for constrained states: the
        # summation-by-parts identity, exact to rounding.
        rng = np.random.default_rng(3)
        net = damped_wave_network(0.7)
        gen = assemble_generator(net, 32)
        for _ in range(10):
            v = random_constrained_state(gen, rng)
            lhs = discrete_energy_rate(gen, v)
            rhs = boundary_flux(gen, v)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_continuous_balance_defect_decreases_under_refinement(self):
        # against the *continuous* P_0 integral, evaluated on a fixed smooth
        # state, the balance defect is quadrature/interpolation error and
        # must drop (to a rounding floor) as n doubles
        p0 = MatrixFunction.polynomial(np.array(
            [np.diag([-1.0, -0.7]), np.diag([-0.5, 0.1])]))
        s = PHSubsystem(order=1, dim=2, p_matrices=(p0, P1_WAVE),
                        hamiltonian=MatrixFunction.constant(np.eye(2)),
                        w_b=np.array([[0, 0, 0, -1.0], [0, 1.0, 0, 0]]),
                        w_c=np.array([[0, 0, 1.0, 0], [1.0, 0, 0, 0]]))
        gx, gw = np.polynomial.legendre.leggauss(400)
        gx, gw = 0.5 * (gx + 1), 0.5 * gw

        def smooth_state(z):
            return np.stack([np.exp(np.sin(3.0 * z)), np.cos(2.0 * z)], axis=1)

        def defect(n):
            ops = discretize_subsystem(s, n)
            grid = ops.grid
            x = smooth_state(grid.points).reshape(-1)
            xs, lx = x.reshape(-1, 2), (ops.l @ x).reshape(-1, 2)
            lhs = float(np.real(np.einsum("ia,iab,ib->", xs, ops.mass, lx)))
            # interpolate the grid polynomial to the fine Gauss rule
            vals = np.empty((len(gx), 2))
            for c in range(2):
                vals[:, c] = _interp_poly(grid.points, xs[:, c], gx)
            p0_vals = p0(gx)
            p0_int = float(gw @ np.einsum("qi,qij,qj->q", vals, p0_vals, vals))
            tau = ops.t @ x
            from phnet import flux_form
            q = flux_form(s)
            flux = 0.5 * float(np.real(tau @ q @ tau)) + p0_int
            return abs(lhs - flux) / max(1.0, abs(lhs))

        d8, d16, d32 = defect(8), defect(16), defect(32)
        floor = 1e-12
        assert d16 <= 0.5 * d8 + floor
        assert d32 <= 0.5 * d16 + floor


def _interp_poly(nodes, values, targets):
    """Barycentric interpolation of the collocation polynomial."""
    dx = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dx, 1.0)
    w = 1.0 / np.prod(dx, axis=1)
    num = np.zeros(len(targets))
    den = np.zeros(len(targets))
    exact = np.full(len(targets), np.nan)
    for i, (xi, wi) in enumerate(zip(nodes, w)):
        diff = targets - xi
        hit = np.abs(diff) < 1e-14
        exact[hit] = values[i]
        diff[hit] = 1.0
        num += wi * values[i] / diff
        den += wi / diff
    out = num / den
    out[~np.isnan(exact)] = exact[~np.isnan(exact)]
    return out


