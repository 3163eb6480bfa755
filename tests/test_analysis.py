"""Spectrum reports, resolvent scans, ASP diagnostics, decay fits."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import svdvals
from scipy.linalg.blas import dznrm2, zgemv
from scipy.linalg.lapack import dstev, ztrtrs

from phnet import (Network, SpectrumReport, asp_diagnostic,
                   assemble_generator, build_beam, build_chain,
                   build_mass_damped_string, build_scenario,
                   certify_network_dissipative, decay_fit,
                   exponential_verdict, make_initial_state, network_from_dict,
                   network_to_dict, resolvent_scan, simulate, spectrum)
from phnet.analysis import _inverse_lanczos
from phnet.scenarios import SCENARIOS, _wave_subsystem

from helpers import random_passive_network, set_built_scan_grid, slowest_mode

TARGET = 0.5 * np.log(1.0 / 3.0)
SVD_ORACLE_RTOL = 1e-8


def example_generator(source, complex_ok, with_controller, n=16):
    """The generator of a built-in scenario (a name) or of a random passive
    network (a seed), at n points per subsystem."""
    if isinstance(source, str):
        return assemble_generator(build_scenario(source), n)
    net = random_passive_network(np.random.default_rng(source), 2, complex_ok,
                                 with_controller)
    return assemble_generator(net, n)


EXAMPLES = dict(source=st.one_of(st.sampled_from(sorted(SCENARIOS)),
                                 st.integers(0, 2 ** 32 - 1)),
                complex_ok=st.booleans(), with_controller=st.booleans())


def svd_oracle_deviation(gen, scan):
    """Worst relative gap of the non-diverged norms from the dense SVD oracle.

    The reference is sigma_max of the inverse: 1 / sigma_min of i beta - sim
    itself carries an absolute error of eps * sigma_max, which is eps * cond
    relative at a sharp resolvent peak.
    """
    sim = gen.s_red
    eye = np.eye(gen.n_red)
    keep = ~scan.diverged
    worst = 0.0
    for beta, norm in zip(scan.betas[keep], scan.norms[keep]):
        want = svdvals(np.linalg.inv(1j * beta * eye - sim))[0]
        worst = max(worst, abs(norm - want) / want)
    return worst


@pytest.fixture(scope="module")
def damped_gen():
    net = build_chain(m=1, kappa=[0.5])
    return net, assemble_generator(net, 64)


@pytest.fixture(scope="module")
def free_free_gen():
    s = _wave_subsystem(1.0, 1.0, kind="last")
    net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
    return net, assemble_generator(net, 48)


@pytest.fixture(scope="module")
def growth_gen():
    net = build_mass_damped_string()
    return net, assemble_generator(net, 64)


class TestSpectrum:
    def test_free_free_zero_mode(self, free_free_gen):
        rep = spectrum(free_free_gen[1])
        assert abs(rep.abscissa) <= 1e-8
        assert len(rep.zero_modes) >= 1

    def test_damped_wave_abscissa(self, damped_gen):
        rep = spectrum(damped_gen[1])
        assert abs(rep.abscissa - TARGET) <= 1e-6

    def test_pinned_pinned_beam_modes(self):
        net = build_beam(left_bc="pinned", right_bc="pinned")
        rep = spectrum(assemble_generator(net, 64))
        for k in (1, 2, 3):
            for sign in (1, -1):
                lam = sign * 1j * (k * np.pi) ** 2
                assert np.min(np.abs(rep.eigenvalues - lam)) <= 1e-6

    def test_sorted_and_consistent(self, damped_gen):
        rep = spectrum(damped_gen[1])
        assert np.all(np.diff(rep.eigenvalues.real) <= 1e-12)
        assert rep.abscissa == pytest.approx(rep.eigenvalues.real.max())
        assert rep.discarded == len(rep.raw_eigenvalues) - len(rep.eigenvalues)

    @settings(max_examples=30)
    @given(count=st.integers(0, 40), **EXAMPLES)
    def test_decay_order_and_dominant_prefix(self, count, source, complex_ok,
                                             with_controller):
        # descending real part, ties by ascending |Im|; dominant(k) takes
        # the k smallest keys, which is the list's own prefix
        rep = spectrum(example_generator(source, complex_ok, with_controller))
        keys = [(-lam.real, abs(lam.imag)) for lam in rep.eigenvalues]
        assert keys == sorted(keys)
        dom = rep.dominant(count)
        assert np.array_equal(dom, rep.eigenvalues[:count])
        assert [(-lam.real, abs(lam.imag)) for lam in dom] == sorted(keys)[:count]

    def test_conjugate_symmetry(self, damped_gen):
        rep = spectrum(damped_gen[1])
        for lam in rep.eigenvalues:
            assert np.min(np.abs(rep.eigenvalues - lam.conjugate())) <= 1e-9

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 2),
           complex_ok=st.booleans(), with_controller=st.booleans())
    def test_random_passive_networks_keep_stable_trusted_spectrum(
            self, seed, n_subsystems, complex_ok, with_controller):
        # the coarsest resolution, n = 4N + 6, where the companion is n + 4
        net = random_passive_network(np.random.default_rng(seed), n_subsystems,
                                     complex_ok, with_controller)
        assert certify_network_dissipative(net).passed
        gen = assemble_generator(net, [4 * s.order + 6 for s in net.subsystems])
        rep = spectrum(gen)
        assert len(rep.eigenvalues) == 0 or rep.abscissa <= 1e-7
        assert gen.meta["sym_drift"] <= 1e-10 * np.abs(gen.s_red).max()


class TestNetworkFileRoundTrip:
    """An explicit network file reproduces the trusted spectrum bit for bit."""

    @staticmethod
    def assert_round_trip_keeps_spectrum(net):
        back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        n = [4 * s.order + 6 for s in net.subsystems]
        gen, gen_back = assemble_generator(net, n), assemble_generator(back, n)
        rep, rep_back = spectrum(gen), spectrum(gen_back)
        assert rep_back.eigenvalues.tobytes() == rep.eigenvalues.tobytes()
        assert len(rep_back.zero_modes) == len(rep.zero_modes)
        assert gen_back.meta["sym_drift"] == gen.meta["sym_drift"]

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, name):
        self.assert_round_trip_keeps_spectrum(build_scenario(name))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 2),
           complex_ok=st.booleans(), with_controller=st.booleans())
    def test_random_passive_networks(self, seed, n_subsystems, complex_ok, with_controller):
        self.assert_round_trip_keeps_spectrum(random_passive_network(
            np.random.default_rng(seed), n_subsystems, complex_ok, with_controller))


class TestResolvent:
    def test_conservative_diverged_flags(self, free_free_gen):
        net, gen = free_free_gen
        rep = spectrum(gen)
        scan = resolvent_scan(gen, beta_max=12.0, samples=120,
                              spectrum_report=rep)
        assert scan.diverged.any()
        # flags sit at eigenfrequencies
        flagged = scan.betas[scan.diverged]
        for b in flagged:
            assert np.min(np.abs(rep.eigenvalues.imag - b)) <= 1e-6

    def test_damped_wave_bounded_trend(self, damped_gen):
        net, gen = damped_gen
        rep = spectrum(gen)
        scan = resolvent_scan(gen, spectrum_report=rep)
        assert np.isfinite(scan.sup_norm)
        assert not scan.diverged.any()
        assert scan.trend <= 1.1
        assert "exponentially stable" in exponential_verdict(rep, scan)

    def test_growth_scenario_flagged(self, growth_gen):
        net, gen = growth_gen
        rep = spectrum(gen)
        assert rep.abscissa < 0     # asymptotically stable at fixed n
        scan = resolvent_scan(gen, spectrum_report=rep)
        assert scan.trend > 2.0
        assert "NOT indicated" in exponential_verdict(rep, scan)

    def test_lower_bound_identity(self, damped_gen):
        net, gen = damped_gen
        rep = spectrum(gen)
        scan = resolvent_scan(gen, beta_max=20.0, samples=60,
                              spectrum_report=rep)
        ev = rep.raw_eigenvalues
        for b, nrm, div in zip(scan.betas, scan.norms, scan.diverged):
            if div:
                continue
            dist = np.abs(1j * b - ev).min()
            assert nrm >= 1.0 / dist - 1e-8

    @settings(max_examples=30)
    @given(band=st.sampled_from([None, 0.3]), **EXAMPLES)
    def test_grid_matches_set_built_reference(self, band, source, complex_ok,
                                              with_controller):
        # the default band, or 0.3 max |Im|, which leaves eigenvalues out of band
        gen = example_generator(source, complex_ok, with_controller)
        rep = spectrum(gen)
        top = float(np.abs(rep.eigenvalues.imag).max(initial=0.0))
        scan = resolvent_scan(gen, beta_max=None if band is None else band * top,
                              samples=40, spectrum_report=rep)
        want = set_built_scan_grid(rep.eigenvalues, scan.beta_max, 40)
        assert scan.betas.dtype == want.dtype
        assert scan.betas.tobytes() == want.tobytes()

    def test_norms_match_dense_svd(self, free_free_gen):
        gens = [assemble_generator(build_scenario(name), 24) for name in sorted(SCENARIOS)]
        gens.append(free_free_gen[1])
        for gen in gens:
            scan = resolvent_scan(gen)
            assert (~scan.diverged).sum() > 100
            assert svd_oracle_deviation(gen, scan) <= SVD_ORACLE_RTOL

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 2),
           complex_ok=st.booleans(), with_controller=st.booleans())
    def test_random_passive_networks_match_dense_svd(self, seed, n_subsystems,
                                                     complex_ok, with_controller):
        net = random_passive_network(np.random.default_rng(seed), n_subsystems,
                                     complex_ok, with_controller)
        gen = assemble_generator(net, 16)
        scan = resolvent_scan(gen, samples=40)
        assert svd_oracle_deviation(gen, scan) <= SVD_ORACLE_RTOL


def inverse_lanczos(b, start):
    """_inverse_lanczos on B from a one-column basis buffer, with the scan's kernels."""
    b = np.asfortranarray(b, dtype=complex)
    basis = np.empty((b.shape[0], 1), dtype=complex, order="F")
    theta, ritz, out = _inverse_lanczos(b, np.asarray(start, dtype=complex), basis,
                                        ztrtrs, zgemv, dznrm2, dstev)
    return theta, ritz, basis, out


def inverse_sigma_min_sq(b):
    return 1.0 / np.linalg.svd(b, compute_uv=False)[-1] ** 2


class TestInverseLanczosExits:
    def test_one_by_one(self):
        b = np.array([[0.3 - 1.2j]])
        theta, ritz, _, _ = inverse_lanczos(b, [2.0 - 1.0j])
        assert theta == pytest.approx(inverse_sigma_min_sq(b), rel=1e-14)
        assert abs(ritz[0]) == pytest.approx(1.0, rel=1e-14)

    def test_invariant_start_stops_at_step_one(self):
        # e_1 is invariant under B and B^H, so beta_1 is exactly 0
        b = np.array([[0.5, 0.0, 0.0], [0.0, 2.0, 1.0j], [0.0, 0.0, 3.0]])
        theta, ritz, basis, out = inverse_lanczos(b, [3.0, 0.0, 0.0])
        assert out is basis          # one column was enough: no step 2
        assert theta == pytest.approx(inverse_sigma_min_sq(b), rel=1e-14)
        np.testing.assert_allclose(np.abs(ritz), [1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_at_step_n(self, n):
        # singular values of I + 0.2 U cluster, so no earlier step meets the residual stop
        rng = np.random.default_rng(n)
        b = np.eye(n) + 0.2 * np.triu(rng.standard_normal((n, n))
                                      + 1j * rng.standard_normal((n, n)))
        theta, ritz, _, out = inverse_lanczos(b, rng.standard_normal(n) + 0j)
        assert out.shape[1] == n     # column n - 1 was written, so step n ran
        assert theta == pytest.approx(inverse_sigma_min_sq(b), rel=1e-12)
        resid = np.linalg.solve(b @ b.conj().T, ritz) - theta * ritz
        assert np.linalg.norm(resid) <= 1e-12 * theta

    def test_zero_pivot(self):
        b = np.triu(np.ones((3, 3), dtype=complex))
        b[1, 1] = 0.0
        theta, ritz, _, _ = inverse_lanczos(b, np.ones(3))
        assert theta == np.inf and ritz is None


class TestAspDiagnostic:
    def test_damped_wave_no_imaginary_modes(self, damped_gen):
        net, gen = damped_gen
        out = asp_diagnostic(gen, [(0, 2)])   # R = y1(0) = (Hx)_1(0)
        assert out == []

    def test_free_free_zero_mode_visible(self, free_free_gen):
        net, gen = free_free_gen
        out = asp_diagnostic(gen, [(0, 2), (0, 3)])   # R = (Hx)(0)
        assert len(out) > 0
        zero = [r for lam, r in out if abs(lam) < 1e-6]
        assert zero and min(zero) > 1e-3   # constant state has nonzero trace

    def test_decoupled_subsystem_invisible(self):
        # R observes subsystem 1 only.  With distinct wave speeds the two
        # spectra stay apart; with equal ones every nonzero eigenvalue is
        # double, eig mixes the two subsystems' modes arbitrarily, and only
        # the residual of the whole eigenspace finds the invisible one
        for tension in (2.0, 1.0):
            s1 = _wave_subsystem(1.0, 1.0, kind="last")
            s2 = _wave_subsystem(1.0, tension, kind="last")
            net = Network(subsystems=(s1, s2), k_mat=np.zeros((4, 4)))
            gen = assemble_generator(net, 32)
            out = asp_diagnostic(gen, [(0, 2), (0, 3)])   # touches subsystem 1 only
            residuals = [r for _, r in out]
            assert min(residuals) <= 1e-8     # subsystem 2's modes are invisible
            assert max(residuals) > 1e-3


    def test_one_companion_eigensolve(self, monkeypatch):
        # spectrum and asp_diagnostic share the companion's eigenvalues
        selector = [(0, 2), (0, 3)]
        s = _wave_subsystem(1.0, 1.0, kind="last")
        net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
        ref = assemble_generator(net, 32)
        want_asp = asp_diagnostic(ref, selector)     # the other order
        want_rep = spectrum(ref)

        gen = assemble_generator(net, 32)
        eigvals, solved = np.linalg.eigvals, []

        def counting(a):
            solved.append(a is gen.companion.s_red)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        rep = spectrum(gen)
        out = asp_diagnostic(gen, selector)
        monkeypatch.undo()
        assert sum(solved) == 1
        assert np.array_equal(gen.companion.eigenvalues, np.linalg.eigvals(gen.companion.s_red))
        assert np.array_equal(rep.raw_eigenvalues, np.linalg.eigvals(gen.s_red))
        assert np.array_equal(rep.eigenvalues, want_rep.eigenvalues)
        assert out == want_asp and len(out) > 0


class TestDecayFit:
    def test_conservative_eta_zero(self, free_free_gen):
        net, gen = free_free_gen
        x0 = make_initial_state(net, gen, "sine")
        tr = simulate(gen, x0, dt=1e-2, t_end=10.0)
        m_const, eta = decay_fit(tr)
        assert abs(eta) <= 1e-10
        assert m_const >= 1.0

    def test_damped_wave_eta(self, damped_gen):
        net, gen = damped_gen
        x0 = make_initial_state(net, gen, "sine")
        tr = simulate(gen, x0, dt=5e-3, t_end=10.0, record_every=5)
        _, eta = decay_fit(tr)
        assert abs(eta - 2 * TARGET) <= 0.05 * abs(2 * TARGET)

    def test_eta_matches_twice_abscissa_at_t40(self, damped_gen):
        # dominant-eigenmode initial state keeps the window fit modal
        net, gen = damped_gen
        rep = spectrum(gen)
        x0 = slowest_mode(gen, rep)
        tr = simulate(gen, x0, dt=5e-3, t_end=40.0, record_every=20)
        _, eta = decay_fit(tr)
        assert abs(eta - 2 * rep.abscissa) <= 0.05 * abs(eta)

    def test_chain_eta_negative(self):
        net = build_chain(m=3, kappa=[0.5, 0.0, 0.0])
        gen = assemble_generator(net, 32)
        x0 = make_initial_state(net, gen, "sine")
        tr = simulate(gen, x0, dt=1e-2, t_end=15.0, record_every=5)
        _, eta = decay_fit(tr)
        assert eta < -1e-3

    def test_needs_enough_samples(self, free_free_gen):
        net, gen = free_free_gen
        x0 = make_initial_state(net, gen, "sine")
        tr = simulate(gen, x0, dt=0.5, t_end=2.0)
        with pytest.raises(ValueError):
            decay_fit(tr)


class TestVerdicts:
    def test_conservative_verdict(self, free_free_gen):
        rep = spectrum(free_free_gen[1])
        assert "not asymptotically stable" in exponential_verdict(rep, None)

    def test_empty_trusted_spectrum_is_inconclusive(self):
        none = np.zeros(0, dtype=complex)
        rep = SpectrumReport(eigenvalues=none, abscissa=float("nan"), zero_modes=none,
                             raw_eigenvalues=np.array([-1.0 + 2.0j]), discarded=1)
        assert exponential_verdict(rep, None) == "inconclusive (no trusted eigenvalues)"
