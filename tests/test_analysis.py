"""Spectrum reports, resolvent scans, ASP diagnostics, decay fits."""

import numpy as np
import pytest

from phnet import (Network, SpectrumReport, asp_diagnostic,
                   assemble_generator, build_beam, build_chain,
                   build_mass_damped_string, decay_fit, exponential_verdict,
                   make_initial_state, resolvent_scan, simulate, spectrum)
from phnet.scenarios import _wave_subsystem

TARGET = 0.5 * np.log(1.0 / 3.0)


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

    def test_conjugate_symmetry(self, damped_gen):
        rep = spectrum(damped_gen[1])
        for lam in rep.eigenvalues:
            assert np.min(np.abs(rep.eigenvalues - lam.conjugate())) <= 1e-9


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
        # distinct wave speeds keep the two spectra non-degenerate, so the
        # eigenvectors stay pure per subsystem
        s1 = _wave_subsystem(1.0, 1.0, kind="last")
        s2 = _wave_subsystem(1.0, 2.0, kind="last")
        net = Network(subsystems=(s1, s2), k_mat=np.zeros((4, 4)))
        gen = assemble_generator(net, 32)
        out = asp_diagnostic(gen, [(0, 2), (0, 3)])   # touches subsystem 1 only
        residuals = [r for _, r in out]
        assert min(residuals) <= 1e-8     # subsystem 2's modes are invisible
        assert max(residuals) > 1e-3


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
        x0 = np.real(gen.lift @ rep.eigenvectors[:, 0])
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
