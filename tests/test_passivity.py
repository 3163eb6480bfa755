"""Impedance/scattering certificates, static closures as one-node networks,
witnesses."""

import numpy as np
import pytest

from phnet import (MatrixFunction, PHSubsystem, assemble_generator,
                   certify_network_dissipative, check_impedance,
                   check_scattering, check_sym_p0, flux_form, Network,
                   save_network, simulate, validate_subsystem)
from phnet.cli import main
from phnet.scenarios import _wave_subsystem
from helpers import (impedance_splitting, quadrature_energy_rate,
                     quadrature_supply_rate, random_nsd_k,
                     random_passive_subsystem, random_poly_state,
                     scattering_splitting)

P1_WAVE = np.array([[0.0, 1.0], [1.0, 0.0]])
W_B_WAVE = np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]])
W_C_WAVE = np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]])


def wave(w_b=W_B_WAVE, w_c=W_C_WAVE, p0=None):
    return PHSubsystem(order=1, dim=2, p_matrices=(p0, P1_WAVE),
                       hamiltonian=MatrixFunction.constant(np.eye(2)),
                       w_b=w_b, w_c=w_c)


def closure(s, k):
    """Certificate of the static closure B x = K C x: the one-node network."""
    return certify_network_dissipative(Network((s,), k_mat=k))


class TestSymP0:
    def test_absent_p0_passes(self):
        assert check_sym_p0(wave()).passed

    def test_negative_diag_passes(self):
        assert check_sym_p0(wave(p0=np.diag([-1.0, -2.0]))).passed

    def test_indefinite_fails_with_witness_e1(self):
        cert = check_sym_p0(wave(p0=np.diag([1.0, -1.0])))
        assert not cert.passed
        assert abs(abs(cert.witness[0]) - 1.0) < 1e-12
        assert abs(cert.witness[1]) < 1e-12
        # witness reproduces a positive value of the violating form
        p0 = np.diag([1.0, -1.0])
        assert np.real(cert.witness.conj() @ p0 @ cert.witness) > 0

    def test_varying_p0(self):
        zs = np.linspace(0, 1, 9)
        vals = np.array([np.diag([-1.0 - z, -0.5]) for z in zs])
        assert check_sym_p0(wave(p0=MatrixFunction.samples(vals))).passed
        vals[4] = np.diag([0.3, -0.5])
        assert not check_sym_p0(wave(p0=MatrixFunction.samples(vals))).passed

    def test_batched_matches_pointwise_loop(self):
        # two grid points tie for the worst eigenvalue: the first one wins
        rng = np.random.default_rng(5)
        zs = np.linspace(0, 1, 9)
        vals = 0.2 * (rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2)))
        vals -= 2.0 * np.eye(2)
        vals[2] = vals[6] = np.array([[0.3, 0.1j], [-0.1j, -0.5]])
        p0 = MatrixFunction.samples(vals)
        cert = check_sym_p0(wave(p0=p0))
        grid = np.union1d(np.linspace(0, 1, 257), zs)
        worst, wvec, wz = -np.inf, None, 0.0
        for z, v in zip(grid, p0(grid)):
            ev, vec = np.linalg.eigh(0.5 * (v + v.conj().T))
            if ev[-1] > worst:
                worst, wvec, wz = ev[-1], vec[:, -1], z
        assert wz == 0.25
        assert cert.margin == -worst
        assert np.array_equal(cert.witness, wvec)
        assert cert.detail.endswith("z=%.4f" % wz)


class TestImpedance:
    def test_wave_splitting_passes(self):
        cert = check_impedance(wave())
        assert cert.passed
        assert abs(cert.margin) <= 1e-12   # conservative ports: equality

    def test_sign_flip_fails_and_oracle_agrees(self):
        rng = np.random.default_rng(5)
        flipped = wave(w_b=np.vstack([-W_B_WAVE[0], W_B_WAVE[1]]))
        cert = check_impedance(flipped)
        assert not cert.passed
        # the quadrature oracle finds a state whose energy rate exceeds supply
        violated = False
        for _ in range(100):
            coeffs = random_poly_state(rng, 2, 5)
            gap = (quadrature_energy_rate(flipped, coeffs)
                   - quadrature_supply_rate(flipped, coeffs))
            if gap > 1e-8:
                violated = True
                break
        assert violated

    def test_wb_equals_wc_both_ways(self):
        q = flux_form(wave())
        for w in (W_B_WAVE, W_C_WAVE):
            s = wave(w_b=w, w_c=w)
            m = 0.5 * (w.conj().T @ w + w.conj().T @ w) - 0.5 * q
            expected = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() >= -1e-12
            assert check_impedance(s).passed == expected

    def test_failed_sym_p0_fails_impedance_immediately(self):
        cert = check_impedance(wave(p0=np.diag([1.0, -1.0])))
        assert not cert.passed
        assert "Sym P_0" in cert.detail


class TestScattering:
    def test_wc_zero_passes_when_flux_dominated(self):
        # W_B spans the positive flux directions, so W_B* W_B >= Q/2; W_C is
        # numerically zero (tiny rows keep [W_B; W_C] invertible).
        q = flux_form(wave())
        w_b, w_neg = scattering_splitting(q)
        s = wave(w_b=w_b, w_c=1e-9 * w_neg)
        assert check_scattering(s).passed

    def test_scattering_splitting_passes_and_oracle_agrees(self):
        rng = np.random.default_rng(17)
        s0 = wave()
        q = flux_form(s0)
        w_b, w_c = scattering_splitting(q)
        s = wave(w_b=w_b, w_c=w_c)
        cert = check_scattering(s)
        assert cert.passed
        for _ in range(25):
            coeffs = random_poly_state(rng, 2, 5)
            from helpers import poly_trace
            tau = poly_trace(coeffs, 1)
            rate = quadrature_energy_rate(s, coeffs)
            bal = (np.linalg.norm(w_b @ tau) ** 2 - np.linalg.norm(w_c @ tau) ** 2)
            assert rate <= bal + 1e-8 * max(1.0, abs(rate))

    def test_zero_wb_row_fails_for_indefinite_flux(self):
        w_b = np.vstack([np.zeros(4), W_B_WAVE[1]])
        s = wave(w_b=w_b)
        assert not check_scattering(s).passed


class TestDissipativeClosure:
    def test_zero_feedback_passes(self):
        assert closure(wave(), np.zeros((2, 2))).passed

    def test_nsd_k_passes(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            k = random_nsd_k(rng, 2)
            assert closure(wave(), k).passed

    def test_positive_feedback_fails_with_energy_growth(self):
        k = np.array([[2.0, 0.0], [0.0, 0.0]])
        cert = closure(wave(), k)
        assert not cert.passed
        # witness reproduces a positive flux value
        q = flux_form(wave())
        w = cert.witness
        assert np.real(w.conj() @ (0.5 * q) @ w) > 0
        # cross-check: simulating the closed loop shows energy growth
        net = Network(subsystems=(wave(),), k_mat=k)
        gen = assemble_generator(net, 24)
        x0 = np.zeros(gen.n_full)
        z = gen.grids[0].points
        block = np.zeros((len(z), 2))
        block[:, 0] = np.sin(np.pi * z)
        block[:, 1] = 0.3 * np.cos(np.pi * z)
        x0[:] = block.reshape(-1)
        tr = simulate(gen, x0, dt=1e-2, t_end=5.0)
        assert tr.energies[-1] > 1.5 * tr.energies[0]

    def test_degenerate_kernel_flagged(self, tmp_path):
        # a zero W_B row makes W_B - K W_C lose rank (kernel dimension > Nd);
        # that needs a singular [W_B; W_C], which validation fails, so
        # `phnet check` exits 1
        s = wave(w_b=np.vstack([W_B_WAVE[0], np.zeros(4)]))
        rep = validate_subsystem(s)
        assert not next(c["passed"] for c in rep.checks
                        if c["name"] == "[W_B; W_C] invertible")
        path = tmp_path / "degenerate.json"
        save_network(Network((s,), k_mat=np.zeros((2, 2))), path)
        assert main(["check", str(path)]) == 1

    @pytest.mark.parametrize("gain", [1e8, 1e9])
    def test_large_pumping_gain_fails(self, gain, tmp_path):
        # B x = K C x with K = diag(gain, 0) pumps energy in at the string's
        # end: the certificate's tolerance does not grow with |K|
        net = Network((_wave_subsystem(1, 1, kind="last"),), k_mat=np.diag([gain, 0.0]))
        cert = certify_network_dissipative(net)
        assert not cert.passed and not cert.marginal
        path = tmp_path / "pumped.json"
        save_network(net, path)
        assert main(["check", str(path)]) == 1


class TestConsistencyProperties:
    def test_impedance_plus_nsd_k_implies_closure(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            s = random_passive_subsystem(rng, complex_ok=bool(rng.integers(2)),
                                         with_p0=bool(rng.integers(2)))
            k = random_nsd_k(rng, s.port_dim)
            if not check_impedance(s).passed:
                continue
            assert closure(s, k).passed

    def test_witness_validity(self):
        rng = np.random.default_rng(43)
        found = 0
        for _ in range(100):
            s = random_passive_subsystem(rng)
            # break passivity by flipping the sign of W_B
            bad = PHSubsystem(order=s.order, dim=s.dim, p_matrices=s.p_matrices,
                              hamiltonian=s.hamiltonian, w_b=-s.w_b, w_c=s.w_c)
            cert = check_impedance(bad)
            if cert.passed:
                continue
            found += 1
            q = flux_form(bad)
            m = 0.5 * (bad.w_c.conj().T @ bad.w_b + bad.w_b.conj().T @ bad.w_c) - 0.5 * q
            w = cert.witness
            assert np.real(w.conj() @ (-m) @ w) > 0
        assert found > 20

    def test_oracle_never_contradicts_passing_certificate(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            s = random_passive_subsystem(rng, with_p0=bool(rng.integers(2)),
                                         complex_ok=bool(rng.integers(2)))
            cert = check_impedance(s)
            assert cert.passed
            for _ in range(4):
                coeffs = random_poly_state(rng, s.dim, s.order + 4)
                gap = (quadrature_energy_rate(s, coeffs)
                       - quadrature_supply_rate(s, coeffs))
                scale = max(1.0, abs(quadrature_energy_rate(s, coeffs)))
                assert gap <= 1e-8 * scale

    def test_impedance_splitting_helper_is_tight(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            s = random_passive_subsystem(rng, complex_ok=True)
            cert = check_impedance(s)
            assert cert.passed
            assert cert.margin >= -1e-12
