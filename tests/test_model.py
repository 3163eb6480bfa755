"""Subsystem validation, trace ordering, and the boundary flux form."""

import numpy as np
import pytest

from phnet import (MatrixFunction, PHStructuralError, PHSubsystem,
                   discretize_subsystem, flux_form, validate_subsystem)
from phnet.model import flux_matrix

from helpers import (poly_trace, quadrature_energy_rate, quadrature_p0_term,
                     random_passive_subsystem, random_poly_state)

P1_WAVE = np.array([[0.0, 1.0], [1.0, 0.0]])
P2_BEAM = np.array([[0.0, -1.0], [1.0, 0.0]])


def wave_subsystem(w_b=None, w_c=None):
    w_b = w_b if w_b is not None else np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]])
    w_c = w_c if w_c is not None else np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]])
    return PHSubsystem(order=1, dim=2, p_matrices=(None, P1_WAVE),
                       hamiltonian=MatrixFunction.constant(np.eye(2)),
                       w_b=w_b, w_c=w_c)


def beam_subsystem():
    w_b = np.eye(8)[:4]
    w_c = np.eye(8)[4:]
    return PHSubsystem(order=2, dim=2,
                       p_matrices=(None, np.zeros((2, 2)), P2_BEAM),
                       hamiltonian=MatrixFunction.constant(np.eye(2)),
                       w_b=w_b, w_c=w_c)


class TestValidate:
    def test_wave_passes(self):
        rep = validate_subsystem(wave_subsystem())
        assert rep.passed

    def test_skew_p1_fails_symmetry(self):
        s = PHSubsystem(order=1, dim=2,
                        p_matrices=(None, np.array([[0, 1.0], [-1.0, 0]])),
                        hamiltonian=MatrixFunction.constant(np.eye(2)),
                        w_b=np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]]),
                        w_c=np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]]))
        rep = validate_subsystem(s)
        assert not rep.passed
        failed = [c["name"] for c in rep.checks if not c["passed"]]
        assert failed == ["P_1 symmetry"]

    def test_euler_bernoulli_passes(self):
        rep = validate_subsystem(beam_subsystem())
        assert rep.passed

    def test_shape_mismatch_is_structural(self):
        s = wave_subsystem()
        with pytest.raises(PHStructuralError):
            PHSubsystem(order=1, dim=2, p_matrices=(None, np.eye(3)),
                        hamiltonian=s.hamiltonian, w_b=s.w_b, w_c=s.w_c)
        with pytest.raises(PHStructuralError):
            PHSubsystem(order=2, dim=2, p_matrices=(None, np.eye(2)),
                        hamiltonian=s.hamiltonian, w_b=s.w_b, w_c=s.w_c)

    def test_singular_pn_fails(self):
        s = PHSubsystem(order=1, dim=2,
                        p_matrices=(None, np.array([[1.0, 1.0], [1.0, 1.0]])),
                        hamiltonian=MatrixFunction.constant(np.eye(2)),
                        w_b=np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]]),
                        w_c=np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]]))
        rep = validate_subsystem(s)
        assert any(c["name"] == "P_N invertible" and not c["passed"] for c in rep.checks)

    def test_noncoercive_h_fails(self):
        s = wave_subsystem()
        bad = PHSubsystem(order=1, dim=2, p_matrices=(None, P1_WAVE),
                          hamiltonian=MatrixFunction.constant(np.diag([1.0, -0.5])),
                          w_b=s.w_b, w_c=s.w_c)
        rep = validate_subsystem(bad)
        assert any(c["name"] == "H coercive" and not c["passed"] for c in rep.checks)

    def test_margins_are_recorded(self):
        rep = validate_subsystem(wave_subsystem())
        names = [c["name"] for c in rep.checks]
        assert "H coercive" in names and "[W_B; W_C] invertible" in names
        coercive = next(c for c in rep.checks if c["name"] == "H coercive")
        assert coercive["margin"] == pytest.approx(1.0)


def trace_operator(order, dim, n):
    """Trace rows of discretize_subsystem for H = I, so tau(y) = t @ y."""
    p_n = np.eye(dim) * (1.0 if order % 2 else 1j)    # P_N^* = (-1)^(N+1) P_N
    zero = np.zeros((order * dim, 2 * order * dim))
    s = PHSubsystem(order=order, dim=dim,
                    p_matrices=(None,) + (np.zeros((dim, dim)),) * (order - 1) + (p_n,),
                    hamiltonian=np.eye(dim), w_b=zero, w_c=zero)
    return discretize_subsystem(s, n)


class TestTrace:
    def test_order1_linear(self):
        # y(z) = 2 + z has y(0) = 2, y(1) = 3; ordering is (y(1), y(0))
        ops = trace_operator(1, 1, 12)
        tau = ops.t @ (2.0 + ops.grid.points)
        assert np.allclose(tau, [3.0, 2.0])

    def test_order1_constant_function_duplicates(self):
        ops = trace_operator(1, 1, 10)
        assert np.allclose(ops.t @ np.full(10, 7.0), [7.0, 7.0])

    def test_order2_quadratic(self):
        ops = trace_operator(2, 1, 16)
        tau = ops.t @ ops.grid.points ** 2
        assert np.allclose(tau, [1.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_order2_vector(self):
        # samples are node-major: (y_1, y_2) at node 0, then at node 1, ...
        ops = trace_operator(2, 2, 16)
        z = ops.grid.points
        y = np.stack([z, 1.0 - z], axis=1).reshape(-1)
        assert np.allclose(ops.t @ y, [1, 0, 1, -1, 0, 1, 1, -1], atol=1e-12)


class TestFluxForm:
    def test_order1_block_structure(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            p1 = rng.standard_normal((d, d))
            p1 = 0.5 * (p1 + p1.T)
            q = flux_matrix([None, p1], 1, d)
            expect = np.block([[p1, np.zeros((d, d))], [np.zeros((d, d)), -p1]])
            assert np.allclose(q, expect)

    def test_wave_q_matches_spec_matrix(self):
        q = flux_form(wave_subsystem())
        expect = np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, -1, 0]], dtype=float)
        assert np.allclose(q, expect)

    def test_beam_q_against_quadrature(self):
        rng = np.random.default_rng(11)
        s = beam_subsystem()
        q = flux_form(s)
        for _ in range(20):
            coeffs = random_poly_state(rng, 2, 6)
            tau = poly_trace(coeffs, 2)
            lhs = quadrature_energy_rate(s, coeffs)
            rhs = 0.5 * float(np.real(tau.conj() @ q @ tau))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_flux_identity_random_systems(self, order):
        rng = np.random.default_rng(100 + order)
        for _ in range(8):
            s = random_passive_subsystem(rng, order=order, with_p0=True,
                                         complex_ok=True)
            q = flux_form(s)
            assert np.allclose(q, q.conj().T)
            for _ in range(5):
                coeffs = random_poly_state(rng, s.dim, order + 4)
                tau = poly_trace(coeffs, order)
                lhs = quadrature_energy_rate(s, coeffs)
                rhs = (0.5 * float(np.real(tau.conj() @ q @ tau))
                       + quadrature_p0_term(s, coeffs))
                scale = max(1.0, abs(lhs), float(np.abs(tau).max()) ** 2)
                assert abs(lhs - rhs) <= 1e-9 * scale

    def test_interval_rescaling_jacobian_rule(self):
        # system declared on (0, 2): P_k ingested as P_k * 2^-k; the flux
        # form of the ingested system equals the hand-scaled one.
        p1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        w_b = np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]])
        w_c = np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]])
        ham = MatrixFunction.constant(np.eye(2))
        s_phys = PHSubsystem(order=1, dim=2, p_matrices=(None, p1),
                             hamiltonian=ham, w_b=w_b, w_c=w_c, interval=(0.0, 2.0))
        s_unit = PHSubsystem(order=1, dim=2, p_matrices=(None, p1 / 2.0),
                             hamiltonian=ham, w_b=w_b, w_c=w_c)
        assert np.allclose(s_phys.p_matrices[1], p1 / 2.0)
        assert np.allclose(flux_form(s_phys), flux_form(s_unit))

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan),
                                          (-1e308, 1e308), (1.0, 1.0)])
    def test_interval_must_be_finite_and_ordered(self, interval):
        # an infinite length used to scale every P_k to zero
        p1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        w_b = np.array([[0, 0, 0, -1.0], [1, 0, 0, 0]])
        w_c = np.array([[0, 0, 1.0, 0], [0, 1, 0, 0]])
        with pytest.raises(PHStructuralError, match="interval"):
            PHSubsystem(order=1, dim=2, p_matrices=(None, p1), hamiltonian=np.eye(2),
                        w_b=w_b, w_c=w_c, interval=interval)


    @pytest.mark.parametrize("order, interval", [(1, (0.0, 5e-324)), (1, (0.0, 1e-310)),
                                                 (2, (0.0, 1e-160))])
    def test_tiny_interval_scales_p_out_of_range(self, order, interval):
        # (b - a) ** -k used to raise OverflowError
        d = 2
        p = (None, np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(PHStructuralError, match="interval length"):
            PHSubsystem(order=order, dim=d, p_matrices=p[:order + 1], hamiltonian=np.eye(d),
                        w_b=np.eye(order * d, 2 * order * d),
                        w_c=np.eye(order * d, 2 * order * d, order * d), interval=interval)


class TestMatrixFunction:
    def test_polynomial_eval(self):
        mf = MatrixFunction.polynomial(np.array([np.eye(2), 2.0 * np.eye(2)]))
        vals = mf(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(vals[:, 0, 0], [1.0, 2.0, 3.0])

    def test_samples_interpolate(self):
        mf = MatrixFunction.samples(np.array([np.eye(1), 3.0 * np.eye(1)]))
        assert np.allclose(mf(np.array([0.5]))[0], [[2.0]])

    def test_min_eig_matches_pointwise_loop(self):
        rng = np.random.default_rng(2)
        mf = MatrixFunction.polynomial(rng.standard_normal((3, 3, 3))
                                       + 1j * rng.standard_normal((3, 3, 3)))
        zs = np.linspace(0, 1, 513)
        vals = mf(zs)
        loop = min(np.linalg.eigvalsh(0.5 * (v + v.conj().T)).min() for v in vals)
        assert mf.min_eig(zs) == loop

    def test_lipschitz_slope_recorded(self):
        mf = MatrixFunction.samples(np.array([np.eye(1), 3.0 * np.eye(1)]))
        assert mf.lipschitz_slope() == pytest.approx(2.0, rel=1e-6)

    def test_lipschitz_slope_sees_every_knot(self):
        # the 257-point grid holds only the even knots of 513 samples, where
        # this profile is flat; it used to record 0.0
        values = np.where(np.arange(513) % 2, 1.01, 1.0).reshape(-1, 1, 1)
        mf = MatrixFunction.samples(values)
        assert mf.lipschitz_slope() == pytest.approx(5.12, rel=1e-6)

    def test_roundtrip_complex(self):
        mf = MatrixFunction.constant(np.array([[1.0, 1j], [-1j, 2.0]]))
        back = MatrixFunction.from_dict(mf.to_dict())
        assert np.allclose(back.data, mf.data)
