"""Cayley stepping: contraction, reversibility, exact energy balance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phnet import (Network, assemble_generator, build_chain,
                   make_initial_state, simulate, spectrum)
from phnet.discretize import boundary_flux, discrete_energy_rate
from phnet.scenarios import _wave_subsystem
from phnet.simulate import DIAG_PIVOT_THRESH, PERMC_SPEC, CayleyStepper

from helpers import complex_explicit_network, random_constrained_state, random_passive_network


@pytest.fixture(scope="module")
def conservative():
    s = _wave_subsystem(1.0, 1.0, kind="last")
    net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
    return net, assemble_generator(net, 32)


@pytest.fixture(scope="module")
def damped():
    net = build_chain(m=1, kappa=[0.5])
    return net, assemble_generator(net, 32)


class TestStepMidpoint:
    def test_zero_dynamics_identity(self):
        class Dummy:
            s_red = np.zeros((3, 3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(CayleyStepper(Dummy(), 0.1).step(v), v)

    def test_scalar_cayley_at_minus_one(self):
        # a = -1, dt = 2: (1 + dt/2 a) / (1 - dt/2 a) = 0
        class Dummy:
            s_red = -np.eye(1)
        assert np.allclose(CayleyStepper(Dummy(), 2.0).step(np.array([3.0])), [0.0])

    def test_conservative_step_is_isometric(self, conservative):
        net, gen = conservative
        rng = np.random.default_rng(0)
        v = rng.standard_normal(gen.n_red)
        stepper = CayleyStepper(gen, 1e-2)
        v1 = stepper.step(v)
        assert abs(stepper.energy(v1) - stepper.energy(v)) <= 1e-12 * stepper.energy(v)

    def test_dt_must_be_positive_in_stepper(self, conservative):
        net, gen = conservative
        with pytest.raises(ValueError):
            CayleyStepper(gen, 0.0)

    def test_singular_cayley_matrix_names_dt_and_condition(self):
        # 1 - dt/2 s = 1 - 1/2 * 2 = 0
        class Dummy:
            s_red = 2.0 * np.eye(1)
        with pytest.raises(RuntimeError, match=r"dt=1\.000e\+00 \(cond ~ inf\)"):
            CayleyStepper(Dummy(), 1.0)


class TestSparseStepper:
    """The SuperLU midpoint-form step is the dense Cayley map."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 2),
           complex_ok=st.booleans(), with_controller=st.booleans(),
           dt=st.sampled_from([1e-3, 1e-2, 1e-1]))
    def test_matches_dense_cayley_map(self, seed, n_subsystems, complex_ok,
                                      with_controller, dt):
        rng = np.random.default_rng(seed)
        net = random_passive_network(rng, n_subsystems, complex_ok, with_controller)
        gen = assemble_generator(net, 16)
        m, s, h = np.eye(gen.n_red), gen.s_red, 0.5 * dt
        v = rng.standard_normal(gen.n_red)
        if np.iscomplexobj(m):
            v = v + 1j * rng.standard_normal(gen.n_red)
        want = v.copy()
        stepper = CayleyStepper(gen, dt)
        for _ in range(50):
            v = stepper.step(v)
            want = np.linalg.solve(m - h * s, (m + h * s) @ want)
            assert np.linalg.norm(v - want) <= 1e-12 * np.linalg.norm(want)
        energy = 0.5 * np.real(want.conj() @ m @ want)
        assert abs(stepper.energy(v) - energy) <= 1e-12 * energy

    def test_sparse_cayley_matrix_factors_as_the_dense_one(self):
        # I - dt/2 s_red assembled sparse has the dense matrix's entries, so
        # SuperLU returns the same factors and ordering bit for bit
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        for net in (build_chain(m=3, kappa=[0.5, 0.02, 0.02]), complex_explicit_network()):
            gen = assemble_generator(net, 16)
            lu = CayleyStepper(gen, 1e-2).lu
            want = splu(csc_matrix(np.eye(gen.n_red) - 0.5 * 1e-2 * gen.s_red),
                        permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH)
            assert np.array_equal(lu.perm_c, want.perm_c)
            assert np.array_equal(lu.perm_r, want.perm_r)
            for got, ref in ((lu.L, want.L), (lu.U, want.U)):
                assert (got != ref).nnz == 0 and got.nnz == ref.nnz

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), complex_ok=st.booleans(),
           complex_v=st.booleans())
    def test_trace_is_trace_map_product(self, seed, complex_ok, complex_v):
        # scipy's gemv in the step loop gives numpy's trace_map @ v
        rng = np.random.default_rng(seed)
        gen = assemble_generator(random_passive_network(rng, 2, complex_ok, True), 16)
        v = rng.standard_normal(gen.n_red)
        if complex_v:
            v = v + 1j * rng.standard_normal(gen.n_red)
        want = gen.trace_map @ v
        got = CayleyStepper(gen, 1e-2).trace(v)
        assert got.shape == want.shape and np.iscomplexobj(got) == np.iscomplexobj(want)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_complex_state_on_real_generator(self, damped):
        net, gen = damped
        rng = np.random.default_rng(5)
        v = rng.standard_normal(gen.n_red) + 1j * rng.standard_normal(gen.n_red)
        m, s, h = np.eye(gen.n_red), gen.s_red, 5e-3
        want = np.linalg.solve(m - h * s, (m + h * s) @ v)
        got = CayleyStepper(gen, 1e-2).step(v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_fill_reducing_ordering(self):
        # damped joints couple neighbouring strings; SuperLU's default
        # COLAMD ordering then fills L + U to 90 % of n_red^2
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        lu = CayleyStepper(gen, 2.5e-3).lu
        assert lu.L.nnz + lu.U.nnz < 0.2 * gen.n_red ** 2

    def test_dense_cayley_solve_is_backward_stable(self):
        # a dense LU of I - dt/2 s_red, as the benchmark's trajectory oracle
        # takes it: with the constraint-kernel coordinates after the free
        # ones, its pivot growth left backward errors of 1.5e-10
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        a = np.eye(gen.n_red) - 5e-3 * gen.s_red           # dt = 1e-2
        b = np.random.default_rng(0).standard_normal(gen.n_red)
        x = np.linalg.solve(a, b)
        assert np.linalg.norm(b - a @ x) <= 1e-14 * np.linalg.norm(a, 2) * np.linalg.norm(x)


class TestSimulate:
    def test_zero_initial_state(self, damped):
        net, gen = damped
        tr = simulate(gen, np.zeros(gen.n_full), dt=1e-2, t_end=1.0)
        assert np.allclose(tr.energies, 0.0)
        assert np.allclose(tr.traces[0], 0.0)

    def test_damped_wave_decay_bound(self, damped):
        net, gen = damped
        gen64 = assemble_generator(net, 64)
        x0 = make_initial_state(net, gen64, "sine")
        tr = simulate(gen64, x0, dt=5e-3, t_end=10.0, record_every=10)
        assert np.all(np.diff(tr.energies) <= tr.energies[:-1] * 1e-12 + 1e-300)
        assert tr.energies[-1] / tr.energies[0] <= np.exp(-1.0986 * 10.0 * 0.9)

    def test_chain_energy_nonincreasing(self):
        net = build_chain(m=3, kappa=[0.5, 0.0, 0.0])
        gen = assemble_generator(net, 24)
        x0 = make_initial_state(net, gen, "bump")
        tr = simulate(gen, x0, dt=1e-2, t_end=8.0)
        assert np.all(np.diff(tr.energies) <= tr.energies[:-1] * 1e-12 + 1e-300)

    def test_incompatible_initial_state_warns(self, damped):
        net, gen = damped
        x0 = np.zeros(gen.n_full)
        x0[1::2] = 1.0   # constant strain violates the free-end condition
        tr = simulate(gen, x0, dt=1e-2, t_end=0.5)
        assert "incompatible" in tr.warning

    @pytest.mark.parametrize("k, dt", [(3, 3e-3), (25, 7e-3), (29, 1.1e-3)])
    def test_integral_step_count_is_not_overshot(self, damped, k, dt):
        # k * dt / dt rounds to just above k for these pairs
        net, gen = damped
        tr = simulate(gen, np.zeros(gen.n_full), dt=dt, t_end=k * dt)
        assert tr.meta["steps"] == k
        assert tr.times[-1] == k * dt

    def test_fractional_step_count_rounds_up(self, damped):
        net, gen = damped
        tr = simulate(gen, np.zeros(gen.n_full), dt=0.02, t_end=0.05)
        assert tr.meta["steps"] == 3

    def test_csv_headers(self, damped, tmp_path):
        net, gen = damped
        x0 = make_initial_state(net, gen, "sine")
        tr = simulate(gen, x0, dt=1e-2, t_end=0.5)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["t", "H"]
        assert "s0_tau0" in header and "s0_tau3" in header


class TestInvariants:
    @pytest.mark.parametrize("dt", [1e-3, 1e-2, 1e-1])
    def test_per_step_contraction(self, damped, dt):
        net, gen = damped
        rng = np.random.default_rng(1)
        v = rng.standard_normal(gen.n_red)
        stepper = CayleyStepper(gen, dt)
        e = stepper.energy(v)
        for _ in range(200):
            v = stepper.step(v)
            e_new = stepper.energy(v)
            assert e_new <= e * (1.0 + 1e-12)
            e = e_new

    def test_time_reversibility_conservative(self, conservative):
        net, gen = conservative
        rng = np.random.default_rng(2)
        v0 = rng.standard_normal(gen.n_red)
        v = v0.copy()
        fwd = CayleyStepper(gen, 1e-2)
        bwd = CayleyStepper(gen, 1e-2)
        for _ in range(50):
            v = fwd.step(v)
        for _ in range(50):
            # stepping with -dt is the inverse Cayley map
            v = np.linalg.solve(np.eye(gen.n_red) + 5e-3 * gen.s_red,
                                v - 5e-3 * gen.s_red @ v)
        assert np.abs(v - v0).max() <= 1e-9 * max(1.0, np.abs(v0).max())

    def test_energy_balance_is_exact_midpoint_identity(self, damped):
        # (H_{k+1} - H_k)/dt equals the boundary flux at the midpoint state
        # to rounding (summation by parts); halving dt must not worsen it.
        net, gen = damped
        rng = np.random.default_rng(3)
        v = rng.standard_normal(gen.n_red)
        worst = {}
        for dt in (2e-2, 1e-2):
            stepper = CayleyStepper(gen, dt)
            v0, err = v.copy(), 0.0
            for _ in range(100):
                v1 = stepper.step(v0)
                mid = 0.5 * (v0 + v1)
                lhs = (stepper.energy(v1) - stepper.energy(v0)) / dt
                rhs = boundary_flux(gen, mid)
                err = max(err, abs(lhs - rhs))
                v0 = v1
            worst[dt] = err
        scale = max(1.0, stepper.energy(v))
        assert worst[2e-2] <= 1e-2 * (2e-2) ** 2 + 1e-9 * scale
        assert worst[1e-2] <= worst[2e-2] + 1e-9 * scale

    def test_midpoint_flux_equals_energy_rate(self, damped):
        net, gen = damped
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = random_constrained_state(gen, rng)
            assert abs(discrete_energy_rate(gen, v)
                       - boundary_flux(gen, v)) <= 1e-10
