"""Cayley stepping: contraction, reversibility, exact energy balance, and
the port structure of s_red that the block-eliminated step relies on."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phnet import (SCENARIOS, Controller, Network, assemble_generator, build_chain,
                   build_scenario, make_initial_state, simulate, spectrum)
from phnet.discretize import boundary_flux, discrete_energy_rate
from phnet.scenarios import _wave_subsystem
from phnet.simulate import CayleyStepper, StepSizeError

from helpers import complex_explicit_network, random_constrained_state, random_passive_network


def all_border(s_red):
    """A generator stand-in whose coordinates are all border (kernel) ones."""
    n = len(s_red)
    return SimpleNamespace(s_red=s_red, kernel=np.zeros((0, n)), free=np.arange(0),
                           sample_slices=[], controller_slice=slice(0, 0),
                           net=SimpleNamespace(subsystems=()))


def subsystem_blocks(gen):
    """The reduced positions of each subsystem's free coordinates."""
    k = gen.kernel.shape[1]
    return [k + np.flatnonzero((gen.free >= sl.start) & (gen.free < sl.stop))
            for sl in gen.sample_slices]


def hidden_state_network():
    """Two damped strings and a controller whose third state C_c does not
    read (weight I), so the reduction keeps that state as a free controller
    coordinate.  B_c drives it by both strings' velocities at z = 0, which
    no constraint row touches, so s_red couples it to both strings' free
    blocks: the elimination is exact only with it in the border.  With D_c
    = 0 and B_c != C_c* the controller is not passive, so the network is
    not certified; the Cayley map is the same algebra."""
    strings = tuple(_wave_subsystem(1.0, 1.0, kind="interior") for _ in range(2))
    ctrl = Controller(a_c=[[-1.0, 0.0, 1.0], [0.0, -1.0, 0.0], [-1.0, 0.0, -1.0]],
                      b_c=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                      c_c=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], d_c=np.zeros((2, 2)),
                      state_weight=np.eye(3))
    k_mat = np.diag([0.0, -0.5, 0.0, -0.5])       # y1(1) = -y2(1) / 2 on each string
    return Network(subsystems=strings, controllers=(ctrl,), coupling=((0, 2),), k_mat=k_mat)


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
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(CayleyStepper(all_border(np.zeros((3, 3))), 0.1).step(v), v)

    def test_scalar_cayley_at_minus_one(self):
        # a = -1, dt = 2: (1 + dt/2 a) / (1 - dt/2 a) = 0
        assert np.allclose(CayleyStepper(all_border(-np.eye(1)), 2.0).step(np.array([3.0])),
                           [0.0])

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
        with pytest.raises(RuntimeError, match=r"dt=1\.000e\+00 \(cond ~ inf\)"):
            CayleyStepper(all_border(2.0 * np.eye(1)), 1.0)

    def test_overflowing_dt_names_dt(self, damped):
        # dt/2 s_red overflows: the factors are not finite, and no warning escapes
        net, gen = damped
        with np.errstate(all="raise"):
            with pytest.raises(StepSizeError, match=r"dt=1\.000e\+308: its factors are not "
                               "finite"):
                CayleyStepper(gen, 1e308)


class TestBlockStepper:
    """The block-eliminated midpoint-form step is the dense Cayley map."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 3),
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

    @pytest.mark.parametrize("dt", [1e-2, 2.5e-3])
    def test_block_solve_is_backward_stable(self, dt):
        # the bound of the dense LU below, for the elimination's x = A^-1 b
        # on the benchmark's trajectory chain (ten blocks, kernel width 19)
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        a = np.eye(gen.n_red) - 0.5 * dt * gen.s_red
        b = np.random.default_rng(0).standard_normal(gen.n_red)
        x = CayleyStepper(gen, dt)._solve(b)
        assert np.linalg.norm(b - a @ x) <= 1e-14 * np.linalg.norm(a, 2) * np.linalg.norm(x)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_schur_complement_keeps_the_scale_of_a(self, name):
        # block elimination loses accuracy in proportion to |S| / |A|; a
        # beam's free coordinates, eliminated as a block, made |S| about |A|^2
        gen = assemble_generator(build_scenario(name), 48)
        for dt in (1e-2, 1e-1):
            stepper = CayleyStepper(gen, dt)
            a = np.eye(gen.n_red) - 0.5 * dt * gen.s_red
            assert np.linalg.norm(np.linalg.inv(stepper.inv_s), 2) <= 10 * np.linalg.norm(a, 2)

    def test_factor_allocates_no_dense_matrix(self):
        # the blocks, X and S are cut from s_red: no n_red x n_red array
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        tracemalloc.start()
        try:
            CayleyStepper(gen, 2.5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gen.n_red ** 2 * gen.s_red.itemsize

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2 ** 32 - 1), complex_ok=st.booleans(),
           complex_v=st.booleans())
    def test_trace_is_trace_map_product(self, seed, complex_ok, complex_v):
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

    def test_dense_cayley_solve_is_backward_stable(self):
        # a dense LU of I - dt/2 s_red, as the benchmark's trajectory oracle
        # takes it: with the constraint-kernel coordinates after the free
        # ones, its pivot growth left backward errors of 1.5e-10
        gen = assemble_generator(build_chain(m=10, kappa=[0.5] + [0.02] * 9), 48)
        a = np.eye(gen.n_red) - 5e-3 * gen.s_red           # dt = 1e-2
        b = np.random.default_rng(0).standard_normal(gen.n_red)
        x = np.linalg.solve(a, b)
        assert np.linalg.norm(b - a @ x) <= 1e-14 * np.linalg.norm(a, 2) * np.linalg.norm(x)


class TestPortStructure:
    """Subsystems meet only through boundary ports: the free x free part of
    s_red is block diagonal by subsystem, exactly."""

    @staticmethod
    def assert_block_diagonal(gen):
        blocks = subsystem_blocks(gen)
        for i, rows in enumerate(blocks):
            for j, cols in enumerate(blocks):
                if i != j:
                    assert not gen.s_red[np.ix_(rows, cols)].any(), (i, j)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_subsystems=st.integers(1, 3),
           complex_ok=st.booleans(), with_controller=st.booleans())
    def test_random_networks(self, seed, n_subsystems, complex_ok, with_controller):
        rng = np.random.default_rng(seed)
        net = random_passive_network(rng, n_subsystems, complex_ok, with_controller)
        self.assert_block_diagonal(assemble_generator(net, 16))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, name):
        self.assert_block_diagonal(assemble_generator(build_scenario(name), 32))

    def test_free_controller_coordinate(self):
        gen = assemble_generator(hidden_state_network(), 24)
        c = gen.controller_slice
        assert list(gen.free[gen.free >= c.start]) == [c.stop - 1]
        blocks = subsystem_blocks(gen)
        assert all(gen.s_red[-1, cols].any() for cols in blocks)
        self.assert_block_diagonal(gen)
        s, h = gen.s_red, 5e-3
        v = np.random.default_rng(6).standard_normal(gen.n_red)
        stepper = CayleyStepper(gen, 2 * h)
        want = v.copy()
        for _ in range(20):
            v = stepper.step(v)
            want = np.linalg.solve(np.eye(gen.n_red) - h * s, want + h * (s @ want))
            assert np.linalg.norm(v - want) <= 1e-12 * np.linalg.norm(want)


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

        assert not any(h.endswith("_im") for h in header)

    def test_csv_writes_imaginary_parts_of_complex_traces(self, tmp_path):
        net = complex_explicit_network()
        gen = assemble_generator(net, 16)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(gen.n_full) + 1j * rng.standard_normal(gen.n_full)
        tr = simulate(gen, x0, dt=1e-2, t_end=0.05)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        want = ["t", "H"]
        for j, t in enumerate(tr.traces):
            assert np.iscomplexobj(t)
            want += [h % (j, i) for i in range(t.shape[1]) for h in ("s%d_tau%d", "s%d_tau%d_im")]
        assert header == want
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        stacked = np.hstack(tr.traces)
        assert np.array_equal(table[:, 2::2], stacked.real)
        assert np.array_equal(table[:, 3::2], stacked.imag)

    @pytest.mark.parametrize("steps, every", [(0, 1), (5, 1), (14, 7), (15, 7), (3, 7)])
    def test_records_every_kth_step_and_the_last(self, damped, steps, every):
        net, gen = damped
        x0 = make_initial_state(net, gen, "sine")
        dt = 1e-2
        tr = simulate(gen, x0, dt=dt, t_end=steps * dt, record_every=every)
        kept = [k for k in range(steps + 1) if k % every == 0 or k == steps]
        assert np.array_equal(tr.times, np.array(kept) * dt)
        assert len(tr.energies) == len(kept) and tr.traces[0].shape[0] == len(kept)
        stepper, v = CayleyStepper(gen, dt), gen.project(x0)[0]
        for k in range(1, steps + 1):
            v = stepper.step(v)
        assert tr.energies[-1] == stepper.energy(v)
        assert np.array_equal(np.hstack([t[-1] for t in tr.traces]), gen.trace_map @ v)

    @pytest.mark.parametrize("every", [0, -7, 2.0])
    def test_record_every_must_be_positive(self, damped, every):
        net, gen = damped
        with pytest.raises(ValueError, match="record_every"):
            simulate(gen, np.zeros(gen.n_full), dt=1e-2, t_end=0.05, record_every=every)


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
