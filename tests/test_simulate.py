"""Cayley stepping: contraction, reversibility, exact energy balance."""

import numpy as np
import pytest

from phnet import (Network, assemble_generator, build_chain,
                   make_initial_state, simulate, spectrum)
from phnet.discretize import boundary_flux, discrete_energy_rate
from phnet.scenarios import _wave_subsystem
from phnet.simulate import CayleyStepper


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
            m_red = np.eye(3)
            s_red = np.zeros((3, 3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(CayleyStepper(Dummy(), 0.1).step(v), v)

    def test_scalar_cayley_at_minus_one(self):
        # a = -1, dt = 2: (1 + dt/2 a) / (1 - dt/2 a) = 0
        class Dummy:
            m_red = np.eye(1)
            s_red = -np.eye(1)
        assert np.allclose(CayleyStepper(Dummy(), 2.0).step(np.array([3.0])), [0.0])

    def test_conservative_step_is_isometric(self, conservative):
        net, gen = conservative
        rng = np.random.default_rng(0)
        v = rng.standard_normal(gen.n_red)
        v1 = CayleyStepper(gen, 1e-2).step(v)
        assert abs(gen.energy(v1) - gen.energy(v)) <= 1e-12 * gen.energy(v)

    def test_dt_must_be_positive_in_stepper(self, conservative):
        net, gen = conservative
        with pytest.raises(ValueError):
            CayleyStepper(gen, 0.0)


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
        e = gen.energy(v)
        for _ in range(200):
            v = stepper.step(v)
            e_new = gen.energy(v)
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
            v = np.linalg.solve(fwd.b, (gen.m_red - 5e-3 * gen.s_red) @ v)
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
                lhs = (gen.energy(v1) - gen.energy(v0)) / dt
                rhs = boundary_flux(gen, net, mid)
                err = max(err, abs(lhs - rhs))
                v0 = v1
            worst[dt] = err
        scale = max(1.0, gen.energy(v))
        assert worst[2e-2] <= 1e-2 * (2e-2) ** 2 + 1e-9 * scale
        assert worst[1e-2] <= worst[2e-2] + 1e-9 * scale

    def test_midpoint_flux_equals_energy_rate(self, damped):
        net, gen = damped
        rng = np.random.default_rng(4)
        for _ in range(5):
            v = rng.standard_normal(gen.n_red)
            assert abs(discrete_energy_rate(gen, v)
                       - boundary_flux(gen, net, v)) <= 1e-10
