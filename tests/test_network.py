"""Network assembly, closed-loop certification, serial-structure detection."""

import numpy as np
import pytest

from phnet import (Controller, Network, NotSerial, PHStructuralError,
                   SerialStructure, assemble, build_chain,
                   certify_network_dissipative, check_controller_passive,
                   constraint_projector, detect_serial_structure,
                   detect_serial_structure_blocks)
from phnet.scenarios import _wave_subsystem

from helpers import (random_nsd_k, random_passive_controller,
                     random_passive_subsystem)


def gyrator_network():
    """Two impedance-passive waves with B1 = -C2, B2 = C1."""
    s1 = _wave_subsystem(1.0, 1.0, kind="interior")
    s2 = _wave_subsystem(1.0, 1.3, kind="interior")
    k = np.zeros((4, 4))
    k[0:2, 2:4] = -np.eye(2)
    k[2:4, 0:2] = np.eye(2)
    return Network(subsystems=(s1, s2), k_mat=k)


class TestAssemble:
    def test_single_subsystem_constraint_rows(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        k = np.array([[-0.5, 0.0], [0.0, 0.0]])
        net = Network(subsystems=(s,), k_mat=k)
        closed = assemble(net)
        assert np.allclose(closed.w_b_net, s.w_b - k @ s.w_c)
        assert closed.n_constraints == 2

    def test_gyrator_constraints_encode_coupling(self):
        net = gyrator_network()
        closed = assemble(net)
        # row 0: B1_1 + C2_1 = 0
        tau = np.zeros(8)
        s1, s2 = net.subsystems
        expect = np.hstack([s1.w_b, np.zeros((2, 4))]) + np.hstack(
            [np.zeros((2, 4)), s2.w_c])
        assert np.allclose(closed.w_b_net[0:2], expect)

    def test_spring_mass_controller_rows(self):
        from phnet import build_coupled
        net = build_coupled(variant="spring_mass_damper_string_beam")
        closed = assemble(net)
        # six constraint rows over 12 trace components plus x_c columns
        assert closed.w_b_net.shape == (6, 12)
        assert closed.c_c_net.shape == (6, 2)
        # the controller feeds exactly the string's first port row
        assert np.any(closed.c_c_net[0] != 0)
        assert np.allclose(closed.c_c_net[1:], 0)

    def test_controller_errors(self):
        s = _wave_subsystem(1.0, 1.0, kind="mass_free")
        ctrl = Controller(a_c=np.array([[0.0, 1.0], [-1.0, -1.0]]),
                          b_c=np.array([[0.0], [1.0]]), c_c=np.array([[0.0, 1.0]]),
                          d_c=np.zeros((1, 1)), state_weight=np.eye(2))
        with pytest.raises(PHStructuralError):
            assemble(Network(subsystems=(s,), controllers=(ctrl,),
                             coupling=((5,),)))
        with pytest.raises(PHStructuralError):
            assemble(Network(subsystems=(s,), controllers=(ctrl,),
                             coupling=((0, 1),)))
        with pytest.raises(PHStructuralError):
            assemble(Network(subsystems=(s,), controllers=(ctrl, ctrl),
                             coupling=((0,), (0,))))

    def test_external_ports_drop_constraint_rows(self):
        # an external row leaves its port unconstrained: one fewer
        # constraint, and the open system is (honestly) not certifiable
        s = _wave_subsystem(1.0, 1.0, kind="last")
        closed_net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
        open_net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)),
                           external_ports=(1,))
        assert assemble(closed_net).n_constraints == 2
        assert assemble(open_net).n_constraints == 1
        assert certify_network_dissipative(closed_net).passed
        assert not certify_network_dissipative(open_net).passed

    def test_kmat_shape_error(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        with pytest.raises(PHStructuralError):
            assemble(Network(subsystems=(s,), k_mat=np.zeros((3, 3))))

    def test_energy_blocks_emitted(self):
        from phnet import build_coupled
        net = build_coupled(variant="spring_mass_damper_string_beam")
        closed = assemble(net)
        assert np.allclose(closed.controller_weight, np.diag([1.0, 1.0]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            s1 = random_passive_subsystem(rng, order=1, dim=2)
            s2 = random_passive_subsystem(rng, order=1, dim=1)
            p1, p2 = s1.port_dim, s2.port_dim
            k = random_nsd_k(rng, p1 + p2)
            net = Network(subsystems=(s1, s2), k_mat=k)
            # permute subsystems and conjugate k accordingly
            perm_ports = np.concatenate([np.arange(p1, p1 + p2), np.arange(p1)])
            k_perm = k[np.ix_(perm_ports, perm_ports)]
            net_p = Network(subsystems=(s2, s1), k_mat=k_perm)
            proj = constraint_projector(net)
            proj_p = constraint_projector(net_p)
            # map stacked trace coordinates under the permutation
            t1, t2 = s1.trace_dim, s2.trace_dim
            perm_tau = np.concatenate([np.arange(t1, t1 + t2), np.arange(t1)])
            assert np.abs(proj_p - proj[np.ix_(perm_tau, perm_tau)]).max() <= 1e-10


class TestCertification:
    def test_chain_k_pattern_passes(self):
        net = build_chain(m=3, kappa=[0.5, 0.2, 0.0])
        cert = certify_network_dissipative(net)
        assert cert.passed
        # He K is the expected diagonal pattern
        sym = 0.5 * (net.k_mat + net.k_mat.T)
        assert np.allclose(sym, np.diag([-0.5, 0, -0.2, 0, 0, 0]))

    def test_chain_he_k_negative_semidefinite(self):
        net = build_chain(m=3, kappa=[1.0, 0.0, 0.0])
        sym = 0.5 * (net.k_mat + net.k_mat.T)
        ev = np.linalg.eigvalsh(sym)
        assert ev.max() <= 1e-14
        # exactly one strictly negative direction per damped port
        assert np.sum(ev < -1e-12) == 1

    def test_conservative_gyrator_margin_zero(self):
        cert = certify_network_dissipative(gyrator_network())
        assert cert.passed
        assert abs(cert.margin) <= 1e-10

    def test_sign_flipped_joint_fails_with_witness(self):
        net = build_chain(m=2, kappa=[0.5, 0.0])
        k = net.k_mat.copy()
        k[0, 0] = +0.5   # energy-pumping damper sign
        bad = Network(subsystems=net.subsystems, k_mat=k)
        cert = certify_network_dissipative(bad)
        assert not cert.passed
        assert cert.witness is not None

    def test_random_passive_networks_always_certify(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            subs = [random_passive_subsystem(rng) for _ in range(int(rng.integers(1, 3)))]
            total = sum(s.port_dim for s in subs)
            k = random_nsd_k(rng, total)
            controllers, coupling = (), ()
            if rng.integers(2) and total >= 1:
                n_port = int(rng.integers(1, total + 1))
                ports = tuple(rng.permutation(total)[:n_port].tolist())
                ctrl = random_passive_controller(rng, int(rng.integers(1, 4)), n_port)
                assert check_controller_passive(ctrl).passed
                controllers, coupling = (ctrl,), (ports,)
                # controller ports leave K entirely (principal submatrix of
                # an NSD symmetric part stays NSD)
                k = k.copy()
                k[list(ports), :] = 0.0
                k[:, list(ports)] = 0.0
            net = Network(subsystems=subs, k_mat=k,
                          controllers=controllers, coupling=coupling)
            assert certify_network_dissipative(net).passed

    def test_complex_controller_preserved(self):
        # complex controller matrices must not be truncated to real parts
        s = _wave_subsystem(1.0, 1.0, kind="mass_free")
        ctrl = Controller(a_c=np.array([[-1.0 + 0.5j]]), b_c=np.array([[1.0j]]),
                          c_c=np.array([[-1.0j]]), d_c=np.array([[0.0]]),
                          state_weight=np.eye(1))
        net = Network(subsystems=(s,), controllers=(ctrl,), coupling=((0,),))
        closed = assemble(net)
        assert np.iscomplexobj(closed.c_c_net)
        assert np.abs(closed.cross.imag).max() > 0
        from phnet import assemble_generator
        gen = assemble_generator(net, 16)
        assert np.iscomplexobj(gen.s_red)

    def test_controller_certificate_and_kernel_condition(self):
        from phnet.scenarios import _msd_controller
        cert = check_controller_passive(_msd_controller(1.0, 1.0, 1.0))
        assert cert.passed
        # D_c = 0 with B_c != 0: passive, but ker D_c is not inside ker B_c
        assert "ker D_c subset ker B_c: False" in cert.detail
        # a strictly input passive controller: positive feedthrough
        strict = Controller(a_c=np.array([[-1.0]]), b_c=np.array([[1.0]]),
                            c_c=np.array([[1.0]]), d_c=np.array([[0.5]]),
                            state_weight=np.eye(1))
        cert = check_controller_passive(strict)
        assert cert.passed
        assert "ker D_c subset ker B_c: True" in cert.detail
        kappa = float(cert.detail.split("kappa = ")[1].split(";")[0])
        assert kappa > 0.1

    def test_passive_controller_network_certifies(self):
        from phnet import build_mass_damped_string
        cert = certify_network_dissipative(build_mass_damped_string())
        assert cert.passed


class TestSerial:
    def test_chain_reformulation_identity_ordering(self):
        net = build_chain(m=4, kappa=[0.5, 0.1, 0.0, 0.2])
        result = detect_serial_structure(net)
        assert isinstance(result, SerialStructure)
        assert result.ordering == (0, 1, 2, 3)
        # permuted blocks are strictly lower triangular
        perm = result.permuted_blocks()
        for i in range(4):
            for j in range(i, 4):
                blk = perm[i][j]
                assert blk is None or np.abs(blk).max() == 0

    def test_raw_chain_kmat_is_not_serial(self):
        net = build_chain(m=3, kappa=[0.5, 0.0, 0.0])
        raw = Network(subsystems=net.subsystems, k_mat=net.k_mat)
        result = detect_serial_structure(raw)
        assert isinstance(result, NotSerial)

    def test_gyrator_two_cycle(self):
        result = detect_serial_structure(gyrator_network())
        assert isinstance(result, NotSerial)
        assert sorted(result.cycle) == [0, 1]

    def test_block_diagonal_zero_is_serial_ascending(self):
        s = [_wave_subsystem(1.0, 1.0, kind="last") for _ in range(3)]
        net = Network(subsystems=s, k_mat=np.zeros((6, 6)))
        result = detect_serial_structure(net)
        assert isinstance(result, SerialStructure)
        assert result.ordering == (0, 1, 2)

    def test_self_loop_is_a_cycle(self):
        blocks = [[np.array([[1.0]])]]
        result = detect_serial_structure_blocks(blocks)
        assert isinstance(result, NotSerial)
        assert result.cycle == (0,)

    def test_upper_triangular_reorders(self):
        # dependency reversed: block (0, 1) nonzero means 0 depends on 1
        blocks = [[None, np.array([[1.0]])], [None, None]]
        result = detect_serial_structure_blocks(blocks)
        assert isinstance(result, SerialStructure)
        assert result.ordering == (1, 0)
