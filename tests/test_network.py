"""Network assembly, closed-loop certification, serial-structure detection."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from phnet import (Controller, Network, NotSerial, PHStructuralError,
                   SerialStructure, assemble, build_chain, build_scenario,
                   certify_network_dissipative, check_controller_passive,
                   detect_serial_structure, null_basis)
from phnet.network import _block_diag
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


BLOCK_ELEMENTS = {
    np.dtype(np.int8): st.integers(-9, 9),
    np.dtype(np.int64): st.integers(-9, 9),
    np.dtype(np.float32): st.floats(-9, 9, width=32),
    np.dtype(np.float64): st.floats(-9, 9),
    np.dtype(np.complex128): st.complex_numbers(max_magnitude=9, allow_nan=False),
}
blocks = st.lists(
    st.tuples(st.sampled_from(sorted(BLOCK_ELEMENTS, key=str)),
              st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda t: hnp.arrays(t[0], t[1:], elements=BLOCK_ELEMENTS[t[0]])),
    min_size=1, max_size=5)


class TestAssemble:
    @settings(max_examples=200, deadline=None)
    @given(blocks=blocks)
    def test_block_diag_matches_scipy(self, blocks):
        got, want = _block_diag(blocks), sla.block_diag(*blocks)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert np.array_equal(got, want)

    def test_single_subsystem_constraint_rows(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        k = np.array([[-0.5, 0.0], [0.0, 0.0]])
        net = Network(subsystems=(s,), k_mat=k)
        closed = assemble(net)
        assert np.allclose(closed.w_b_net, s.w_b - k @ s.w_c)
        assert closed.w_b_net.shape[0] == 2

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
        # a controller row cannot also be an external input
        with pytest.raises(PHStructuralError, match="external port on controller port row 0"):
            assemble(Network(subsystems=(s,), controllers=(ctrl,),
                             coupling=((0,),), external_ports=(0,)))

    def test_external_ports_drop_constraint_rows(self):
        # an external row leaves its port unconstrained: one fewer
        # constraint, and the open system is (honestly) not certifiable
        s = _wave_subsystem(1.0, 1.0, kind="last")
        closed_net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)))
        open_net = Network(subsystems=(s,), k_mat=np.zeros((2, 2)),
                           external_ports=(1,))
        assert assemble(closed_net).w_b_net.shape[0] == 2
        assert assemble(open_net).w_b_net.shape[0] == 1
        assert certify_network_dissipative(closed_net).passed
        assert not certify_network_dissipative(open_net).passed

    def test_external_port_out_of_range(self):
        s = _wave_subsystem(1.0, 1.0, kind="last")
        for row in (2, -1):
            with pytest.raises(PHStructuralError, match="nonexistent port row %d" % row):
                assemble(Network(subsystems=(s,), k_mat=np.zeros((2, 2)),
                                 external_ports=(row,)))

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
            # orthogonal projectors onto the constraint null spaces
            z, z_p = (null_basis(assemble(n).constraint_matrix()) for n in (net, net_p))
            proj, proj_p = z @ z.conj().T, z_p @ z_p.conj().T
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

    def test_one_loop_per_network(self, monkeypatch):
        # the certificate, serial detection and both reductions share one
        # read-only closed loop
        from phnet import assemble_generator, build_coupled, detect_serial_structure
        from phnet.network import ClosedLoopDescription
        built = []

        def counting(*args, **kwargs):
            built.append(ClosedLoopDescription(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr("phnet.network.ClosedLoopDescription", counting)
        net = build_coupled(variant="spring_mass_damper_string_beam")
        assert certify_network_dissipative(net).passed
        detect_serial_structure(net)
        assemble_generator(net, 24).companion
        assert len(built) == 1 and assemble(net) is built[0]
        assert not built[0].w_b_net.flags.writeable

    def test_complex_controller_preserved(self):
        # complex controller matrices must not be truncated to real parts
        s = _wave_subsystem(1.0, 1.0, kind="mass_free")
        ctrl = Controller(a_c=np.array([[-1.0 + 0.5j]]), b_c=np.array([[1.0j]]),
                          c_c=np.array([[-1.0j]]), d_c=np.array([[0.0]]),
                          state_weight=np.eye(1))
        net = Network(subsystems=(s,), controllers=(ctrl,), coupling=((0,),))
        closed = assemble(net)
        assert np.iscomplexobj(closed.c_c_net)
        assert np.abs(closed.energy_form().imag).max() > 0
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


def row_ends(net):
    """Per constraint row of a controller-free network, {subsystem: ends it
    touches}, "z1" for the first half of its trace and "z0" for the second."""
    rows = (sla.block_diag(*[s.w_b for s in net.subsystems])
            - net.k_mat @ sla.block_diag(*[s.w_c for s in net.subsystems]))
    tol = 1e-12 * max(1.0, np.abs(rows).max())
    out = []
    for row in rows:
        ends, col = {}, 0
        for j, s in enumerate(net.subsystems):
            half = s.trace_dim // 2
            for end, part in (("z1", row[col:col + half]), ("z0", row[col + half:col + 2 * half])):
                if np.abs(part).max() > tol:
                    ends.setdefault(j, set()).add(end)
            col += 2 * half
        out.append(ends)
    return out


def serial_under(net, ordering):
    """Whether every subsystem takes the coupling rows it comes last in at one end."""
    rank = {j: i for i, j in enumerate(ordering)}
    taken = {}
    for ends in row_ends(net):
        if len(ends) > 1:
            last = max(ends, key=rank.get)
            taken.setdefault(last, set()).update(ends[last])
    return all(len(v) == 1 for v in taken.values())


@st.composite
def string_networks(draw):
    """1-5 strings of random port splittings, K a random sparsity pattern."""
    m = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["interior", "last", "mass_interior", "mass_free"]),
                          min_size=m, max_size=m))
    k = np.zeros((2 * m, 2 * m))
    for r, c in draw(st.lists(st.tuples(st.integers(0, 2 * m - 1), st.integers(0, 2 * m - 1)),
                              min_size=m, max_size=4 * m)):
        k[r, c] = 1.0
    return Network(subsystems=[_wave_subsystem(1.0, 1.0, kind=kind) for kind in kinds], k_mat=k)


class TestSerial:
    @settings(max_examples=40, deadline=None)
    @given(kappa=st.integers(1, 8).flatmap(lambda m: st.lists(
        st.sampled_from([0.0, 0.1, 0.7]), min_size=m - 1, max_size=m - 1)))
    def test_chain_identity_ordering_meets_rule(self, kappa):
        net = build_chain(m=len(kappa) + 1, kappa=[0.5] + kappa)
        result = detect_serial_structure(net)
        assert isinstance(result, SerialStructure)
        assert result.ordering == tuple(range(len(kappa) + 1))
        assert serial_under(net, result.ordering)

    def test_fully_coupled_is_not_serial(self):
        net = build_chain(m=3)
        coupled = Network(subsystems=net.subsystems, k_mat=np.full((6, 6), -0.1))
        result = detect_serial_structure(coupled)
        assert isinstance(result, NotSerial)
        assert result.cycle == (0, 1, 2)

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

    def test_one_node_closure_is_serial(self):
        # a damper on the diagonal of K closes the string on itself
        net = Network(subsystems=(_wave_subsystem(1.0, 1.0, kind="last"),),
                      k_mat=np.array([[-1.0, 0.0], [0.0, 0.0]]))
        assert detect_serial_structure(net) == SerialStructure(ordering=(0,))

    def test_coupling_at_both_ends_reorders(self):
        # row 0 (string 0's z = 0 end) reads C = (y1(0), y2(1)) of string 1,
        # which touches string 1 at both ends: string 1 must come first
        s = [_wave_subsystem(1.0, 1.0, kind="interior") for _ in range(2)]
        k = np.zeros((4, 4))
        k[0, 2:4] = 1.0
        net = Network(subsystems=s, k_mat=k)
        assert detect_serial_structure(net) == SerialStructure(ordering=(1, 0))
        assert [ends for ends in row_ends(net) if len(ends) > 1] == [
            {0: {"z0"}, 1: {"z0", "z1"}}]

    def test_controller_row_touches_what_it_reads(self):
        # one controller on rows 0 (string 0, z = 0) and 2, 3 (string 1, both
        # ends): through its state each row touches string 1 at both ends, so
        # string 1 must come first; the tip controller reads the string only
        s = [_wave_subsystem(1.0, 1.0, kind="interior") for _ in range(2)]
        c = Controller(a_c=[[-1.0]], b_c=np.ones((1, 3)), c_c=np.ones((3, 1)),
                       d_c=np.zeros((3, 3)), state_weight=[[1.0]])
        net = Network(subsystems=s, controllers=(c,), k_mat=np.zeros((4, 4)),
                      coupling=((0, 2, 3),))
        assert detect_serial_structure(net) == SerialStructure(ordering=(1, 0))
        tip = build_scenario("spring_mass_damper_string_beam")
        assert detect_serial_structure(tip) == SerialStructure(ordering=(0, 1))

    @settings(max_examples=200, deadline=None)
    @given(net=string_networks())
    def test_random_sparsity_matches_brute_force(self, net):
        m = len(net.subsystems)
        result = detect_serial_structure(net)
        exists = any(serial_under(net, p) for p in itertools.permutations(range(m)))
        if isinstance(result, SerialStructure):
            assert sorted(result.ordering) == list(range(m))
            assert serial_under(net, result.ordering)
        else:
            assert not exists
            assert list(result.cycle) == sorted(set(result.cycle)) and result.cycle
            # every subsystem left takes rows at both ends when it goes last among them
            for j in result.cycle:
                taken = [ends[j] for ends in row_ends(net) if len(ends) > 1 and j in ends
                         and set(ends) <= set(result.cycle)]
                assert set().union(*taken) == {"z0", "z1"}

    @settings(max_examples=200, deadline=None)
    @given(net=string_networks(), data=st.data())
    def test_renumbering_keeps_verdict(self, net, data):
        m = len(net.subsystems)
        perm = data.draw(st.permutations(range(m)))
        ports = [2 * j + i for j in perm for i in (0, 1)]
        renamed = Network(subsystems=[net.subsystems[j] for j in perm],
                          k_mat=net.k_mat[np.ix_(ports, ports)])
        before, after = detect_serial_structure(net), detect_serial_structure(renamed)
        assert type(before) is type(after)
        if isinstance(before, NotSerial):
            assert sorted(perm[j] for j in after.cycle) == list(before.cycle)
