"""Closed-loop networks of port-Hamiltonian subsystems and linear controllers.

The network couples the stacked boundary maps through

    B x = K C x - sum_c S_c (C_c x_c + D_c S_c^T C x),
    d/dt x_c = A_c x_c + B_c S_c^T C x,

where K is the global interconnection matrix on stacked outputs and S_c
embeds controller c's ports into the stacked port space.  This module
builds the closed loop: assembly produces constraint rows on (tau, x_c)
and the aggregate flux + controller supply form, and serial detection
orders the subsystems from those rows.  It decides no certificate:
passivity certifies the closed loop from these blocks.
"""

import numpy as np
from dataclasses import dataclass

from .model import PHStructuralError, _as_matrix, flux_form


@dataclass(frozen=True)
class Controller:
    """Finite-dimensional linear control system with weighted state space.

    The state inner product is <x, y> = y* W x with W = state_weight
    Hermitian positive definite; impedance passivity of the controller is
    the LMI  [[Sym(W A_c), (W B_c - C_c*)/2], [., -Sym(D_c)]] <= 0.
    """

    a_c: np.ndarray
    b_c: np.ndarray
    c_c: np.ndarray
    d_c: np.ndarray
    state_weight: np.ndarray

    def __post_init__(self):
        for name in ("a_c", "b_c", "c_c", "d_c", "state_weight"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name)))
        n, m = self.n_state, self.n_port
        if self.a_c.shape != (n, n):
            raise PHStructuralError("A_c must be square")
        if self.b_c.shape != (n, m) or self.c_c.shape != (m, n) or self.d_c.shape != (m, m):
            raise PHStructuralError("controller matrix shapes inconsistent: "
                                    "A_c %s B_c %s C_c %s D_c %s"
                                    % (self.a_c.shape, self.b_c.shape,
                                       self.c_c.shape, self.d_c.shape))
        w = self.state_weight
        if w.shape != (n, n):
            raise PHStructuralError("state_weight must be %d x %d" % (n, n))
        if np.abs(w - w.conj().T).max() > 1e-12 * max(1.0, np.abs(w).max()):
            raise PHStructuralError("state_weight must be Hermitian")
        if np.linalg.eigvalsh(0.5 * (w + w.conj().T)).min() <= 0:
            raise PHStructuralError("state_weight must be positive definite")

    @property
    def n_state(self):
        return self.a_c.shape[0]

    @property
    def n_port(self):
        return self.b_c.shape[1]

    def supply_defect(self):
        """Hermitian LMI block matrix on (x_c, u_c); <= 0 iff impedance passive."""
        w = self.state_weight
        s11 = 0.5 * (w @ self.a_c + self.a_c.conj().T @ w)
        s12 = 0.5 * (w @ self.b_c - self.c_c.conj().T)
        s22 = -0.5 * (self.d_c + self.d_c.conj().T)
        return np.block([[s11, s12], [s12.conj().T, s22]])


@dataclass(frozen=True)
class Network:
    """Subsystems + controllers + interconnection.

    coupling[c] lists the global port rows controller c attaches to (each
    row mapped at most once across controllers).  k_mat acts on stacked
    outputs C x; rows listed in external_ports are left unconstrained
    (external inputs u-hat, recorded but not driven).  The serial structure
    is derived from the closed loop (detect_serial_structure).
    """

    subsystems: tuple
    controllers: tuple = ()
    k_mat: np.ndarray = None
    coupling: tuple = ()
    external_ports: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        object.__setattr__(self, "controllers", tuple(self.controllers))
        object.__setattr__(self, "coupling", tuple(tuple(c) for c in self.coupling))
        object.__setattr__(self, "external_ports", tuple(self.external_ports))
        if self.k_mat is not None:
            object.__setattr__(self, "k_mat", _as_matrix(self.k_mat))

    @property
    def port_dims(self):
        return [s.port_dim for s in self.subsystems]

    @property
    def total_ports(self):
        return sum(self.port_dims)

    @property
    def port_offsets(self):
        offs = np.concatenate([[0], np.cumsum(self.port_dims)])
        return offs[:-1]

    @property
    def n_controller_states(self):
        return sum(c.n_state for c in self.controllers)


@dataclass
class ClosedLoopDescription:
    """The closed-loop law of a Network, assembled once.

    Over the stacked traces tau and controller states x_c:

        constraint rows   w_b_net @ tau + c_c_net @ x_c = 0
                          (external rows already dropped; kept_rows lists
                          the port rows that remain),
        controller law    d/dt x_c = a_c_net @ x_c + b_c_net @ tau,

    with controller_weight the block-diagonal state inner product and q_blk
    the block-diagonal flux form.  energy_form() derives the supply terms
    from these blocks; no other module re-reads the controllers.
    """

    w_b_net: np.ndarray
    c_c_net: np.ndarray
    q_blk: np.ndarray
    controller_weight: np.ndarray
    a_c_net: np.ndarray
    b_c_net: np.ndarray
    kept_rows: np.ndarray

    def constraint_matrix(self):
        """Rows over the stacked (tau, x_c) vector."""
        return np.hstack([self.w_b_net, self.c_c_net])

    def energy_form(self):
        """Hermitian form F on (tau, x_c) with Re<Ax, x> = [.]* F [.] + P_0 terms.

        F = [[Q/2, (W B)*/2], [W B/2, Sym(W A)]] with W = controller_weight,
        A = a_c_net and B = b_c_net.
        """
        w = self.controller_weight
        cross = w @ self.b_c_net
        wa = w @ self.a_c_net
        top = np.hstack([0.5 * self.q_blk, 0.5 * cross.conj().T])
        bot = np.hstack([0.5 * cross, 0.5 * (wa + wa.conj().T)])
        return np.vstack([top, bot])


def _block_diag(blocks):
    """Block-diagonal matrix of 2-D blocks in their result dtype, as
    scipy.linalg.block_diag builds it."""
    rows, cols = np.cumsum([(0, 0)] + [b.shape for b in blocks], axis=0).T
    out = np.zeros((rows[-1], cols[-1]), dtype=np.result_type(*blocks))
    for b, r, c in zip(blocks, rows, cols):
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
    return out


def assemble(net):
    """Build the ClosedLoopDescription of a Network.

    The only code that reads net.controllers and net.coupling to close the
    loop B x = K C x - sum_c S_c (C_c x_c + D_c S_c^T C x): it folds D_c
    into the constraint rows and records the controller dynamics
    d/dt x_c = A_c x_c + B_c S_c^T W_C tau.  Raises PHStructuralError on
    port-dimension mismatches, a controller attached to a nonexistent /
    doubly-used port row, or an external port on a missing or controller row.
    """
    p = net.total_ports
    if len(net.coupling) != len(net.controllers):
        raise PHStructuralError("need one coupling entry per controller (%d controllers, "
                                "%d coupling entries)" % (len(net.controllers), len(net.coupling)))
    k = net.k_mat if net.k_mat is not None else np.zeros((p, p))
    if k.shape != (p, p):
        raise PHStructuralError("k_mat has shape %s, expected (%d, %d)" % (k.shape, p, p))

    w_b_blk = _block_diag([s.w_b for s in net.subsystems])
    w_c_blk = _block_diag([s.w_c for s in net.subsystems])
    q_blk = _block_diag([flux_form(s) for s in net.subsystems])

    dtype = np.result_type(float, w_b_blk, w_c_blk, k, *(
        m for c in net.controllers for m in (c.a_c, c.b_c, c.c_c, c.d_c, c.state_weight)))
    w_b_net = (w_b_blk - k @ w_c_blk).astype(dtype)
    n_c = net.n_controller_states
    c_c_net = np.zeros((p, n_c), dtype=dtype)
    weight = np.zeros((n_c, n_c), dtype=dtype)
    a_c_net = np.zeros((n_c, n_c), dtype=dtype)
    b_c_net = np.zeros((n_c, w_c_blk.shape[1]), dtype=dtype)

    used = set()
    col = 0
    for c, ports in zip(net.controllers, net.coupling):
        if len(ports) != c.n_port:
            raise PHStructuralError("controller with %d ports attached to %d rows"
                                    % (c.n_port, len(ports)))
        for r in ports:
            if not (0 <= r < p):
                raise PHStructuralError("controller attached to nonexistent port row %d" % r)
            if r in used:
                raise PHStructuralError("port row %d mapped by more than one controller" % r)
            used.add(r)
        rows = list(ports)
        sl = slice(col, col + c.n_state)
        w_b_net[rows] += c.d_c @ w_c_blk[rows]
        c_c_net[rows, sl] = c.c_c
        a_c_net[sl, sl] = c.a_c
        b_c_net[sl] = c.b_c @ w_c_blk[rows]
        weight[sl, sl] = c.state_weight
        col += c.n_state

    for r in net.external_ports:
        if not (0 <= r < p):
            raise PHStructuralError("external port on nonexistent port row %d" % r)
        if r in used:
            raise PHStructuralError("external port on controller port row %d" % r)
    kept = np.array([r for r in range(p) if r not in set(net.external_ports)], dtype=int)
    return ClosedLoopDescription(
        w_b_net=w_b_net[kept], c_c_net=c_c_net[kept], q_blk=q_blk,
        controller_weight=weight, a_c_net=a_c_net, b_c_net=b_c_net, kept_rows=kept)


@dataclass(frozen=True)
class SerialStructure:
    """Subsystem ordering under which each subsystem takes its coupling rows
    with earlier subsystems at one end of its interval."""

    ordering: tuple


@dataclass(frozen=True)
class NotSerial:
    """Witness that no serial ordering exists: the sorted subsystems left
    when none of them can go last among them."""

    cycle: tuple


def _nonzero(a):
    """Mask of the entries above 1e-12 * max(1, largest entry)."""
    mag = np.abs(a)
    return mag > 1e-12 * max(1.0, mag.max(initial=0.0))


def detect_serial_structure(net):
    """Serial structure of the closed loop assemble(net).

    A constraint row touches the trace components where w_b_net is
    nonzero, and through a controller's states (c_c_net) every trace that
    controller reads (b_c_net).  A row touching two or more subsystems is a
    coupling row; one touching a single subsystem is its own closure.  The
    first N_j d_j trace components of subsystem j are its z = 1 end, the
    last N_j d_j its z = 0 end.  An ordering is serial when the coupling
    rows for which a subsystem comes last touch it only at its z = 1 end or
    only at its z = 0 end.  Peeling from the back, the highest-index
    subsystem that can go last goes last; one that can go last in a set can
    in every subset, so the peel finds an ordering whenever one exists.
    Returns SerialStructure, or NotSerial with the subsystems left.
    """
    loop = assemble(net)
    touched = _nonzero(loop.w_b_net)
    drives, reads = _nonzero(loop.c_c_net), _nonzero(loop.b_c_net)
    col = 0
    for c in net.controllers:
        sl = slice(col, col + c.n_state)
        touched[drives[:, sl].any(axis=1)] |= reads[sl].any(axis=0)
        col += c.n_state
    # ends[r, j]: 1 if row r touches subsystem j's z = 1 half, + 2 its z = 0 half
    bounds = np.cumsum([0] + [s.trace_dim for s in net.subsystems])
    halves = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = (lo + hi) // 2
        halves.append(touched[:, lo:mid].any(axis=1) + 2 * touched[:, mid:hi].any(axis=1))
    ends = np.stack(halves, axis=1)
    ends = ends[(ends > 0).sum(axis=1) > 1]
    alive = np.ones(len(net.subsystems), dtype=bool)
    order = []
    while alive.any():
        inside = ends[~ends[:, ~alive].any(axis=1)]     # rows among the subsystems left
        last = [j for j in np.flatnonzero(alive) if np.bitwise_or.reduce(inside[:, j]) != 3]
        if not last:
            return NotSerial(cycle=tuple(np.flatnonzero(alive).tolist()))
        alive[last[-1]] = False
        order.append(int(last[-1]))
    return SerialStructure(ordering=tuple(order[::-1]))
