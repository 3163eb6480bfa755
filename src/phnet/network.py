"""Closed-loop networks of port-Hamiltonian subsystems and linear controllers.

The network couples the stacked boundary maps through

    B x = K C x - sum_c S_c (C_c x_c + D_c S_c^T C x),
    d/dt x_c = A_c x_c + B_c S_c^T C x,

where K is the global interconnection matrix on stacked outputs and S_c
embeds controller c's ports into the stacked port space.  Assembly
produces constraint rows on (tau, x_c); dissipativity of the closed loop
is certified by restricting the aggregate flux + controller supply form
to the constraint null space.  Dissipative <=> contraction semigroup, by
the generation theorems the certificates realize.
"""

import graphlib
import heapq

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass

from .model import REL_TOL, PHStructuralError, _as_matrix, flux_form
from .passivity import _certificate, _psd_verdict, _tol_for, null_basis


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
    (external inputs u-hat, recorded but not driven).  serial_blocks may
    carry a user-declared block reformulation for serial detection.
    """

    subsystems: tuple
    controllers: tuple = ()
    k_mat: np.ndarray = None
    coupling: tuple = ()
    external_ports: tuple = ()
    serial_blocks: object = None
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


def assemble(net):
    """Build the ClosedLoopDescription of a Network.

    The only code that reads net.controllers and net.coupling to close the
    loop B x = K C x - sum_c S_c (C_c x_c + D_c S_c^T C x): it folds D_c
    into the constraint rows and records the controller dynamics
    d/dt x_c = A_c x_c + B_c S_c^T W_C tau.  Raises PHStructuralError on
    port-dimension mismatches, a controller attached to a nonexistent /
    doubly-used port row, or an external port that names no port row.
    """
    p = net.total_ports
    if len(net.coupling) != len(net.controllers):
        raise PHStructuralError("need one coupling entry per controller (%d controllers, "
                                "%d coupling entries)" % (len(net.controllers), len(net.coupling)))
    k = net.k_mat if net.k_mat is not None else np.zeros((p, p))
    if k.shape != (p, p):
        raise PHStructuralError("k_mat has shape %s, expected (%d, %d)" % (k.shape, p, p))

    w_b_blk = sla.block_diag(*[s.w_b for s in net.subsystems])
    w_c_blk = sla.block_diag(*[s.w_c for s in net.subsystems])
    q_blk = sla.block_diag(*[flux_form(s) for s in net.subsystems])

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
    kept = np.array([r for r in range(p) if r not in set(net.external_ports)], dtype=int)
    return ClosedLoopDescription(
        w_b_net=w_b_net[kept], c_c_net=c_c_net[kept], q_blk=q_blk,
        controller_weight=weight, a_c_net=a_c_net, b_c_net=b_c_net, kept_rows=kept)


def check_controller_passive(controller):
    """Impedance passivity certificate for a Controller.

    Tests the Hermitian supply-defect block matrix on (x_c, u_c); the
    certificate detail also reports strict input passivity: the largest
    kappa with defect <= -kappa * diag(0, Pi), Pi the orthogonal projector
    onto range(D_c*), and whether ker D_c is contained in ker B_c (the
    structural condition a strictly input passive loop needs).  Both use
    Z = null_basis(D_c), a basis of ker D_c: Pi = I - Z Z*, and
    ker D_c subset ker B_c iff B_c Z = 0 to REL_TOL.
    """
    defect = controller.supply_defect()
    tol = _tol_for(defect)
    cert = _psd_verdict(-defect, "controller", tol,
                        detail="-(supply defect) on (x_c, u_c)")
    z = null_basis(controller.d_c)
    pi = np.eye(controller.n_port) - z @ z.conj().T
    pi_hat = np.zeros_like(defect)
    n = controller.n_state
    pi_hat[n:, n:] = pi
    kappa = 0.0
    if cert.passed and np.abs(pi).max() > 0:
        lo, hi = 0.0, float(np.abs(defect).max() + 1.0)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok = np.linalg.eigvalsh(0.5 * ((defect + mid * pi_hat)
                                           + (defect + mid * pi_hat).conj().T)).max() <= tol
            lo, hi = (mid, hi) if ok else (lo, mid)
        kappa = lo
    kernel_ok = bool(np.abs(controller.b_c @ z).max(initial=0.0)
                     <= REL_TOL * max(1.0, np.abs(controller.b_c).max()))
    cert.detail += ("; strict input passivity margin kappa = %.3e; "
                    "ker D_c subset ker B_c: %s" % (kappa, kernel_ok))
    return cert


def constraint_projector(net):
    """Orthogonal projector onto the constraint null space on (tau, x_c)."""
    closed = assemble(net)
    z = null_basis(closed.constraint_matrix())
    return z @ z.conj().T


def certify_network_dissipative(net):
    """Generation certificate for the closed-loop network operator.

    Pass iff the aggregate flux + controller supply form restricted to the
    constraint null space is negative semi-definite and every spatially
    varying P_0 has pointwise Sym P_0 <= 0.  Pass implies the closed loop
    generates a contraction semigroup.  Networks with external_ports leave
    those rows unconstrained, so an open port that can carry power in makes
    the certificate fail (the open-loop system is only passive, not
    dissipative).
    """
    closed = assemble(net)
    form = closed.energy_form()
    return _certificate(
        "network", [("subsystem %d: " % j, s) for j, s in enumerate(net.subsystems)],
        -form, _tol_for(form),
        "-(flux + controller supply) on the constraint null space",
        basis=null_basis(closed.constraint_matrix()))


@dataclass(frozen=True)
class SerialStructure:
    """Block ordering under which the interconnection is strictly lower triangular."""

    ordering: tuple
    k_blocks: tuple

    def permuted_blocks(self):
        m = len(self.ordering)
        return [[self.k_blocks[self.ordering[i]][self.ordering[j]] for j in range(m)]
                for i in range(m)]


@dataclass(frozen=True)
class NotSerial:
    """Witness that no serial ordering exists: a dependency cycle of block indices."""

    cycle: tuple


def _block_nonzero(blk, tol):
    return blk is not None and np.asarray(blk).size > 0 and np.abs(blk).max() > tol


def detect_serial_structure_blocks(blocks):
    """Serial detection on an m x m nested list of (possibly rectangular) blocks.

    blocks[j][i] maps cluster i's outputs into cluster j's input rows; a
    block is zero when no entry exceeds 1e-12 * max(1, largest entry).
    Returns SerialStructure with an ordering under which the permuted block
    matrix is strictly lower triangular, or NotSerial with a cycle witness.
    Ties in the topological order break by ascending block index.
    """
    m = len(blocks)
    mx = max([np.abs(b).max() for row in blocks for b in row
              if b is not None and np.asarray(b).size], default=0.0)
    tol = 1e-12 * max(1.0, mx)
    for i in range(m):
        if _block_nonzero(blocks[i][i], tol):
            return NotSerial(cycle=(i,))
    # j depends on i's output iff block (j, i) is nonzero
    sorter = graphlib.TopologicalSorter(
        {j: [i for i in range(m) if i != j and _block_nonzero(blocks[j][i], tol)]
         for j in range(m)})
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:       # args[1] is a closed path [a, ..., a]
        return NotSerial(cycle=tuple(exc.args[1][:-1]))
    ready = list(sorter.get_ready())
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        sorter.done(i)
        for j in sorter.get_ready():
            heapq.heappush(ready, j)
    # every nonzero block is an edge, so the topological order leaves the
    # permuted block matrix strictly lower triangular
    return SerialStructure(ordering=tuple(order),
                           k_blocks=tuple(tuple(row) for row in blocks))


def detect_serial_structure(net):
    """Serial detection for a Network.

    Uses the network's user-declared serial_blocks reformulation when
    present; otherwise partitions k_mat into per-subsystem port blocks.
    """
    if net.serial_blocks is not None:
        return detect_serial_structure_blocks(net.serial_blocks)
    p = net.total_ports
    k = net.k_mat if net.k_mat is not None else np.zeros((p, p))
    offs = list(net.port_offsets) + [p]
    m = len(net.subsystems)
    blocks = [[k[offs[j]:offs[j + 1], offs[i]:offs[i + 1]] for i in range(m)]
              for j in range(m)]
    return detect_serial_structure_blocks(blocks)
