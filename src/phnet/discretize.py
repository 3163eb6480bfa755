"""Energy-consistent spectral collocation of subsystems and network reduction.

Each subsystem is collocated on n Legendre-Gauss-Lobatto points mapped to
(0, 1).  LGL quadrature is exact to degree 2n - 3, so the weight/derivative
pair satisfies summation by parts exactly and the discrete energy rate

    Re x* M L x = 1/2 tau* Q tau + sum_i w_i Re <P_0(z_i) y_i, y_i>

is a matrix identity up to rounding.  The closed-loop generator is reduced
by projecting onto the constraint null space in the energy inner product,
so certified-dissipative networks keep a nonpositive discrete field of
values (recorded per run as sym_drift).
"""

import numpy as np
from dataclasses import dataclass, field
from functools import cached_property
from numpy.polynomial import legendre as npleg

from .model import PHStructuralError, coercivity, flux_form
from .network import assemble
from .passivity import null_basis


@dataclass(frozen=True)
class SubsystemGrid:
    """Collocation grid on (0, 1): nodes, differentiation matrix, quadrature."""

    n: int
    points: np.ndarray
    diff: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        for name in ("points", "diff", "quad"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _lgl_nodes_weights(n):
    """Legendre-Gauss-Lobatto nodes and weights on [-1, 1]."""
    if n < 2:
        raise PHStructuralError("grid needs at least 2 points")
    c = np.zeros(n)
    c[-1] = 1.0                      # P_{n-1}
    interior = npleg.legroots(npleg.legder(c))
    x = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    w = 2.0 / (n * (n - 1) * npleg.legval(x, c) ** 2)
    return x, w


def _barycentric_diffmat(x):
    n = len(x)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    b = 1.0 / np.prod(dx, axis=1)
    d = (b[None, :] / b[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def make_grid(n):
    """SubsystemGrid of n Gauss-Lobatto points mapped to (0, 1)."""
    x, w = _lgl_nodes_weights(n)
    pts = 0.5 * (x + 1.0)
    d = 2.0 * _barycentric_diffmat(x)   # chain rule for the map to (0, 1)
    return SubsystemGrid(n=n, points=pts, diff=d, quad=0.5 * w)


@dataclass
class SubsystemOperators:
    """Collocated (L, M, T) of one subsystem on its grid.

    l : discrete port-Hamiltonian operator on the nd sample vector of x
    m : quadrature Gram of the energy inner product <f, H g>
    t : trace extraction rows, tau(Hx) = t @ samples
    """

    l: np.ndarray
    m: np.ndarray
    t: np.ndarray
    grid: SubsystemGrid


def discretize_subsystem(subsystem, n):
    """Collocate one subsystem on n Gauss-Lobatto points.

    Samples are node-major (entry i d + a is component a at z_i), and every
    operator follows from the nodal stacks H(z_i), P_0(z_i) and the powers
    D^k of the differentiation matrix, as (n, d, n, d) arrays

        L[i,a,j,c] = sum_k D^k[i,j] (P_k H(z_j))[a,c] + delta_ij (P_0 H)(z_i)[a,c],
        M[i,a,j,c] = delta_ij quad_i H(z_i)[a,c];

    the trace rows y^(k)(1), then y^(k)(0) (y = Hx, k < N) are rows n - 1
    and 0 of D^k times the H stack.  Needs n >= 4N + 4, so that the trace
    derivatives to order N - 1 and the operator are resolved, and an H
    coercive at the nodes by model.coercivity (every eigenvalue exceeds
    REL_TOL times the largest modulus): a vanishing or indefinite H leaves
    the energy and the traces degenerate.
    """
    s = subsystem
    if n < 4 * s.order + 4:
        raise PHStructuralError("n = %d too small for order %d (need >= %d)"
                                % (n, s.order, 4 * s.order + 4))
    grid = make_grid(n)
    h_vals = s.hamiltonian(grid.points)
    coercive, least, largest = coercivity(h_vals)
    if not coercive:
        raise PHStructuralError("H numerically singular at the collocation nodes, or "
                                "indefinite (smallest eigenvalue %.2e, largest |eigenvalue| "
                                "%.2e)" % (least, largest))
    nodes, shape = np.arange(n), (n, s.dim, n, s.dim)
    p0h = [] if s.p0 is None else [s.p0(grid.points) @ h_vals]
    l4 = np.zeros(shape, dtype=np.result_type(float, h_vals, *p0h, *s.p_matrices[1:]))
    if p0h:
        l4[nodes, :, nodes, :] = p0h[0]
    m4 = np.zeros(shape, dtype=h_vals.dtype)
    m4[nodes, :, nodes, :] = grid.quad[:, None, None] * h_vals

    dk, ends = np.eye(n), []
    for pk in s.p_matrices[1:]:
        ends.append(np.einsum("ej,jac->eajc", dk[[-1, 0]], h_vals))
        dk = grid.diff @ dk
        l4 += np.einsum("ij,jac->iajc", dk, pk @ h_vals)
    nd = n * s.dim
    return SubsystemOperators(l=l4.reshape(nd, nd), m=m4.reshape(nd, nd),
                              t=np.stack(ends, axis=1).reshape(-1, nd), grid=grid)


@dataclass
class DiscreteGenerator:
    """Reduced pencil (m_red, s_red) of the constrained network generator.

    The generator is m_red dv/dt = s_red v, m_red = Z* M Z, s_red = Z* M L Z
    (Z = lift, an orthonormal basis of the discrete constraint null space
    over sample + controller coordinates, M = m_full, L the closed loop,
    never formed); trace_map @ v stacks the boundary traces of every
    subsystem.  meta holds the constraint rows, constraint_residual =
    max |G Z|, and the measured dissipativity defect sym_drift = max eig of
    Sym of the energy-frame operator.  The energy frame is the Cholesky
    factor m_red = L L^H (chol): sim_operator() = L^{-1} s_red L^{-H} has
    the generator's eigenvalues, and its Euclidean norm is the energy
    norm.  chol, the frame operator and the companion (the same network at
    a coarser resolution, for the two-grid eigenvalue filter) are derived
    on first use; chol raises PHStructuralError when m_red is not positive
    definite.
    """

    m_red: np.ndarray
    s_red: np.ndarray
    lift: np.ndarray
    m_full: np.ndarray
    trace_map: np.ndarray
    sample_slices: list
    controller_slice: slice
    grids: list
    net: object
    meta: dict = field(default_factory=dict)

    @property
    def n_red(self):
        return self.m_red.shape[0]

    @property
    def n_full(self):
        return self.lift.shape[0]

    @cached_property
    def chol(self):
        """Lower Cholesky factor L of m_red = L L^H: the energy frame."""
        try:
            return np.linalg.cholesky(self.m_red)
        except np.linalg.LinAlgError:
            raise PHStructuralError("m_red not positive definite (min eig %.3e)"
                                    % np.linalg.eigvalsh(self.m_red).min()) from None

    @cached_property
    def _sim(self):
        half = np.linalg.solve(self.chol, self.s_red)
        return np.linalg.solve(self.chol, half.conj().T).conj().T

    def sim_operator(self):
        """L^{-1} s_red L^{-H}: the generator in the energy frame, where the
        Euclidean norm is the energy norm (xi = L^H v)."""
        return self._sim

    @cached_property
    def companion(self):
        """The same network reduced at about 0.8 n per subsystem (at least
        4N + 6 points; n + 4 where that floor is n itself)."""
        n_comp = []
        for s, grid in zip(self.net.subsystems, self.grids):
            nc = max(4 * s.order + 6, int(round(0.8 * grid.n)))
            n_comp.append(grid.n + 4 if nc == grid.n else nc)
        return assemble_generator(self.net, n_comp)

    def project(self, x_full):
        """M-orthogonal projection of a full sample vector; returns (v, rel residual)."""
        x_full = np.asarray(x_full)
        rhs = self.lift.conj().T @ (self.m_full @ x_full)
        v = np.linalg.solve(self.m_red, rhs)
        back = self.lift @ v
        diff = x_full - back
        num = float(np.real(diff.conj() @ self.m_full @ diff))
        den = max(float(np.real(x_full.conj() @ self.m_full @ x_full)), 1e-300)
        return v, np.sqrt(max(num, 0.0) / den)

    def traces(self, v):
        """Per-subsystem boundary traces tau_j(Hx) of a reduced state."""
        return self.split_traces(self.trace_map @ np.asarray(v))

    def split_traces(self, tau):
        """Per-subsystem blocks of stacked traces (last axis)."""
        ends = np.cumsum([s.trace_dim for s in self.net.subsystems])
        return np.split(tau, ends[:-1], axis=-1)


def assemble_generator(net, n_per_subsystem):
    """Reduce the closed-loop network to a DiscreteGenerator.

    n_per_subsystem is an int (applied to every subsystem) or a list.
    The loop law comes from assemble(net) alone.  L Z is formed by blocks,
    L_j Z_j per subsystem over the controller law A_c Z_c + B_c trace_map,
    and Z* M once.  Raises PHStructuralError naming the subsystem when one
    cannot be collocated, and naming the offending block when the
    constraint matrix is rank deficient under null_basis's rank rule.
    """
    if np.isscalar(n_per_subsystem):
        n_list = [int(n_per_subsystem)] * len(net.subsystems)
    else:
        n_list = [int(n) for n in n_per_subsystem]
    if len(n_list) != len(net.subsystems):
        raise PHStructuralError("need one resolution per subsystem")

    closed = assemble(net)
    ops = []
    for j, (s, n) in enumerate(zip(net.subsystems, n_list)):
        try:
            ops.append(discretize_subsystem(s, n))
        except PHStructuralError as exc:
            raise PHStructuralError("subsystem %d: %s" % (j, exc)) from None

    offs = np.concatenate([[0], np.cumsum([o.l.shape[0] for o in ops])]).astype(int)
    n_pde = int(offs[-1])
    n_full = n_pde + closed.a_c_net.shape[0]
    sample_slices = [slice(int(offs[j]), int(offs[j + 1])) for j in range(len(ops))]
    controller_slice = slice(n_pde, n_full)

    # w_b_net carries the dtype of K, W_B, W_C and the controllers
    dtype = np.result_type(closed.w_b_net, *(o.l for o in ops))
    m_full = np.zeros((n_full, n_full), dtype=dtype)
    t_stack = np.zeros((sum(o.t.shape[0] for o in ops), n_pde), dtype=dtype)
    r = 0
    for o, sl in zip(ops, sample_slices):
        m_full[sl, sl] = o.m
        t_stack[r:r + o.t.shape[0], sl] = o.t
        r += o.t.shape[0]
    m_full[controller_slice, controller_slice] = closed.controller_weight

    # constraint rows on (samples, x_c); z spans their null space
    g = np.hstack([closed.w_b_net @ t_stack, closed.c_c_net])
    z = null_basis(g)
    if z.shape[1] != n_full - g.shape[0]:
        # the smallest left singular vector names the dependent rows
        u, sv, _ = np.linalg.svd(g)
        row = int(closed.kept_rows[np.argmax(np.abs(u[:, -1]))])
        j = int(np.searchsorted(net.port_offsets, row, side="right")) - 1
        raise PHStructuralError("constraint matrix rank deficient (smallest singular value "
                                "%.2e); offending block: subsystem %d (port row %d)"
                                % (sv.min(), j, row))

    trace_map = t_stack @ z[:n_pde]
    lz = np.vstack([o.l @ z[sl] for o, sl in zip(ops, sample_slices)]
                   + [closed.a_c_net @ z[controller_slice] + closed.b_c_net @ trace_map])
    zm = z.conj().T @ m_full
    m_red, s_red = zm @ z, zm @ lz
    del zm, lz      # two n_full x n_red temporaries, freed before the energy frame is built
    gen = DiscreteGenerator(
        m_red=m_red, s_red=s_red, lift=z, m_full=m_full, trace_map=trace_map,
        sample_slices=sample_slices, controller_slice=controller_slice,
        grids=[o.grid for o in ops], net=net,
        meta={"constraint": g,
              "constraint_residual": float(np.abs(g @ z).max()) if g.size else 0.0})
    sim = gen.sim_operator()
    gen.meta["sym_drift"] = float(np.linalg.eigvalsh(0.5 * (sim + sim.conj().T)).max())
    return gen


def discrete_energy_rate(gen, v):
    """Re v* s_red v = dH/dt along m_red dv/dt = s_red v: the energy balance's left side."""
    v = np.asarray(v)
    return float(np.real(v.conj() @ gen.s_red @ v))


def boundary_flux(gen, v):
    """1/2 sum_j tau_j* Q_j tau_j at the lifted state (no P_0 volume term)."""
    taus = gen.traces(v)
    total = 0.0
    for s, tau in zip(gen.net.subsystems, taus):
        q = flux_form(s)
        total += 0.5 * float(np.real(tau.conj() @ q @ tau))
    return total

