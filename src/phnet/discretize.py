"""Energy-consistent spectral collocation of subsystems and network reduction.

Each subsystem is collocated on n Legendre-Gauss-Lobatto points mapped to
(0, 1).  LGL quadrature is exact to degree 2n - 3, so the weight/derivative
pair satisfies summation by parts exactly and the discrete energy rate

    Re x* M L x = 1/2 tau* Q tau + sum_i w_i Re <P_0(z_i) y_i, y_i>

is a matrix identity up to rounding.  The closed-loop generator is reduced
onto an energy-orthonormal constraint null space basis, so certified-
dissipative networks keep a nonpositive discrete field of values in the
energy frame (recorded per run as sym_drift).
"""

import numpy as np
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numpy.polynomial import legendre as npleg

from .model import PHStructuralError, coercivity, flux_form
from .network import assemble
from .passivity import null_basis

GRID_CACHE_SIZE = 64


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


@lru_cache(maxsize=GRID_CACHE_SIZE)
def make_grid(n):
    """SubsystemGrid of n Gauss-Lobatto points mapped to (0, 1).

    Memoised (the last GRID_CACHE_SIZE resolutions): every subsystem of a
    reduction and of its companion shares the one read-only grid per n.
    """
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
    """The constrained network generator dv/dt = s_red v in the energy frame.

    The reduction is stored factored.  M (= m_full) is block diagonal with
    one block per node and one for the controller states; w holds their
    upper Cholesky factors (M = W* W) as (slice, (k, b, b) stack) pairs, the
    one stored form of the energy weight.  kernel (z_y on the touched
    columns, the trace nodes and controller states that the constraint rows
    reach), touched and free (the other columns, in order) give the
    constraint null space basis lift = W^{-1} z_y, which is
    energy-orthonormal, lift* M lift = I: x = lift v has energy 1/2 |v|^2,
    and s_red = lift* M L lift (L the closed loop, never formed) has the
    energy norm as its Euclidean norm.  trace_map @ v stacks every
    subsystem's traces.  meta holds the constraint rows,
    constraint_residual = max |G lift| and sym_drift = max eig of Sym s_red.

    Built on first use: the companion (a coarser resolution, for the
    two-grid eigenvalue filter), the eigenvalues of s_red, and the dense
    lift (n_full x n_red) and m_full (n_full x n_full), read-only views for
    tests, demos and the benchmark oracles; the library never reads the
    two.  On the ten-string chain at n = 48 (n_full 960, n_red 940) W takes
    0.015 MB where the two views would take 14.6 MB; on thirty strings
    (n_full 2880, n_red 2820), 0.05 MB against 131 MB.  m_red (= I) and
    sim_operator() (= s_red) serve the benchmark oracles only.
    """

    s_red: np.ndarray
    trace_map: np.ndarray
    w: list
    kernel: np.ndarray
    touched: np.ndarray
    free: np.ndarray
    sample_slices: list
    controller_slice: slice
    grids: list
    net: object
    meta: dict = field(default_factory=dict)

    @property
    def n_red(self):
        return self.s_red.shape[0]

    @property
    def n_full(self):
        return self.controller_slice.stop

    @cached_property
    def lift(self):
        """W^{-1} z_y as a dense read-only array, built on first request."""
        w_inv = [(sl, np.linalg.inv(b)) for sl, b in self.w]
        lift = _lift(self.n_full, self.kernel, self.touched, self.free, w_inv, self.s_red.dtype)
        lift.setflags(write=False)
        return lift

    @cached_property
    def m_full(self):
        """The block-diagonal M as a dense read-only array, built on first request
        from each subsystem's collocated M and the controller weight."""
        m_full = np.zeros((self.n_full, self.n_full), dtype=self.s_red.dtype)
        for s, grid, sl in zip(self.net.subsystems, self.grids, self.sample_slices):
            m_full[sl, sl] = discretize_subsystem(s, grid.n).m
        m_full[self.controller_slice, self.controller_slice] = assemble(self.net).controller_weight
        m_full.setflags(write=False)
        return m_full

    @property
    def m_red(self):
        return np.eye(self.n_red, dtype=self.s_red.dtype)

    def sim_operator(self):
        return self.s_red

    @cached_property
    def companion(self):
        """The same network reduced at about 0.8 n per subsystem (at least
        4N + 6 points; n + 4 where that floor is n itself), no sym_drift."""
        n_comp = []
        for s, grid in zip(self.net.subsystems, self.grids):
            nc = max(4 * s.order + 6, int(round(0.8 * grid.n)))
            n_comp.append(grid.n + 4 if nc == grid.n else nc)
        return _reduce(self.net, n_comp)

    @cached_property
    def eigenvalues(self):
        """eigvals of s_red, computed once: spectrum reads them for the
        generator and its companion, asp_diagnostic for the companion."""
        vals = np.linalg.eigvals(self.s_red)
        vals.setflags(write=False)
        return vals

    def project(self, x_full):
        """M-orthogonal projection of a full sample vector; returns (v, rel residual).

        v = lift* M x = z_y* W^{-*} W* W x = z_y* u with u = W x, one pass
        over the nodes: kernel* u on the touched columns, u itself on the
        free ones.  The residual is measured in the W norm, |W (x - lift v)|
        / |W x| = |u[touched] - kernel v_kernel| / |u|, as the free part of
        u - z_y v is exactly 0.  v agrees with the dense formula lift* (M x)
        within 5e-16 relative on the built-in scenarios and 1e-15 on random
        passive networks.
        """
        x_full = np.asarray(x_full)
        x = np.array(x_full, dtype=np.result_type(x_full, self.s_red)).reshape(-1, 1)
        u = _by_nodes(self.w, x)[:, 0]
        u_touched = u[self.touched]
        v_kernel = self.kernel.conj().T @ u_touched
        diff = u_touched - self.kernel @ v_kernel
        num = float(np.real(np.vdot(diff, diff)))
        den = max(float(np.real(np.vdot(u, u))), 1e-300)
        return np.concatenate([v_kernel, u[self.free]]), np.sqrt(num / den)

    def traces(self, v):
        """Per-subsystem boundary traces tau_j(Hx) of a reduced state."""
        return self.split_traces(self.trace_map @ np.asarray(v))

    def split_traces(self, tau):
        """Per-subsystem blocks of stacked traces (last axis)."""
        ends = np.cumsum([s.trace_dim for s in self.net.subsystems])
        return np.split(tau, ends[:-1], axis=-1)


def _by_nodes(blocks, x):
    """x <- blkdiag(blocks) x in place, blocks a list of (row slice, (k, b, b) stack)."""
    for sl, b in blocks:
        xs = x[sl]
        x[sl] = (b @ xs.reshape(*b.shape[:2], x.shape[1])).reshape(xs.shape)
    return x


def _lift(n_full, kernel, touched, free, w_inv, dtype):
    """lift = W^{-1} z_y, z_y the kernel on the touched columns and the identity
    on the free ones; kernel columns first, where they are the Cayley
    stepper's border: last, they grow the pivots of a dense LU of I - dt/2
    s_red."""
    lift = np.zeros((n_full, kernel.shape[1] + len(free)), dtype=dtype)
    lift[touched, :kernel.shape[1]] = kernel
    lift[free, kernel.shape[1] + np.arange(len(free))] = 1.0
    return _by_nodes(w_inv, lift)


def assemble_generator(net, n_per_subsystem):
    """The DiscreteGenerator of the closed-loop network (_reduce) with its sym_drift;
    n_per_subsystem is an int (applied to every subsystem) or a list."""
    gen = _reduce(net, n_per_subsystem)
    gen.meta["sym_drift"] = float(np.linalg.eigvalsh(0.5 * (gen.s_red + gen.s_red.conj().T)).max())
    return gen


def _reduce(net, n_per_subsystem):
    """Energy-orthonormal reduction of the loop law of assemble(net).

    M is block diagonal (quad_i H(z_i) per node, the controller weight): M =
    W* W by Cholesky factors of its blocks' Hermitian parts.  G W^{-1}, G =
    [W_B T, C_c] the constraint rows, touches only trace nodes and controller
    states; z_y is null_basis of those columns and the identity elsewhere,
    lift = W^{-1} z_y and s_red = z_y* W L lift, L lift stacking L_j lift_j
    over A_c lift_c + B_c trace_map.  M's blocks, W^{-1}, the dense lift
    and L lift live only here; the generator keeps W, the kernel and the
    column split.  Raises PHStructuralError naming a subsystem that cannot
    be collocated, or the block of dependent rows.
    """
    n_list = ([int(n_per_subsystem)] * len(net.subsystems) if np.isscalar(n_per_subsystem)
              else [int(n) for n in n_per_subsystem])
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
    t_stack = np.zeros((sum(o.t.shape[0] for o in ops), n_pde), dtype=dtype)
    r, mass = 0, []
    for s, o, sl in zip(net.subsystems, ops, sample_slices):
        t_stack[r:r + o.t.shape[0], sl] = o.t
        r += o.t.shape[0]
        mass.append((sl, np.einsum("iaib->iab", o.m.reshape(o.grid.n, s.dim, o.grid.n, s.dim))))
    mass.append((controller_slice, closed.controller_weight[None]))
    try:
        w = [(sl, np.linalg.cholesky(0.5 * (b + b.conj().swapaxes(1, 2)), upper=True))
             for sl, b in mass]
    except np.linalg.LinAlgError:
        raise PHStructuralError("energy weight M not positive definite") from None
    w_inv = [(sl, np.linalg.inv(b)) for sl, b in w]

    # constraint rows on (samples, x_c); z_y spans the null space of G W^{-1}
    g = np.hstack([closed.w_b_net @ t_stack, closed.c_c_net])
    g_w = _by_nodes([(sl, b.swapaxes(1, 2)) for sl, b in w_inv], g.T.copy()).T
    touched, free = np.flatnonzero(g_w.any(axis=0)), np.flatnonzero(~g_w.any(axis=0))
    kernel = null_basis(g_w[:, touched])
    if kernel.shape[1] != len(touched) - g.shape[0]:
        # the smallest left singular vector names the dependent rows
        u, sv, _ = np.linalg.svd(g_w[:, touched])
        row = int(closed.kept_rows[np.argmax(np.abs(u[:, -1]))])
        j = int(np.searchsorted(net.port_offsets, row, side="right")) - 1
        raise PHStructuralError("constraint matrix rank deficient (smallest singular value "
                                "%.2e); offending block: subsystem %d (port row %d)"
                                % (sv[-1] if len(sv) == g.shape[0] else 0.0, j, row))

    lift = _lift(n_full, kernel, touched, free, w_inv, dtype)
    trace_map = t_stack @ lift[:n_pde]
    lz = np.zeros(lift.shape, dtype=dtype)
    for o, sl in zip(ops, sample_slices):
        cols = np.flatnonzero(lift[sl].any(axis=0))       # the columns lift_j touches
        lz[sl, cols] = o.l @ lift[sl, cols]
    lz[controller_slice] = closed.a_c_net @ lift[controller_slice] + closed.b_c_net @ trace_map
    w_lz = _by_nodes(w, lz)
    return DiscreteGenerator(
        s_red=np.vstack([kernel.conj().T @ w_lz[touched], w_lz[free]]), trace_map=trace_map,
        w=w, kernel=kernel, touched=touched, free=free,
        sample_slices=sample_slices, controller_slice=controller_slice,
        grids=[o.grid for o in ops], net=net,
        meta={"constraint": g,
              "constraint_residual": float(np.abs(g @ lift).max()) if g.size else 0.0})


def discrete_energy_rate(gen, v):
    """Re v* s_red v = dH/dt along dv/dt = s_red v: the energy balance's left side."""
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

