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

from .model import PHStructuralError, coercivity
from .network import _block_diag, assemble
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

    l    : discrete port-Hamiltonian operator on the nd sample vector of x
    mass : M, the quadrature Gram of the energy inner product <f, H g>, as
           its (n, d, d) stack of node blocks quad_i H(z_i)
    t    : trace extraction rows, tau(Hx) = t @ samples
    """

    l: np.ndarray
    mass: np.ndarray
    t: np.ndarray
    grid: SubsystemGrid


def discretize_subsystem(subsystem, n):
    """Collocate one subsystem on n Gauss-Lobatto points.

    Samples are node-major (entry i d + a is component a at z_i), and every
    operator follows from the nodal stacks H(z_i), P_0(z_i) and the powers
    D^k of the differentiation matrix: L as an (n, d, n, d) array

        L[i,a,j,c] = sum_k D^k[i,j] (P_k H(z_j))[a,c] + delta_ij (P_0 H)(z_i)[a,c],

    and M, block diagonal, as its node blocks mass[i] = quad_i H(z_i);
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
    nd = n * s.dim
    if nd * nd * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise PHStructuralError("n = %d too large: numpy cannot size the %d x %d operator"
                                % (n, nd, nd))
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

    dk, ends = np.eye(n), []
    for pk in s.p_matrices[1:]:
        ends.append(np.einsum("ej,jac->eajc", dk[[-1, 0]], h_vals))
        dk = grid.diff @ dk
        l4 += np.einsum("ij,jac->iajc", dk, pk @ h_vals)
    return SubsystemOperators(l=l4.reshape(nd, nd), mass=grid.quad[:, None, None] * h_vals,
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
    subsystem's traces, split_traces cuts them per subsystem (the one trace
    extractor), and lift_state(v) = W^{-1} z_y v maps v back to samples.
    meta holds the constraint rows, constraint_residual = max |G lift| and
    sym_drift = max eig of Sym s_red.

    Built on first use: the companion (a coarser resolution, for the
    two-grid eigenvalue filter) and the eigenvalues of s_red.  The dense
    views lift (= lift_state(I)) and m_full, m_red (= I) and sim_operator()
    (= s_red) serve the benchmark oracles and the view tests only.  On the
    ten-string chain at n = 48 (n_red 940) W takes 0.015 MB where lift and
    m_full would take 14.6 MB; on thirty strings (n_red 2820), 0.05 against
    131 MB.
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

    def lift_state(self, v):
        """x = lift v = W^{-1} z_y v for v of leading dimension n_red, project's
        mirror: z_y v is kernel @ v[:k] on the touched columns and v[k:] on the
        free ones, and W^{-1} acts node by node, so no row of lift is formed."""
        v = np.asarray(v)
        if v.shape[:1] != (self.n_red,):
            raise ValueError("v has shape %s, expected (%d, ...)" % (v.shape, self.n_red))
        k, cols = self.kernel.shape[1], v.reshape(self.n_red, -1)
        x = np.empty((self.n_full, cols.shape[1]), dtype=np.result_type(v, self.s_red))
        x[self.touched], x[self.free] = self.kernel @ cols[:k], cols[k:]
        x = _by_nodes([(sl, np.linalg.inv(b)) for sl, b in self.w], x)
        return x.reshape((self.n_full,) + v.shape[1:])

    @cached_property
    def lift(self):
        """W^{-1} z_y, dense and read-only: lift_state of the identity."""
        lift = self.lift_state(np.eye(self.n_red, dtype=self.s_red.dtype))
        lift.setflags(write=False)
        return lift

    @cached_property
    def m_full(self):
        """The block-diagonal M as a dense read-only array, built on first request
        by placing its node blocks quad_i H(z_i) and the controller weight."""
        m_full = np.zeros((self.n_full, self.n_full), dtype=self.s_red.dtype)
        for s, grid, sl in zip(self.net.subsystems, self.grids, self.sample_slices):
            rows = np.arange(sl.start, sl.stop).reshape(grid.n, -1, 1)   # node i, entry a
            m_full[rows, rows.mT] = grid.quad[:, None, None] * s.hamiltonian(grid.points)
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
        """M-orthogonal projection of x_full, of shape (n_full,); returns (v, rel residual).

        v = lift* M x = z_y* W^{-*} W* W x = z_y* u with u = W x, one pass
        over the nodes: kernel* u on the touched columns, u itself on the
        free ones.  The residual is measured in the W norm, |W (x - lift v)|
        / |W x| = |u[touched] - kernel v_kernel| / |u|, as the free part of
        u - z_y v is exactly 0.  v agrees with the dense formula lift* (M x)
        within 5e-16 relative on the built-in scenarios and 1e-15 on random
        passive networks.
        """
        x_full = np.asarray(x_full)
        if x_full.shape != (self.n_full,):
            raise ValueError("x_full has shape %s, expected (%d,)" % (x_full.shape, self.n_full))
        u = _by_nodes(self.w, x_full.astype(np.result_type(x_full, self.s_red))[:, None])[:, 0]
        u_touched = u[self.touched]
        v_kernel = self.kernel.conj().T @ u_touched
        diff = u_touched - self.kernel @ v_kernel
        num = float(np.real(np.vdot(diff, diff)))
        den = max(float(np.real(np.vdot(u, u))), 1e-300)
        return np.concatenate([v_kernel, u[self.free]]), np.sqrt(num / den)

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


def assemble_generator(net, n_per_subsystem):
    """The DiscreteGenerator of the closed-loop network (_reduce) with its sym_drift;
    n_per_subsystem is an int (applied to every subsystem) or a list."""
    gen = _reduce(net, n_per_subsystem)
    gen.meta["sym_drift"] = float(np.linalg.eigvalsh(0.5 * (gen.s_red + gen.s_red.conj().T)).max())
    return gen


def _reduce(net, n_per_subsystem):
    """Energy-orthonormal reduction of the loop law of assemble(net).

    M is block diagonal, never formed dense (the subsystems' mass stacks
    quad_i H(z_i), the controller weight): M = W* W by Cholesky factors of
    its blocks' Hermitian parts.  G W^{-1}, G =
    [W_B T, C_c] the constraint rows, touches only trace nodes and controller
    states; z_y is null_basis of those columns and the identity elsewhere,
    lift = W^{-1} z_y and s_red = z_y* W L lift, L lift stacking L_j lift_j
    over A_c lift_c + B_c trace_map.  Subsystems meet only through ports, so
    both are formed one block of W at a time: block j's rows lift_j (n_j x
    n_red), formed here and nowhere else, give its rows t_j lift_j of
    trace_map and W_j L_j lift_j, whose free rows are rows of s_red as they
    stand and whose touched rows are gathered for the one product with the
    kernel; the controller block, which reads trace_map, comes last.  No
    n_full x n_red array is formed:
    on the ten-string chain at n = 48 (n_red 940) the tracemalloc peak is
    10.7 MB against 7.6 MB held after it, on thirty strings (n_red 2820)
    81.7 against 67.9 MB.  M's blocks and W^{-1} are not kept: the
    generator keeps W, the kernel and the column split.
    constraint_residual is max |w_b_net trace_map + c_c_net lift_c| = max
    |G lift|.  Raises PHStructuralError naming a subsystem that cannot be
    collocated, or the block of dependent rows.
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
    t_rows = np.cumsum([0] + [o.t.shape[0] for o in ops])
    t_stack = _block_diag([o.t for o in ops])
    mass = [(sl, o.mass) for o, sl in zip(ops, sample_slices)]
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
        raise PHStructuralError("constraint matrix rank deficient (sigma_min / sigma_max "
                                "%.2e); offending block: subsystem %d (port row %d)"
                                % (sv[-1] / sv[0] if len(sv) == g.shape[0] else 0.0, j, row))

    # one block of W at a time (the controller's last).  Its rows of lift are
    # the kernel on its touched columns and the identity on its free run
    # k + f0 : k + f1, then W_j^{-1} by nodes; the free columns follow in
    # sample order, so each subsystem's free coordinates are one contiguous
    # run of v, and the kernel coordinates lead the Cayley stepper's border.
    # Its free rows of W L lift go straight into s_red and its touched rows
    # into the product with the kernel, by np.take, whose mode "clip" writes
    # out without a buffer
    k = kernel.shape[1]
    s_red = np.empty((k + len(free), k + len(free)), dtype=dtype)
    trace_map = np.empty((t_stack.shape[0], s_red.shape[1]), dtype=dtype)
    w_lz_touched = np.empty((len(touched), s_red.shape[1]), dtype=dtype)
    bounds = np.append(offs, n_full)
    t_at, f_at = np.searchsorted(touched, bounds), np.searchsorted(free, bounds)
    for j, ((sl, w_j), (_, w_inv_j)) in enumerate(zip(w, w_inv)):
        (t0, t1), (f0, f1) = t_at[j:j + 2], f_at[j:j + 2]
        lift_j = np.zeros((sl.stop - sl.start, s_red.shape[1]), dtype=dtype)
        lift_j[touched[t0:t1] - sl.start, :k] = kernel[t0:t1]
        lift_j[free[f0:f1] - sl.start, k + np.arange(f0, f1)] = 1.0
        _by_nodes([(slice(None), w_inv_j)], lift_j)
        if j < len(ops):
            rows = slice(int(t_rows[j]), int(t_rows[j + 1]))
            trace_map[rows] = ops[j].t @ lift_j
            lz = np.zeros(lift_j.shape, dtype=dtype)
            cols = np.flatnonzero(lift_j.any(axis=0))        # the columns lift_j touches
            lz[:, cols] = ops[j].l @ lift_j[:, cols]
        else:
            lift_c = lift_j
            lz = closed.a_c_net @ lift_c + closed.b_c_net @ trace_map
        del lift_j                   # at most two n_j x n_red arrays live at once
        _by_nodes([(slice(None), w_j)], lz)
        np.take(lz, touched[t0:t1] - sl.start, axis=0, out=w_lz_touched[t0:t1], mode="clip")
        np.take(lz, free[f0:f1] - sl.start, axis=0, out=s_red[k + f0:k + f1], mode="clip")
        del lz
    s_red[:k] = kernel.conj().T @ w_lz_touched
    residual = closed.w_b_net @ trace_map + closed.c_c_net @ lift_c     # G lift
    return DiscreteGenerator(
        s_red=s_red, trace_map=trace_map,
        w=w, kernel=kernel, touched=touched, free=free,
        sample_slices=sample_slices, controller_slice=controller_slice,
        grids=[o.grid for o in ops], net=net,
        meta={"constraint": g,
              "constraint_residual": float(np.abs(residual).max()) if g.size else 0.0})

