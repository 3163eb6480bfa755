"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's flux/certificate code
paths: energy rates are computed by Gauss quadrature of the defining
integrals on polynomial states, and chain eigenvalues come from a
transfer-matrix characteristic equation solved by secant iteration.
"""

import dataclasses

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import polynomial as npoly

from phnet import MatrixFunction, Network, PHSubsystem, discretize_subsystem, make_grid
from phnet.discretize import _by_nodes
from phnet.model import flux_matrix
from phnet.network import assemble
from phnet.passivity import null_basis

GAUSS_N = 64
_gx, _gw = np.polynomial.legendre.leggauss(GAUSS_N)
GAUSS_X = 0.5 * (_gx + 1.0)
GAUSS_W = 0.5 * _gw


def random_symmetry_pk(rng, k, dim, complex_ok=True):
    """Random P_k with P_k^* = (-1)^(k+1) P_k."""
    a = rng.standard_normal((dim, dim))
    if complex_ok:
        a = a + 1j * rng.standard_normal((dim, dim))
    if (-1) ** (k + 1) == 1:
        return 0.5 * (a + a.conj().T)
    return 0.5 * (a - a.conj().T)


def random_spd(rng, dim, spread=1.5):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(1.0 / spread, spread, dim)) @ q.T


def impedance_splitting(q):
    """(W_B, W_C) with Sym(W_C* W_B) = Q/2 exactly and [W_B; W_C] invertible.

    Pairs each positive flux eigenvector with a negative one: for the pair
    (lam_p, u_p), (lam_n, u_n) the rows

        b = lam_p/2 u_p* + lam_n/(2 t) u_n*,   c = u_p* + t u_n*,
        t = sqrt(-lam_n / lam_p)

    satisfy Re[(b tau) conj(c tau)] = (lam_p |u_p* tau|^2 + lam_n
    |u_n* tau|^2) / 2 with no cross term.
    """
    lam, u = np.linalg.eigh(q)
    pos = [i for i in range(len(lam)) if lam[i] > 0]
    neg = [i for i in range(len(lam)) if lam[i] <= 0]
    assert len(pos) == len(neg), "flux form signature is not (Nd, Nd)"
    rows_b, rows_c = [], []
    for ip, im in zip(pos, neg):
        lp, ln = lam[ip], lam[im]
        t = np.sqrt(-ln / lp)
        rows_b.append(0.5 * lp * u[:, ip].conj() + 0.5 * (ln / t) * u[:, im].conj())
        rows_c.append(u[:, ip].conj() + t * u[:, im].conj())
    return np.vstack(rows_b), np.vstack(rows_c)


def scattering_splitting(q):
    """(W_B, W_C) with |W_B tau|^2 - |W_C tau|^2 = tau* Q tau / 2 exactly."""
    lam, u = np.linalg.eigh(q)
    rows_b = [np.sqrt(lam[i] / 2.0) * u[:, i].conj() for i in range(len(lam)) if lam[i] > 0]
    rows_c = [np.sqrt(-lam[i] / 2.0) * u[:, i].conj() for i in range(len(lam)) if lam[i] <= 0]
    return np.vstack(rows_b), np.vstack(rows_c)


def random_passive_subsystem(rng, order=None, dim=None, varying_h=False,
                             with_p0=False, margin=0.0, complex_ok=False):
    """Impedance-passive subsystem with [W_B; W_C] invertible.

    Built from the paired eigen-splitting of the flux matrix, then mixed by
    a well-conditioned S (which preserves Sym(W_C* W_B) = Q/2) and
    optionally given a strictly passive margin R with Sym R >= 0.
    """
    order = order if order is not None else int(rng.integers(1, 3))
    dim = dim if dim is not None else int(rng.integers(1, 3))
    if order % 2 == 0 and not complex_ok and dim % 2 == 1:
        dim += 1    # a real skew P_N of odd dimension is always singular
    p_list = [None]
    for k in range(1, order + 1):
        pk = random_symmetry_pk(rng, k, dim, complex_ok)
        if k == order:
            for _ in range(50):
                if np.linalg.cond(pk) <= 1e4:
                    break
                pk = random_symmetry_pk(rng, k, dim, complex_ok)
        p_list.append(pk)
    if with_p0:
        g = rng.standard_normal((dim, dim))
        skew = rng.standard_normal((dim, dim))
        p_list[0] = MatrixFunction.constant(0.5 * (skew - skew.T) - g.T @ g)
    if varying_h:
        zs = np.linspace(0, 1, 33)
        base = random_spd(rng, dim)
        bump = random_spd(rng, dim)
        vals = np.array([base + 0.3 * np.sin(2.0 * z + 0.3) * bump for z in zs])
        ham = MatrixFunction.samples(vals)
    else:
        ham = MatrixFunction.constant(random_spd(rng, dim))

    w_b, w_c = impedance_splitting(flux_matrix(p_list))
    nd = order * dim
    mix = np.eye(nd) + 0.3 * rng.standard_normal((nd, nd))
    while np.linalg.cond(mix) > 50:
        mix = np.eye(nd) + 0.3 * rng.standard_normal((nd, nd))
    w_b = mix @ w_b
    w_c = np.linalg.inv(mix).conj().T @ w_c
    if margin > 0:
        g = rng.standard_normal((order * dim, order * dim))
        w_b = w_b + margin * (g.T @ g) @ w_c
    return PHSubsystem(order=order, dim=dim, p_matrices=tuple(p_list),
                       hamiltonian=ham, w_b=w_b, w_c=w_c)


def random_passive_controller(rng, n_state, n_port):
    """Impedance-passive controller w.r.t. a random positive definite weight.

    A_c = W^{-1} (skew - G^T G) gives Sym(W A_c) <= 0; C_c = (W B_c)* makes
    the supply cross term vanish; Sym D_c >= 0 adds feedthrough passivity.
    """
    from phnet import Controller
    w = random_spd(rng, n_state)
    skew = rng.standard_normal((n_state, n_state))
    g = rng.standard_normal((n_state, n_state))
    a_c = np.linalg.solve(w, 0.5 * (skew - skew.T) - g.T @ g)
    b_c = rng.standard_normal((n_state, n_port))
    c_c = (w @ b_c).conj().T
    d = rng.standard_normal((n_port, n_port))
    d_c = 0.5 * (d - d.T) + d.T @ d * 0.1
    return Controller(a_c=a_c, b_c=b_c, c_c=c_c, d_c=d_c, state_weight=w)


def random_passive_network(rng, n_subsystems, complex_ok=False, with_controller=False):
    """Random passive subsystems joined by a random K with Sym K <= 0; with
    a controller, one random passive controller takes a random subset of
    the ports out of K."""
    subs = tuple(random_passive_subsystem(rng, complex_ok=complex_ok)
                 for _ in range(n_subsystems))
    total = sum(s.port_dim for s in subs)
    k = random_nsd_k(rng, total)
    controllers, coupling = (), ()
    if with_controller:
        ports = tuple(rng.permutation(total)[:int(rng.integers(1, total + 1))].tolist())
        controllers = (random_passive_controller(rng, int(rng.integers(1, 4)), len(ports)),)
        coupling = (ports,)
        k[list(ports), :] = 0.0     # controller ports leave K
        k[:, list(ports)] = 0.0
    return Network(subsystems=subs, k_mat=k, controllers=controllers, coupling=coupling)


def complex_explicit_network():
    """Two random complex subsystems, a controller and one external port."""
    net = random_passive_network(np.random.default_rng(2), 2, True, True)
    used = set(net.coupling[0])
    row = min(r for r in range(sum(s.port_dim for s in net.subsystems)) if r not in used)
    return dataclasses.replace(net, external_ports=(row,))


def slowest_mode(gen, rep):
    """Real full-sample state of the slowest trusted mode rep.eigenvalues[0]:
    the nearest eig column v of gen.s_red, mapped back by the lift."""
    vals, v = np.linalg.eig(gen.s_red)
    return np.real(gen.lift @ v[:, np.argmin(np.abs(vals - rep.eigenvalues[0]))])


def random_constrained_state(gen, rng):
    """Reduced coordinates v of a random constrained state x = lift v: white
    noise in sample coordinates, projected orthogonally onto ker G.  The
    distribution of x is that of Z w, w white, for any Euclidean-orthonormal
    basis Z of ker G, so it does not depend on the reduction's basis."""
    g = gen.meta["constraint"]
    w = rng.standard_normal(gen.n_full)
    v, _ = gen.project(w - np.linalg.pinv(g) @ (g @ w))
    return v


def kron_collocation(subsystem, n):
    """Reference (L, M, T) of discretize_subsystem from block-diagonal and
    Kronecker matrices: L = (blkdiag P_0(z_i) + sum_k D^k kron P_k) blkdiag
    H(z_i), M = blkdiag quad_i H(z_i), and the trace rows taken from
    (D^k kron I) blkdiag H(z_i)."""
    s = subsystem
    grid = make_grid(n)
    d_dim = s.dim
    h_vals = s.hamiltonian(grid.points)
    h_blk = sla.block_diag(*h_vals)
    p0_vals = np.zeros((0, d_dim, d_dim)) if s.p0 is None else s.p0(grid.points)

    dk = np.eye(n)
    op = np.zeros((n * d_dim, n * d_dim),
                  dtype=np.result_type(float, h_vals, p0_vals, *s.p_matrices[1:]))
    if len(p0_vals):
        op += sla.block_diag(*p0_vals)
    for k in range(1, s.order + 1):
        dk = grid.diff @ dk
        op = op + np.kron(dk, s.p_matrices[k])
    l_mat = op @ h_blk

    m_mat = sla.block_diag(*[grid.quad[i] * h_vals[i] for i in range(n)])

    dk = np.eye(n)
    rows_one, rows_zero = [], []
    for k in range(s.order):
        mk = np.kron(dk, np.eye(d_dim)) @ h_blk
        rows_one.append(mk[(n - 1) * d_dim:])
        rows_zero.append(mk[:d_dim])
        dk = grid.diff @ dk
    return l_mat, m_mat, np.vstack(rows_one + rows_zero)


def full_space_pencil(net, n):
    """The full-space closed loop (L, M, G, T) that assemble_generator
    reduces: L = blkdiag(L_j) with the controller rows [B_c T, A_c]
    appended, M = blkdiag(M_j, controller weight), the constraint rows
    G = [W_B T, C_c] and the stacked trace rows T = blkdiag(T_j)."""
    closed = assemble(net)
    ops = [discretize_subsystem(s, n) for s in net.subsystems]
    n_pde = sum(o.l.shape[0] for o in ops)
    n_full = n_pde + closed.a_c_net.shape[0]
    dtype = np.result_type(closed.w_b_net, *(o.l for o in ops))
    l_full = np.zeros((n_full, n_full), dtype=dtype)
    m_full = np.zeros((n_full, n_full), dtype=dtype)
    t_stack = np.zeros((sum(o.t.shape[0] for o in ops), n_pde), dtype=dtype)
    r = c = 0
    for o in ops:
        sl = slice(c, c + o.l.shape[0])
        l_full[sl, sl] = o.l
        m_full[sl, sl] = o.m
        t_stack[r:r + o.t.shape[0], sl] = o.t
        r, c = r + o.t.shape[0], sl.stop
    m_full[n_pde:, n_pde:] = closed.controller_weight
    l_full[n_pde:, n_pde:] = closed.a_c_net
    l_full[n_pde:, :n_pde] = closed.b_c_net @ t_stack
    return l_full, m_full, np.hstack([closed.w_b_net @ t_stack, closed.c_c_net]), t_stack


def dense_lift(net, n):
    """The energy-orthonormal lift W^{-1} z_y as the reduction once stored it,
    a dense n_full x n_red array: per-node Cholesky factors W of M's
    blocks, z_y = null_basis of the touched columns of G W^{-1} (identity
    on the others, kernel columns first), then W^{-1} node by node."""
    closed = assemble(net)
    ops = [discretize_subsystem(s, n) for s in net.subsystems]
    _, m_full, g, _ = full_space_pencil(net, n)
    dtype = m_full.dtype
    offs = np.cumsum([0] + [o.l.shape[0] for o in ops])
    blocks = [(slice(int(a), int(b)), np.einsum("iaib->iab", o.m.reshape(n, s.dim, n, s.dim)))
              for s, o, a, b in zip(net.subsystems, ops, offs, offs[1:])]
    blocks.append((slice(int(offs[-1]), len(m_full)), closed.controller_weight[None]))
    w_inv = [(sl, np.linalg.inv(np.linalg.cholesky(0.5 * (b + b.conj().swapaxes(1, 2)),
                                                   upper=True))) for sl, b in blocks]
    g_w = _by_nodes([(sl, b.swapaxes(1, 2)) for sl, b in w_inv], g.T.copy()).T
    touched, free = np.flatnonzero(g_w.any(axis=0)), np.flatnonzero(~g_w.any(axis=0))
    kernel = null_basis(g_w[:, touched])
    lift = np.zeros((len(m_full), kernel.shape[1] + len(free)), dtype=dtype)
    lift[touched, :kernel.shape[1]] = kernel
    lift[free, kernel.shape[1] + np.arange(len(free))] = 1.0
    return _by_nodes(w_inv, lift)


def random_nsd_k(rng, size, strict=0.0):
    """Random K with Sym K <= -strict * I."""
    skew = rng.standard_normal((size, size))
    g = rng.standard_normal((size, size))
    return 0.5 * (skew - skew.T) - g.T @ g - strict * np.eye(size)


def random_poly_state(rng, dim, degree, complex_ok=True):
    """Coefficient array (degree+1, dim) of a random polynomial state y."""
    c = rng.standard_normal((degree + 1, dim))
    if complex_ok:
        c = c + 1j * rng.standard_normal((degree + 1, dim))
    return c


def poly_eval_derivative(coeffs, k, z):
    """y^(k)(z) for a (deg+1, dim) coefficient array; returns (len(z), dim)."""
    z = np.atleast_1d(z)
    out = np.zeros((len(z), coeffs.shape[1]), dtype=coeffs.dtype)
    for i in range(coeffs.shape[1]):
        c = coeffs[:, i]
        if k > 0:
            c = npoly.polyder(c, k)
        out[:, i] = npoly.polyval(z, c)
    return out


def poly_trace(coeffs, order):
    """tau(y) of a polynomial state in the library's ordering."""
    pieces = [poly_eval_derivative(coeffs, k, np.array([1.0]))[0] for k in range(order)]
    pieces += [poly_eval_derivative(coeffs, k, np.array([0.0]))[0] for k in range(order)]
    return np.concatenate(pieces)


def quadrature_energy_rate(subsystem, coeffs):
    """Re<Ax, x>_X for y = Hx the given polynomial, by 64-point Gauss.

    Evaluates Re sum_k int y* P_k y^(k) dz plus the P_0 volume term; fully
    independent of flux_matrix.
    """
    s = subsystem
    y0 = poly_eval_derivative(coeffs, 0, GAUSS_X)
    total = 0.0
    for k in range(1, s.order + 1):
        yk = poly_eval_derivative(coeffs, k, GAUSS_X)
        vals = np.einsum("qi,ij,qj->q", y0.conj(), s.p_matrices[k], yk)
        total += float(GAUSS_W @ np.real(vals))
    if s.p0 is not None:
        p0_vals = s.p0(GAUSS_X)
        vals = np.einsum("qi,qij,qj->q", y0.conj(), p0_vals, y0)
        total += float(GAUSS_W @ np.real(vals))
    return total


def quadrature_p0_term(subsystem, coeffs):
    """int Re <P_0 y, y> alone, by 64-point Gauss."""
    if subsystem.p0 is None:
        return 0.0
    y0 = poly_eval_derivative(coeffs, 0, GAUSS_X)
    p0_vals = subsystem.p0(GAUSS_X)
    vals = np.einsum("qi,qij,qj->q", y0.conj(), p0_vals, y0)
    return float(GAUSS_W @ np.real(vals))


def quadrature_supply_rate(subsystem, coeffs):
    """Re<Bx, Cx> at the polynomial state's boundary trace."""
    tau = poly_trace(coeffs, subsystem.order)
    b = subsystem.w_b @ tau
    c = subsystem.w_c @ tau
    return float(np.real(c.conj() @ b))


def chain_transfer_characteristic(lengths, rho, tension, kappa):
    """Characteristic function of the damped chain via transfer matrices.

    Piecewise-constant coefficients; left end y2(0) = kappa0 y1(0), free
    right end y2(L) = 0, joint dampers y2+ = y2- + kappa_j y1.  Returns
    f(lambda) whose zeros are the closed-loop eigenvalues.
    """
    lengths = np.asarray(lengths, float)
    rho = np.asarray(rho, float)
    tension = np.asarray(tension, float)

    def f(lam):
        vec = np.array([1.0, kappa[0]], dtype=complex)
        for j in range(len(lengths)):
            c = np.sqrt(tension[j] / rho[j])
            z = np.sqrt(tension[j] * rho[j])
            arg = lam * lengths[j] / c
            m = np.array([[np.cosh(arg), np.sinh(arg) / z],
                          [z * np.sinh(arg), np.cosh(arg)]])
            vec = m @ vec
            if j + 1 < len(lengths):
                vec = np.array([[1.0, 0.0], [kappa[j + 1], 1.0]]) @ vec
        return vec[1]

    return f


def beam_moment_damped_characteristic(k):
    """Characteristic function of w_tt = -w_zzzz with moment damping.

    Left end: phi''(0) = k lambda phi'(0) (moment proportional to angular
    velocity), phi'''(0) = 0 (shear free); right end clamped phi(1) =
    phi'(1) = 0.  Modal ansatz phi = sum_i c_i exp(g_i z) with
    g_i^4 = -lambda^2; returns the (column-scaled) boundary determinant.
    """
    def f(lam):
        g0 = (-lam ** 2) ** 0.25
        gs = (g0, 1j * g0, -g0, -1j * g0)
        m = np.zeros((4, 4), dtype=complex)
        for i, g in enumerate(gs):
            e1 = np.exp(g)
            m[0, i] = g * g - k * lam * g
            m[1, i] = g ** 3
            m[2, i] = e1
            m[3, i] = g * e1
        for i in range(4):
            m[:, i] /= max(np.abs(m[:, i]).max(), 1e-300)
        return np.linalg.det(m)

    return f


def secant_root(f, x0, x1, tol=1e-13, maxit=80):
    f0, f1 = f(x0), f(x1)
    for _ in range(maxit):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
        if abs(f1) < tol * (1 + abs(x1)):
            break
    return x1
