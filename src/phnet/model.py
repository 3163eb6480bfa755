"""Core types for a single 1-D port-Hamiltonian subsystem.

A subsystem is the evolution law

    dx/dt = sum_{k=0}^{N} P_k d^k(H x)/dz^k          on z in (0, 1),

with Hermitian coercive energy density H(z), matrices satisfying
P_k^* = (-1)^{k+1} P_k for k >= 1, invertible P_N, and boundary
input/output maps read off the trace vector

    tau(y) = (y(1), y'(1), ..., y^(N-1)(1), y(0), ..., y^(N-1)(0)),
    y = H x,

through matrices W_B, W_C with [W_B; W_C] invertible.  Physical
intervals (a, b) are rescaled to (0, 1) on construction, multiplying
P_k by (b - a)^(-k).
"""

import numpy as np
from dataclasses import dataclass, field


class PHStructuralError(ValueError):
    """Shape or representation mismatch, as opposed to a failed invariant."""


def _as_matrix(m, dtype=None):
    a = np.array(m, dtype=dtype)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        raise PHStructuralError("expected a 2-d matrix, got shape %s" % (a.shape,))
    a.setflags(write=False)
    return a


class MatrixFunction:
    """Matrix-valued coefficient on [0, 1] in one of three representations.

    kind = "constant":    data is a single d x d matrix.
    kind = "polynomial":  data has shape (deg+1, d, d), ascending powers of z.
    kind = "samples":     data has shape (n_s, d, d), n_s >= 2, piecewise
                          linear between uniform sample points on [0, 1].

    Used for the Hamiltonian density H and for spatially varying P_0.
    """

    def __init__(self, kind, data):
        if kind not in ("constant", "polynomial", "samples"):
            raise PHStructuralError("unknown MatrixFunction kind %r" % (kind,))
        data = np.asarray(data)
        if kind == "constant":
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise PHStructuralError("constant data must be square, got %s" % (data.shape,))
        else:
            if data.ndim != 3 or data.shape[1] != data.shape[2]:
                raise PHStructuralError("%s data must have shape (m, d, d), got %s"
                                        % (kind, data.shape))
            if kind == "samples" and data.shape[0] < 2:
                raise PHStructuralError("sampled representation needs >= 2 sample points")
        data = data.astype(complex) if np.iscomplexobj(data) else data.astype(float)
        data.setflags(write=False)
        self.kind = kind
        self.data = data

    @classmethod
    def constant(cls, mat):
        return cls("constant", np.atleast_2d(mat))

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", coeffs)

    @classmethod
    def samples(cls, values):
        return cls("samples", values)

    @property
    def dim(self):
        return self.data.shape[-1]

    def __call__(self, z):
        """Evaluate at points z (scalar or 1-d array); returns (len(z), d, d)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if self.kind == "constant":
            return np.broadcast_to(self.data, (len(z),) + self.data.shape).copy()
        if self.kind == "polynomial":
            out = np.zeros((len(z),) + self.data.shape[1:], dtype=self.data.dtype)
            for p in range(self.data.shape[0] - 1, -1, -1):
                out = out * z[:, None, None] + self.data[p]
            return out
        # piecewise linear between uniform samples
        n_s = self.data.shape[0]
        t = np.clip(z, 0.0, 1.0) * (n_s - 1)
        i0 = np.minimum(t.astype(int), n_s - 2)
        w = (t - i0)[:, None, None]
        return (1.0 - w) * self.data[i0] + w * self.data[i0 + 1]

    def check_grid(self):
        """The points coefficient checks evaluate at: 257 uniform points on
        [0, 1], joined by a sampled profile's knots."""
        zs = np.linspace(0.0, 1.0, 257)
        if self.kind == "samples":
            zs = np.union1d(zs, np.linspace(0.0, 1.0, self.data.shape[0]))
        return zs

    def hermitian_defect(self, z_grid):
        """Max entrywise deviation from Hermitian symmetry over the points z_grid."""
        vals = self(z_grid)
        return float(np.max(np.abs(vals - vals.conj().transpose(0, 2, 1))))

    def lipschitz_slope(self):
        """Finite-difference slope surrogate for the Lipschitz constant on
        the check grid (at least a sampled profile's largest knot slope)."""
        z_grid = self.check_grid()
        vals = self(z_grid)
        dz = np.diff(z_grid)
        steps = np.abs(np.diff(vals, axis=0)).max(axis=(1, 2)) / dz
        return float(steps.max())

    def min_eig(self, z_grid):
        """Least eigenvalue of the Hermitian part over the points z_grid."""
        vals = self(z_grid)
        vals = 0.5 * (vals + vals.conj().transpose(0, 2, 1))
        return float(np.linalg.eigvalsh(vals).min())

    def to_dict(self):
        return {"kind": self.kind, "data": _encode_array(self.data)}

    @classmethod
    def from_dict(cls, d):
        kind = d["kind"]
        depth = 2 if kind == "constant" else 3
        return cls(kind, _decode_array(d["data"], depth))


def as_matrix_function(value, dim):
    """Coerce a scalar, matrix, or MatrixFunction into a MatrixFunction."""
    if isinstance(value, MatrixFunction):
        return value
    a = np.asarray(value, dtype=float if not np.iscomplexobj(value) else complex)
    if a.ndim == 0:
        return MatrixFunction.constant(np.eye(dim) * a)
    if a.ndim == 2:
        return MatrixFunction.constant(a)
    raise PHStructuralError("cannot coerce array of shape %s to MatrixFunction" % (a.shape,))


def _encode_array(a):
    """Nested lists; complex entries as [re, im] pairs."""
    a = np.asarray(a)
    return np.stack([a.real, a.imag], -1).tolist() if np.iscomplexobj(a) else a.tolist()


def _decode_array(data, depth):
    """Inverse of _encode_array given the expected nesting depth."""
    a = np.asarray(data, dtype=float)
    if _has_bool(data) or not np.isfinite(a).all():    # null reads as NaN
        raise PHStructuralError("matrix entries must be finite numbers, not null, "
                                "NaN, infinity or a boolean")
    if a.ndim == depth:
        return a
    if a.ndim == depth + 1 and a.shape[-1] == 2:
        return a.view(complex)[..., 0]
    raise PHStructuralError("array of shape %s: expected depth %d, or depth %d "
                            "of [re, im] pairs" % (a.shape, depth, depth + 1))


def _has_bool(data):
    if isinstance(data, (list, tuple)):
        return any(_has_bool(x) for x in data)
    return isinstance(data, (bool, np.bool_))


@dataclass(frozen=True)
class PHSubsystem:
    """One port-Hamiltonian subsystem, rescaled to (0, 1) on construction."""

    order: int
    dim: int
    p_matrices: tuple          # (P_0 | None | MatrixFunction, P_1, ..., P_N)
    hamiltonian: MatrixFunction
    w_b: np.ndarray
    w_c: np.ndarray
    interval: tuple = (0.0, 1.0)
    label: str = ""

    def __post_init__(self):
        n, d = self.order, self.dim
        if n < 1 or d < 1:
            raise PHStructuralError("order and dim must be positive")
        a, b = self.interval
        scale = b - a
        if not (scale > 0 and np.isfinite(scale)):     # an infinite length zeroes every P_k
            raise PHStructuralError("interval must be finite with a < b: %s" % (self.interval,))
        ps = list(self.p_matrices)
        if len(ps) != n + 1:
            raise PHStructuralError("need %d coefficient matrices P_0..P_N, got %d"
                                    % (n + 1, len(ps)))
        p0 = ps[0]
        if p0 is not None and not isinstance(p0, MatrixFunction):
            p0 = as_matrix_function(p0, d)
        if p0 is not None and p0.dim != d:
            raise PHStructuralError("P_0 has dimension %d, expected %d" % (p0.dim, d))
        coerced = [p0]
        for k in range(1, n + 1):
            if ps[k] is None:
                raise PHStructuralError("P_%d must be a matrix (use zeros); "
                                        "only P_0 may be None" % k)
            pk = _as_matrix(ps[k], dtype=complex if np.iscomplexobj(np.asarray(ps[k])) else float)
            if pk.shape != (d, d):
                raise PHStructuralError("P_%d has shape %s, expected (%d, %d)"
                                        % (k, pk.shape, d, d))
            with np.errstate(all="ignore"):          # a tiny length overflows
                pk = pk * np.float64(scale) ** -k
            if not np.isfinite(pk).all():
                raise PHStructuralError("P_%d rescaled from interval length %.3g is not "
                                        "finite" % (k, scale))
            coerced.append(pk)
        object.__setattr__(self, "p_matrices", tuple(coerced))
        for name in ("w_b", "w_c"):
            w = _as_matrix(getattr(self, name))
            if w.shape != (n * d, 2 * n * d):
                raise PHStructuralError("%s has shape %s, expected (%d, %d)"
                                        % (name.upper(), w.shape, n * d, 2 * n * d))
            object.__setattr__(self, name, w)
        ham = self.hamiltonian
        if not isinstance(ham, MatrixFunction):
            ham = as_matrix_function(ham, d)
        if ham.dim != d:
            raise PHStructuralError("H has dimension %d, expected %d" % (ham.dim, d))
        object.__setattr__(self, "hamiltonian", ham)

    @property
    def port_dim(self):
        """Nd, the number of boundary input (and output) components."""
        return self.order * self.dim

    @property
    def trace_dim(self):
        """2Nd, the length of the boundary trace vector."""
        return 2 * self.order * self.dim

    @property
    def p0(self):
        return self.p_matrices[0]


@dataclass
class ValidationReport:
    """Result of validate_subsystem: one (name, passed, margin, detail) per invariant."""

    checks: list = field(default_factory=list)

    def add(self, name, passed, margin, detail=""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "margin": float(margin), "detail": detail})

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def to_dict(self):
        return {"passed": self.passed, "checks": self.checks}


# relative tolerance policy for all PSD / invertibility style checks
REL_TOL = 1e-10


def validate_subsystem(subsystem):
    """Check every structural invariant of a PHSubsystem.

    Returns a ValidationReport listing, per invariant, pass/fail and the
    measured margin.  Shape mismatches are not invariant failures: they
    raise PHStructuralError when the PHSubsystem is built.
    """
    s = subsystem
    rep = ValidationReport()

    # symmetry relations P_k^* = (-1)^{k+1} P_k
    for k in range(1, s.order + 1):
        pk = s.p_matrices[k]
        want = (-1.0) ** (k + 1)
        scale = max(np.abs(pk).max(), 1e-300)
        defect = np.abs(pk.conj().T - want * pk).max() / scale
        rep.add("P_%d symmetry" % k, defect <= 1e-12, defect,
                "relative defect of P_k^* = (-1)^(k+1) P_k")

    # P_N invertible
    sv = np.linalg.svd(s.p_matrices[s.order], compute_uv=False)
    ratio = sv.min() / max(sv.max(), 1e-300)
    rep.add("P_N invertible", ratio > 1e-10, ratio, "sigma_min / sigma_max of P_N")

    # [W_B; W_C] invertible
    stacked = np.vstack([s.w_b, s.w_c])
    sv = np.linalg.svd(stacked, compute_uv=False)
    ratio = sv.min() / max(sv.max(), 1e-300)
    rep.add("[W_B; W_C] invertible", ratio > REL_TOL * 1.0, ratio,
            "sigma_min / sigma_max of the stacked boundary matrix")

    # H Hermitian and coercive on the sample grid
    zs = s.hamiltonian.check_grid()
    herm = s.hamiltonian.hermitian_defect(zs)
    rep.add("H Hermitian", herm <= 1e-12 * max(1.0, float(np.abs(s.hamiltonian(zs)).max())),
            herm, "max entrywise Hermitian defect over sample grid")
    m_coer = s.hamiltonian.min_eig(zs)
    rep.add("H coercive", m_coer > 1e-8, m_coer, "min eigenvalue of H over sample grid")

    # Lipschitz surrogate, recorded only (no pass/fail threshold)
    slope = s.hamiltonian.lipschitz_slope()
    rep.add("H Lipschitz slope (recorded)", True, slope,
            "finite-difference slope bound between adjacent samples")
    return rep


def flux_matrix(p_matrices, order, dim):
    """Hermitian 2Nd x 2Nd matrix of the boundary flux quadratic form.

    Built by accumulating the integration-by-parts identity

        Re int y* P_k y^(k) dz
          = 1/2 sum_{j=0}^{k-1} (-1)^j [ (y^(j))* P_k y^(k-1-j) ]_0^1

    over k = 1..N, which holds for every polynomial y because of the
    symmetry relations P_k^* = (-1)^{k+1} P_k.
    """
    n, d = order, dim
    pks = [np.asarray(pk) for pk in p_matrices[1:n + 1]]
    q = np.zeros((2 * n * d, 2 * n * d), dtype=np.result_type(float, *pks))

    def add(row, col, mat):
        q[row * d:(row + 1) * d, col * d:(col + 1) * d] += mat / 2.0
        q[col * d:(col + 1) * d, row * d:(row + 1) * d] += mat.conj().T / 2.0

    for k, pk in enumerate(pks, start=1):
        for j in range(k):
            sign = (-1.0) ** j
            add(j, k - 1 - j, sign * pk)             # endpoint z = 1
            add(n + j, n + (k - 1 - j), -sign * pk)  # endpoint z = 0
    return q


def flux_form(subsystem):
    """Hermitian Q with Re<Ax, x>_X = 1/2 tau(Hx)* Q tau(Hx) + P_0 volume term."""
    s = subsystem
    return flux_matrix(s.p_matrices, s.order, s.dim)
