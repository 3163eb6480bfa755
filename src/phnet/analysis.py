"""Numerical stability surrogates: spectrum, resolvent scan, decay fit.

Eigenvalues are computed for s_red, the generator in the energy frame, so
real parts are energy-space growth rates.  Any fixed-resolution
discretization of a boundary-damped system carries under-resolved modes
whose eigenvalues bend back toward the imaginary axis; the reported
spectrum keeps only eigenvalues that agree between the generator and its
coarser companion (two-grid filter), the raw list kept for inspection.
Exponential stability verdicts are surrogates, not proofs: abscissa <
-1e-6 plus a bounded resolvent growth trend over the trusted frequency band.
"""

import numpy as np
from dataclasses import dataclass

ZERO_MODE_REL_TOL = 1e-8
TRUST_MATCH_RTOL = 1e-6
EXP_ABSCISSA_TOL = -1e-6
EXP_TREND_LIMIT = 1.5
PEAK_REFINE_LEVELS = 3
DECAY_WINDOW_START = 0.25
LANCZOS_RTOL = 1e-11
LANCZOS_MIN_STEPS = 3
LANCZOS_BLEND = 0.1


@dataclass
class SpectrumReport:
    """Trusted eigenvalues in decay order (_decay_order) plus raw
    diagnostics; no eigenvectors."""

    eigenvalues: np.ndarray
    abscissa: float
    zero_modes: np.ndarray
    raw_eigenvalues: np.ndarray
    discarded: int

    def dominant(self, count):
        """The `count` slowest-decaying trusted modes: a prefix of eigenvalues."""
        return self.eigenvalues[:count]


def _decay_order(vals):
    """Indices sorting eigenvalues by descending real part, then ascending
    |Im|; one stable sort, so exact ties keep their eig order."""
    return np.lexsort((np.abs(vals.imag), -vals.real))


def _matches(vals, ref):
    """Mask [i, j]: |vals_i - ref_j| <= TRUST_MATCH_RTOL * (1 + |vals_i|), the
    companion-match rule; asp_diagnostic also clusters eigenvalues by it."""
    return np.array([np.abs(ref - lam) <= TRUST_MATCH_RTOL * (1.0 + abs(lam))
                     for lam in vals], dtype=bool).reshape(len(vals), len(ref))


def spectrum(gen):
    """Eigenvalues of the reduced generator in the energy inner product.

    The eigvals of the energy-frame generator s_red and of its companion
    resolution, each computed once per generator (gen.eigenvalues, which
    asp_diagnostic reads for the companion too); no eigenvector is formed
    (asp_diagnostic computes its own).
    An eigenvalue is trusted when the companion has one within
    TRUST_MATCH_RTOL * (1 + |lambda|).  The trusted list is in decay order,
    descending real part, then ascending |Im| (_decay_order), so
    SpectrumReport.dominant slices it.  Zero modes are |lambda| <
    ZERO_MODE_REL_TOL * max|raw lambda|, a scale free of the reduction's basis.
    """
    vals = gen.eigenvalues
    trusted = vals[_matches(vals, gen.companion.eigenvalues).any(axis=1)]
    trusted = trusted[_decay_order(trusted)]
    scale = float(np.abs(vals).max(initial=1e-300))
    zero_modes = trusted[np.abs(trusted) < ZERO_MODE_REL_TOL * scale]
    return SpectrumReport(
        eigenvalues=trusted,
        abscissa=float(trusted.real.max()) if len(trusted) else float("nan"),
        zero_modes=zero_modes,
        raw_eigenvalues=vals,
        discarded=int(len(vals) - len(trusted)))


@dataclass
class ResolventScan:
    """Sampled ||(i beta - A)^{-1}|| in the energy norm over [0, beta_max]."""

    betas: np.ndarray
    norms: np.ndarray
    diverged: np.ndarray
    sup_norm: float
    trend: float
    beta_max: float


def _inverse_lanczos(b, start, basis, ztrtrs, zgemv, dznrm2, dstev):
    """Largest eigenvalue of (B B^H)^{-1} and its Ritz vector, B upper triangular.

    Each step applies B^{-H} B^{-1} by two triangular solves and fully
    reorthogonalises the Krylov basis in two classical Gram-Schmidt passes.
    From step LANCZOS_MIN_STEPS on it stops once the Ritz residual
    |beta_k s_k| of the tridiagonal eigenproblem is at most LANCZOS_RTOL *
    theta, which by Weyl's bound puts theta within LANCZOS_RTOL relative
    of an eigenvalue; at step n the basis spans the space and theta is
    exact.  Returns (theta, Ritz vector, basis), or (inf, None, basis) on
    an exactly zero pivot.

    basis is a complex Fortran-ordered (n, capacity) buffer whose columns
    hold the Krylov vectors; the caller keeps it for the next frequency.
    When the steps outgrow it, a buffer twice as wide (at most n columns)
    replaces it, so its memory stays O(n * steps).  No n-sized array is
    allocated per step.  Every BLAS/LAPACK call comes through the
    arguments, all from scipy (triangular solve, matrix-vector product,
    norm, tridiagonal eigensolver), so the loop runs on one BLAS runtime.
    """
    n = b.shape[0]
    x = np.empty(n, dtype=complex)
    alphas, offdiag = np.empty(n), np.empty(n)
    np.divide(start, dznrm2(start), out=basis[:, 0])
    for steps in range(1, n + 1):
        q = basis[:, :steps]
        x[:] = q[:, -1]
        if ztrtrs(b, x, overwrite_b=1)[1] > 0:
            return np.inf, None, basis
        ztrtrs(b, x, trans=2, overwrite_b=1)
        h = zgemv(1.0, q, x, trans=2)
        zgemv(-1.0, q, h, beta=1.0, y=x, overwrite_y=1)
        h2 = zgemv(1.0, q, x, trans=2)
        zgemv(-1.0, q, h2, beta=1.0, y=x, overwrite_y=1)
        alphas[steps - 1] = (h[-1] + h2[-1]).real
        beta_k = dznrm2(x)
        if steps >= LANCZOS_MIN_STEPS or steps == n or beta_k == 0.0:
            # the wrapper wants max(k - 1, 1) off-diagonal entries; LAPACK reads none at k = 1
            thetas, s, info = dstev(alphas[:steps], offdiag[:max(steps - 1, 1)])
            if info != 0:
                raise RuntimeError("dstev failed to converge (info %d)" % info)
            if steps == n or beta_k * abs(s[-1, -1]) <= LANCZOS_RTOL * thetas[-1]:
                return thetas[-1], zgemv(1.0, q, s[:, -1]), basis
        offdiag[steps - 1] = beta_k
        if steps == basis.shape[1]:
            grown = np.empty((n, min(2 * steps, n)), dtype=complex, order="F")
            grown[:, :steps] = basis
            basis = grown
        np.divide(x, beta_k, out=basis[:, steps])


def resolvent_scan(gen, beta_max=None, samples=200, spectrum_report=None):
    """Scan the resolvent norm along the imaginary axis.

    norm(beta) = 1 / sigma_min(i beta I - s_red), the energy norm.
    Scans [0, beta_max]; for real-coefficient networks negative beta is
    implied by conjugate symmetry.  beta_max, given or 8 max |Im lambda|
    over rep.dominant(20), is capped at the trusted band 0.7 max |Im
    lambda| (trusted lambda, if any): the norms of under-resolved modes
    past it fall off and fake a bounded trend.  The grid is one np.unique over the
    uniform samples, every in-band trusted eigenfrequency b0 = |Im lambda|
    and its PEAK_REFINE_LEVELS offsets b0 +- |Re lambda| 10^-l clipped to
    [0, beta_max], so narrow peaks are not missed.  Samples within
    tolerance of an eigenvalue are flagged diverged and excluded from the
    sup.  trend = sup over (beta_max/2, beta_max] divided by sup over
    [0, beta_max/2]; growth with frequency signals a failing uniform
    resolvent bound (no exponential stability).

    s_red is reduced once to complex Schur form Z T Z^H; since Z is
    unitary, sigma_min(i beta I - s_red) = sigma_min(B) with B = i beta I
    - T upper triangular.  1 / sigma_min(B)^2 is the largest eigenvalue of
    (B B^H)^{-1}, found by Lanczos with two O(n^2) triangular solves per
    step and a residual stop (_inverse_lanczos).  Each frequency starts
    from the previous one's Ritz vector blended with a fixed seeded
    vector, and from the seeded vector alone after a diverged sample.  One
    Krylov basis buffer serves every frequency and grows on demand.  The
    dense SVD of i beta I - s_red is the tests' oracle, not a code path.

    scipy.linalg (schur, rsf2csf and the BLAS/LAPACK kernels of the
    frequency loop) is imported here, once per scan, so that importing
    phnet, check and spectrum load no scipy.  numpy and scipy each ship
    their own OpenBLAS with its own thread pool, and a threaded call into
    one library just after the other's can run at half speed while the
    idle pool spins; every kernel of the loop therefore comes from scipy.
    """
    from scipy.linalg import rsf2csf, schur
    from scipy.linalg.blas import dznrm2, zgemv
    from scipy.linalg.lapack import dstev, ztrtrs

    rep = spectrum_report if spectrum_report is not None else spectrum(gen)
    ev = rep.eigenvalues
    if beta_max is None:
        dom = rep.dominant(20)
        beta_max = 8.0 * float(np.abs(dom.imag).max()) if len(dom) else 1.0
    trust_band = 0.7 * float(np.abs(ev.imag).max(initial=0.0))
    if trust_band > 0:      # past it, under-resolved modes fake decay
        beta_max = min(beta_max, trust_band)
    beta_max = float(max(beta_max, 1e-6))

    # a zero |Re| gives offsets equal to b0, which np.unique drops
    in_band = np.abs(ev.imag) <= beta_max
    b0 = np.abs(ev.imag[in_band])[:, None]
    off = np.abs(ev.real[in_band])[:, None] * 10.0 ** -np.arange(PEAK_REFINE_LEVELS)
    betas = np.unique(np.concatenate([np.linspace(0.0, beta_max, samples), b0.ravel(),
                                      np.minimum(beta_max, b0 + off).ravel(),
                                      np.maximum(0.0, b0 - off).ravel()]))

    ev_all = rep.raw_eigenvalues
    scale = max(1.0, float(np.abs(ev_all).max())) if len(ev_all) else 1.0
    div_tol = 1e-9 * scale
    diverged = np.abs(1j * betas[:, None] - ev_all).min(axis=1, initial=np.inf) < div_tol

    b = np.asfortranarray(rsf2csf(*schur(gen.s_red))[0])     # T, then -T in place
    n = b.shape[0]
    t_diag = np.diag(b).copy()
    np.negative(b, out=b)
    seed = np.random.default_rng(0).standard_normal((n, 2)) @ [1.0, 1j]
    seed /= np.linalg.norm(seed)
    start = seed
    basis = np.empty((n, min(n, LANCZOS_MIN_STEPS)), dtype=complex, order="F")
    norms = np.empty(len(betas))
    for i, beta in enumerate(betas):
        np.fill_diagonal(b, 1j * beta - t_diag)
        theta, ritz, basis = _inverse_lanczos(b, start, basis, ztrtrs, zgemv, dznrm2, dstev)
        norms[i] = np.sqrt(theta)
        start = seed if diverged[i] or ritz is None else ritz + LANCZOS_BLEND * seed

    ok = ~diverged & np.isfinite(norms)
    sup_norm = float(norms[ok].max()) if ok.any() else float("inf")
    half = beta_max / 2.0
    lo_mask = ok & (betas <= half)
    hi_mask = ok & (betas > half)
    if lo_mask.any() and hi_mask.any():
        trend = float(norms[hi_mask].max() / norms[lo_mask].max())
    else:
        trend = float("nan")
    return ResolventScan(betas=betas, norms=norms, diverged=diverged,
                         sup_norm=sup_norm, trend=trend, beta_max=beta_max)


def exponential_verdict(spectrum_report, scan):
    """Artifact-defined surrogate verdict string (not a proof)."""
    if len(spectrum_report.eigenvalues) == 0:
        return "inconclusive (no trusted eigenvalues)"
    absc = spectrum_report.abscissa
    if not np.isfinite(absc) or absc > -EXP_ABSCISSA_TOL:
        return "unstable (positive abscissa)"
    if absc > EXP_ABSCISSA_TOL:
        return "not asymptotically stable (imaginary spectrum)"
    if scan is not None and np.isfinite(scan.trend) and scan.trend > EXP_TREND_LIMIT:
        return "exponential stability NOT indicated (resolvent growth trend %.2f)" % scan.trend
    return "exponentially stable (surrogate)"


def asp_diagnostic(gen, r_selector):
    """Residuals of R on the near-imaginary trusted eigenspaces.

    r_selector is a sequence of (subsystem_index, trace_component) pairs
    selecting rows of the stacked trace, the concrete dissipation observer
    R.  This is the package's one eigenvector computation: eig of s_red,
    trusted by spectrum's companion-match rule, whose near-imaginary
    eigenvectors v are kept for their traces.  Near-imaginary means |Re
    lambda| < 10 * ZERO_MODE_REL_TOL * max|raw lambda|.  eig returns an
    arbitrary basis of a multiple eigenspace, so such eigenvalues within
    TRUST_MATCH_RTOL * (1 + |lambda|) of each other form one cluster, and
    each member reports sigma_min(R V), V an orthonormal basis of its
    cluster's eigenvectors.  Zero modes (|lambda| < ZERO_MODE_REL_TOL *
    max|raw lambda|) are scored one eigenvector at a time: a trusted zero
    eigenspace can hold a spurious kernel vector of the reduction (the
    free-free string has one), which the cluster residual would report as an
    invisible mode.  A residual ~ 0 exposes an undamped imaginary mode
    invisible to R (an ASP violation).  Returns a list of (eigenvalue,
    residual) in spectrum's decay order (_decay_order).
    """
    vals, v = np.linalg.eig(gen.s_red)
    comp_vals = gen.companion.eigenvalues
    scale = float(np.abs(vals).max(initial=1e-300))
    near = np.flatnonzero(_matches(vals, comp_vals).any(axis=1)
                          & (np.abs(vals.real) < ZERO_MODE_REL_TOL * scale * 10))
    near = near[_decay_order(vals[near])]
    lams, v = vals[near], v[:, near]
    taus = gen.split_traces((gen.trace_map @ v).T)
    r_v = np.array([taus[j][:, comp] for j, comp in r_selector])
    r_v = r_v.reshape(len(r_selector), len(lams))
    nonzero = np.abs(lams) >= ZERO_MODE_REL_TOL * scale
    close = nonzero[:, None] & nonzero & _matches(lams, lams)
    labels = np.arange(len(lams))
    for i, j in zip(*np.nonzero(close)):      # merge the clusters of each close pair
        labels[labels == labels[j]] = labels[i]
    out = []
    for lam, label in zip(lams, labels):
        members = labels == label
        # V tri^{-1} is orthonormal, in the energy norm too
        tri = np.linalg.qr(v[:, members], mode="r")
        sv = np.linalg.svd(np.linalg.solve(tri.T, r_v[:, members].T), compute_uv=False)
        # fewer rows of R than eigenvectors leave a combination with R V x = 0
        out.append((complex(lam), float(sv.min()) if len(sv) == members.sum() else 0.0))
    return out


def decay_fit(trace):
    """Least-squares exponential envelope of an EnergyTrace.

    Fits log H(t) over [DECAY_WINDOW_START * t_end, t_end]; returns (M, eta)
    with H(t) <= M exp(eta t) H(0) as the fitted model, M clamped >= 1.
    """
    t = np.asarray(trace.times)
    h = np.asarray(trace.energies)
    if len(t) < 32:
        raise ValueError("decay_fit needs at least 32 samples, got %d" % len(t))
    if h[0] <= 0:
        raise ValueError("decay_fit needs H(0) > 0")
    if np.any(h <= 0):
        raise ValueError("energy trace hits a nonpositive value: numerical fault upstream")
    t_end = t[-1]
    mask = t >= DECAY_WINDOW_START * t_end
    slope, intercept = np.polyfit(t[mask], np.log(h[mask]), 1)
    m_const = max(1.0, float(np.exp(intercept) / h[0]))
    return m_const, float(slope)
