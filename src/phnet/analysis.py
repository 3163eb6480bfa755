"""Numerical stability surrogates: spectrum, resolvent scan, decay fit.

Eigenvalues are computed for the congruence-frame operator, so real parts
are energy-space growth rates.  Any fixed-resolution discretization of a
boundary-damped system carries under-resolved modes whose eigenvalues bend
back toward the imaginary axis; the reported spectrum therefore keeps only
eigenvalues that agree between the generator and its coarser companion
(two-grid filter), with the raw list retained for inspection.  Exponential
stability verdicts are surrogates, not proofs: abscissa < -1e-6 plus a
bounded resolvent growth trend over the trusted frequency band.
"""

import numpy as np
from dataclasses import dataclass, field

ZERO_MODE_REL_TOL = 1e-8
TRUST_MATCH_RTOL = 1e-6
EXP_ABSCISSA_TOL = -1e-6
EXP_TREND_LIMIT = 1.5
PEAK_REFINE_LEVELS = 3
DECAY_WINDOW_START = 0.25


@dataclass
class SpectrumReport:
    """Trusted eigenvalues (descending real part) plus raw diagnostics."""

    eigenvalues: np.ndarray
    abscissa: float
    zero_modes: np.ndarray
    raw_eigenvalues: np.ndarray
    discarded: int
    eigenvectors: np.ndarray = None     # reduced-coordinate columns, trusted order
    meta: dict = field(default_factory=dict)

    def dominant(self, count):
        """The `count` slowest-decaying trusted modes, ties by |Im| ascending."""
        if len(self.eigenvalues) == 0:
            return self.eigenvalues
        idx = sorted(range(len(self.eigenvalues)),
                     key=lambda i: (-self.eigenvalues[i].real,
                                    abs(self.eigenvalues[i].imag)))
        return self.eigenvalues[idx[:count]]

    def to_dict(self):
        return {"abscissa": self.abscissa,
                "n_trusted": int(len(self.eigenvalues)),
                "n_raw": int(len(self.raw_eigenvalues)),
                "discarded": int(self.discarded),
                "zero_modes": int(len(self.zero_modes)),
                "sym_drift": self.meta.get("sym_drift")}


def spectrum(gen):
    """Eigenvalues of the reduced generator in the energy inner product.

    Computed via the m_red^{1/2} congruence; an eigenvalue is trusted when
    the companion resolution (built on first use) has one within
    TRUST_MATCH_RTOL * (1 + |lambda|).  Zero modes are
    |lambda| < ZERO_MODE_REL_TOL * max|a_red|.
    """
    vals, vecs = np.linalg.eig(gen.sim_operator())
    comp_vals = np.linalg.eigvals(gen.companion.sim_operator())
    keep = np.array([np.abs(comp_vals - lam).min() <= TRUST_MATCH_RTOL * (1.0 + abs(lam))
                     for lam in vals])
    trusted = vals[keep]
    tvecs = vecs[:, keep]
    order = np.argsort(-trusted.real)
    trusted = trusted[order]
    tvecs = tvecs[:, order]
    scale = max(float(np.abs(gen.a_red).max()), 1e-300)
    zero_modes = trusted[np.abs(trusted) < ZERO_MODE_REL_TOL * scale]
    # eigenvectors back in reduced coordinates v = m^{-1/2} xi
    red_vecs = gen.m_inv_sqrt @ tvecs if tvecs.size else tvecs
    return SpectrumReport(
        eigenvalues=trusted,
        abscissa=float(trusted.real.max()) if len(trusted) else float("nan"),
        zero_modes=zero_modes,
        raw_eigenvalues=vals,
        discarded=int(len(vals) - len(trusted)),
        eigenvectors=red_vecs,
        meta={"sym_drift": gen.meta.get("sym_drift")})


@dataclass
class ResolventScan:
    """Sampled ||(i beta - A)^{-1}|| in the energy norm over [0, beta_max]."""

    betas: np.ndarray
    norms: np.ndarray
    diverged: np.ndarray
    sup_norm: float
    trend: float
    beta_max: float
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {"beta_max": self.beta_max, "samples": int(len(self.betas)),
                "sup_norm": self.sup_norm, "trend": self.trend,
                "diverged": int(self.diverged.sum())}


def resolvent_scan(gen, beta_max=None, samples=200, spectrum_report=None):
    """Scan the resolvent norm along the imaginary axis.

    norm(beta) = 1 / sigma_min(i beta I - A_sim) in the congruence frame.
    Scans [0, beta_max]; for real-coefficient networks negative beta is
    implied by conjugate symmetry.  The uniform grid is refined with
    PEAK_REFINE_LEVELS log-spaced offsets around every trusted
    eigenfrequency so narrow peaks are not missed.  Samples within
    tolerance of an eigenvalue are flagged diverged and excluded from the
    sup.  trend = sup over (beta_max/2, beta_max] divided by sup over
    [0, beta_max/2]; growth with frequency signals a failing uniform
    resolvent bound (no exponential stability).
    """
    rep = spectrum_report if spectrum_report is not None else spectrum(gen)
    ev = rep.eigenvalues
    trust_band = 0.7 * float(np.abs(ev.imag).max()) if len(ev) else 1.0
    if beta_max is None:
        dom = rep.dominant(20)
        beta_max = 8.0 * float(np.abs(dom.imag).max()) if len(dom) else 1.0
        beta_max = min(beta_max, trust_band) if trust_band > 0 else beta_max
    beta_max = float(max(beta_max, 1e-6))

    betas = set(np.linspace(0.0, beta_max, samples))
    for lam in ev:
        b0 = abs(lam.imag)
        if b0 > beta_max:
            continue
        betas.add(b0)
        if abs(lam.real) > 0:
            for lvl in range(PEAK_REFINE_LEVELS):
                off = abs(lam.real) * 10.0 ** (-lvl)
                betas.add(min(beta_max, b0 + off))
                betas.add(max(0.0, b0 - off))
    betas = np.array(sorted(betas))

    sim = gen.sim_operator()
    eye = np.eye(sim.shape[0])

    def norm_at(b):
        sv = np.linalg.svd(1j * b * eye - sim, compute_uv=False)
        return 1.0 / sv[-1] if sv[-1] > 0 else np.inf

    norms = np.array([norm_at(b) for b in betas])

    ev_all = rep.raw_eigenvalues
    scale = max(1.0, float(np.abs(ev_all).max())) if len(ev_all) else 1.0
    div_tol = 1e-9 * scale
    diverged = np.array([np.abs(1j * b - ev_all).min() < div_tol if len(ev_all) else False
                         for b in betas])
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
                         sup_norm=sup_norm, trend=trend, beta_max=beta_max,
                         meta={"trust_band": trust_band})


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
    """Residuals ||R v|| of near-imaginary trusted eigenvectors.

    r_selector is a sequence of (subsystem_index, trace_component) pairs
    selecting rows of the stacked trace, the concrete dissipation observer
    R.  A residual ~ 0 exposes an undamped imaginary mode invisible to R
    (an ASP violation), with near-imaginary |Re lambda| < 10 *
    ZERO_MODE_REL_TOL * max|a_red|.  Returns a list of (eigenvalue, residual).
    """
    rep = spectrum(gen)
    scale = max(float(np.abs(gen.a_red).max()), 1e-300)
    tol = ZERO_MODE_REL_TOL * scale * 10
    out = []
    for i, lam in enumerate(rep.eigenvalues):
        if abs(lam.real) >= tol:
            continue
        v = rep.eigenvectors[:, i]
        nrm = np.sqrt(float(np.real(v.conj() @ gen.m_red @ v)))
        taus = gen.traces(v / nrm if nrm > 0 else v)
        r_val = np.array([taus[j][comp] for j, comp in r_selector])
        out.append((complex(lam), float(np.linalg.norm(r_val))))
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
