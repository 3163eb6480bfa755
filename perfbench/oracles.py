"""Independent checks of each job's result, run outside the timed region.

Every oracle returns a list of problems; an empty list means the job's
output is correct.  They use numpy/scipy and the facts the input generator
built in, never the phnet routine whose output they check.
"""

import numpy as np
import scipy.linalg as sla

ABSCISSA_TOL = 1e-7         # certified networks: no trusted growth
SYM_DRIFT_RTOL = 1e-10      # dissipativity defect relative to max |sim|
CHAIN_ROOT_RTOL = 1e-6      # trusted chain modes vs transfer-matrix roots
CHAIN_MODES = 4
SCAN_NORM_RTOL = 1e-8
ENERGY_RTOL = 1e-12
H_END_RTOL = 1e-8


# ---------------------------------------------------------------- sweep

def chain_transfer_characteristic(lengths, rho, tension, kappa):
    """Characteristic function of the damped chain via transfer matrices.

    Piecewise-constant coefficients; left end y2(0) = kappa0 y1(0), free
    right end y2(L) = 0, joint dampers y2+ = y2- + kappa_j y1.  The zeros
    of the returned f(lambda) are the closed-loop eigenvalues.
    """
    def f(lam):
        vec = np.array([1.0, kappa[0]], dtype=complex)
        for j, length in enumerate(lengths):
            c = np.sqrt(tension[j] / rho[j])
            z = np.sqrt(tension[j] * rho[j])
            arg = lam * length / c
            vec = np.array([[np.cosh(arg), np.sinh(arg) / z],
                            [z * np.sinh(arg), np.cosh(arg)]]) @ vec
            if j + 1 < len(lengths):
                vec = np.array([[1.0, 0.0], [kappa[j + 1], 1.0]]) @ vec
        return vec[1]
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


def chain_mode_errors(transfer, eigenvalues):
    """Relative distance of each eigenvalue to the root refined from it."""
    f = chain_transfer_characteristic(**transfer)
    errs = []
    for lam in eigenvalues:
        root = secant_root(f, lam, lam * (1 + 1e-6) + 1e-6)
        errs.append(abs(root - lam) / (1.0 + abs(lam)))
    return errs


def sweep_oracle(item, out):
    problems = []
    cert = out["cert"]
    if cert.passed != item["dissipative"]:
        problems.append("certificate %s, but the network is %sdissipative by construction"
                        % ("passed" if cert.passed else "failed",
                           "" if item["dissipative"] else "not "))
    if not cert.passed:
        w = cert.witness
        if w is None or not np.all(np.isfinite(w)) or np.linalg.norm(w) == 0:
            problems.append("failed certificate carries no witness")
        return problems
    gen, rep = out["gen"], out["rep"]
    # the abscissa of an empty trusted set is -inf, not a failure
    if np.any(rep.eigenvalues.real > ABSCISSA_TOL):
        problems.append("certified, but trusted abscissa %.3e > %.0e"
                        % (rep.eigenvalues.real.max(), ABSCISSA_TOL))
    scale = max(1.0, float(np.abs(gen.sim_operator()).max()))
    if not gen.meta["sym_drift"] <= SYM_DRIFT_RTOL * scale:
        problems.append("sym_drift %.3e > %.0e * %.3e"
                        % (gen.meta["sym_drift"], SYM_DRIFT_RTOL, scale))
    if "transfer" in item:
        errs = chain_mode_errors(item["transfer"], rep.dominant(CHAIN_MODES))
        if errs and max(errs) > CHAIN_ROOT_RTOL:
            problems.append("chain mode off its transfer-matrix root by %.3e (rel)"
                            % max(errs))
    return problems


# ---------------------------------------------------------------- scan

def energy_frame_norm(m_red, s_red, beta):
    """||(i beta - m^{-1} s)^{-1}|| in the m-norm, through a Cholesky frame."""
    chol = sla.cholesky(m_red, lower=True)
    a = sla.solve_triangular(chol, sla.solve_triangular(chol, s_red.conj().T, lower=True)
                             .conj().T, lower=True)
    sv = sla.svdvals(1j * beta * np.eye(a.shape[0]) - a)
    return 1.0 / sv[-1]


def scan_oracle(item, out):
    problems = []
    if not out["verdict"].startswith(item["verdict"]):
        problems.append("verdict %r, expected %r" % (out["verdict"], item["verdict"]))
    scan, gen = out["scan"], out["gen"]
    ok = np.flatnonzero(~scan.diverged & np.isfinite(scan.norms))
    for u in item["beta_picks"]:
        i = ok[int(u * len(ok))]
        want = energy_frame_norm(gen.m_red, gen.s_red, scan.betas[i])
        rel = abs(scan.norms[i] - want) / want
        if not rel <= SCAN_NORM_RTOL:
            problems.append("norm at beta %.6g is %.12g, direct SVD gives %.12g"
                            % (scan.betas[i], scan.norms[i], want))
    return problems


# ---------------------------------------------------------------- trajectory

def cayley_energy(gen, x0, dt, steps):
    """H after `steps` Cayley steps from the m-orthogonal projection of x0."""
    z, m_full = gen.lift, gen.m_full
    m, s = gen.m_red, gen.s_red
    v = np.linalg.solve(m, z.conj().T @ (m_full @ x0))
    cayley = np.linalg.solve(m - 0.5 * dt * s, m + 0.5 * dt * s)
    v = np.linalg.matrix_power(cayley, steps) @ v
    return 0.5 * float(np.real(v.conj() @ m @ v))


def trajectory_oracle(item, out):
    problems = []
    trace = out["trace"]
    e = np.asarray(trace.energies)
    rise = float(np.diff(e).max()) if len(e) > 1 else 0.0
    if rise > ENERGY_RTOL * e[0]:
        problems.append("energy rises by %.3e (H0 = %.3e)" % (rise, e[0]))
    want = cayley_energy(out["gen"], out["x0"], trace.meta["dt"], trace.meta["steps"])
    if not abs(e[-1] - want) <= H_END_RTOL * want:
        problems.append("H_end %.15g, Cayley power gives %.15g" % (e[-1], want))
    return problems


ORACLES = {"sweep": sweep_oracle, "scan": scan_oracle, "trajectory": trajectory_oracle}
