"""Contractive time integration of the reduced generator.

In the energy frame of DiscreteGenerator, the energy is 1/2 |v|^2 and one
step of the implicit midpoint rule is the Cayley transform

    (I - dt/2 s_red) v' = (I + dt/2 s_red) v,

which maps a dissipative generator (Sym s_red <= 0) to a contraction for
every dt > 0 and is energy-preserving for conservative networks.  The
per-step energy balance (H_{k+1} - H_k)/dt = Re<s_red v_mid, v_mid> holds
exactly for the midpoint state v_mid = (v + v')/2.

Since I + dt/2 s = 2I - (I - dt/2 s), the step is taken in midpoint form:
solve (I - dt/2 s_red) w = v, then v' = 2w - v, where w is the midpoint
state.  s_red is block sparse (about 7 % nonzero at n_red 940), so the
Cayley matrix is factored once by SuperLU and each step costs two sparse
triangular solves.
"""

import numpy as np
from dataclasses import dataclass, field

INCOMPATIBLE_TOL = 1e-6

# SuperLU settings for the Cayley matrix I - dt/2 s_red.  Its pattern is
# structurally symmetric, so minimum degree on A^T + A suits it, and its
# Hermitian part is >= I when Sym s_red <= 0, so diagonal pivots are safe
# and keep that ordering's fill.  On the trajectory chain (ten strings,
# damped joints, n_red 940) L + U hold 89 262 nonzeros (10 % of dense),
# against 139 860 under COLAMD and 299 221 under partial pivoting.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.1


@dataclass
class EnergyTrace:
    """Time series of energies and boundary traces along one trajectory.

    traces[j] has shape (n_records, 2 N_j d_j) holding tau_j(Hx)(t_k);
    warning flags an initial projection residual above INCOMPATIBLE_TOL.
    """

    times: np.ndarray
    energies: np.ndarray
    traces: list
    warning: str = ""
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        """Columns: t, H, then s<j>_tau<i> flattened trace components."""
        header, columns = ["t", "H"], [self.times, self.energies]
        for j, tr in enumerate(self.traces):
            for i in range(tr.shape[1]):
                header.append("s%d_tau%d" % (j, i))
                columns.append(np.real(tr[:, i]))
        write_csv(path, header, columns)


def write_csv(path, header, columns):
    """One header row, then one row of %.17g values per entry of the columns."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in zip(*columns):
            f.write(",".join("%.17g" % v for v in row) + "\n")


class CayleyStepper:
    """Sparse LU of (I - dt/2 s_red) for fixed dt, used in midpoint form.

    step(v) solves (I - dt/2 s_red) w = v for the midpoint state w and
    returns v' = 2w - v, the Cayley step.  SuperLU factors the matrix once,
    with PERMC_SPEC and DIAG_PIVOT_THRESH.  The energy of a reduced state
    is 1/2 |v|^2.  scipy.sparse is imported here, not with phnet: only
    stepping needs it.
    """

    def __init__(self, gen, dt):
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.gen = gen
        self.dt = float(dt)
        a = csc_matrix(np.eye(len(gen.s_red)) - 0.5 * self.dt * gen.s_red)
        self.real = not np.iscomplexobj(a)
        try:
            self.lu = splu(a, permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:      # SuperLU: "Factor is exactly singular"
            raise RuntimeError(
                "Cayley solver failed at dt=%.3e (cond ~ %.2e): %s"
                % (dt, np.linalg.cond(a.toarray()), exc)) from exc

    def step(self, v):
        v = np.asarray(v)
        if np.iscomplexobj(v) and self.real:
            w = self.lu.solve(v.real) + 1j * self.lu.solve(v.imag)
        else:
            w = self.lu.solve(v)
        return 2.0 * w - v

    def energy(self, v):
        """H = 1/2 |v|^2 of a reduced state."""
        return 0.5 * float(np.real(np.vdot(v, v)))


def default_dt(gen, spectrum_report=None):
    """min(1e-2, 0.5 / max |Im| of the 10 dominant trusted modes)."""
    from .analysis import spectrum
    rep = spectrum_report if spectrum_report is not None else spectrum(gen)
    dom = rep.dominant(10)
    top = float(np.abs(dom.imag).max()) if len(dom) else 0.0
    return min(1e-2, 0.5 / top) if top > 0 else 1e-2


def _step_count(t_end, dt):
    """ceil(t_end / dt), but a quotient within rounding of an integer is
    that integer: t_end = 4000 dt must not give 4001 steps."""
    q = t_end / dt
    k = round(q)
    return k if abs(q - k) <= 4 * np.finfo(float).eps * k else int(np.ceil(q))


def simulate(gen, x0, dt=None, t_end=10.0, record_every=1):
    """Integrate dv/dt = s_red v from a full sample-coordinate initial state.

    x0 may omit the controller tail (zeros appended).  The initial state is
    projected M-orthogonally onto the constraint null space; a projection
    residual above INCOMPATIBLE_TOL sets the warning field (incompatible
    initial datum: the compatibility conditions at the boundary fail).
    """
    x0 = np.asarray(x0)
    n_full = gen.n_full
    if x0.shape[0] == gen.controller_slice.start and n_full > x0.shape[0]:
        x0 = np.concatenate([x0, np.zeros(n_full - x0.shape[0], dtype=x0.dtype)])
    if x0.shape[0] != n_full:
        raise ValueError("x0 has length %d, expected %d (or %d without controllers)"
                         % (x0.shape[0], n_full, gen.controller_slice.start))
    v, residual = gen.project(x0)
    warning = ""
    if residual > INCOMPATIBLE_TOL:
        warning = ("incompatible initial datum: projection residual %.3e "
                   "exceeds %.1e" % (residual, INCOMPATIBLE_TOL))
    if dt is None:
        dt = default_dt(gen)
    n_steps = _step_count(t_end, dt)
    stepper = CayleyStepper(gen, dt)

    times = [0.0]
    energies = [stepper.energy(v)]
    tau_rows = [gen.trace_map @ v]
    for k in range(1, n_steps + 1):
        v = stepper.step(v)
        if k % record_every == 0 or k == n_steps:
            times.append(k * dt)
            energies.append(stepper.energy(v))
            tau_rows.append(gen.trace_map @ v)

    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       traces=gen.split_traces(np.array(tau_rows)),
                       warning=warning,
                       meta={"dt": dt, "t_end": t_end, "steps": n_steps,
                             "projection_residual": residual})
