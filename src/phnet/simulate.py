"""Contractive time integration of the reduced generator.

One step of the implicit midpoint rule is the Cayley transform

    (m_red - dt/2 s_red) v' = (m_red + dt/2 s_red) v,

which maps an m_red-dissipative generator to a discrete contraction for
every dt > 0 and is energy-preserving for conservative networks.  The
per-step energy balance (H_{k+1} - H_k)/dt = Re<A v_mid, v_mid> holds
exactly for the midpoint state v_mid = (v + v')/2.

Since m + dt/2 s = 2m - (m - dt/2 s), the step is taken in midpoint form:
solve (m_red - dt/2 s_red) w = m_red v, then v' = 2w - v, where w is the
midpoint state.  The pencil of the Gauss-Lobatto reduction is block sparse
(at n_red 940, m_red is 0.12 % and s_red 7 % nonzero), so the Cayley
matrix is factored once by SuperLU and each step costs one sparse product
and two sparse triangular solves.
"""

import numpy as np
from dataclasses import dataclass, field

INCOMPATIBLE_TOL = 1e-6

# SuperLU column ordering for the Cayley matrix.  Its pattern, that of
# m_red + s_red, is structurally symmetric, so minimum degree on A^T + A
# suits it.  SuperLU's default COLAMD fills it far more once joint dampers
# couple neighbouring strings: on a ten-string chain at n_red 940, L + U
# hold 795 570 nonzeros (90 % of dense) against 82 097 here, and a
# sparse solve then costs more than a dense one.
PERMC_SPEC = "MMD_AT_PLUS_A"


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
    """Sparse LU of (m_red - dt/2 s_red) for fixed dt, used in midpoint form.

    step(v) solves (m_red - dt/2 s_red) w = m_red v for the midpoint state w
    and returns v' = 2w - v, the Cayley step.  SuperLU factors the matrix
    once with the minimum-degree ordering PERMC_SPEC, which keeps L + U near
    9 % of dense at n_red 940 where the default COLAMD fills 90 %.  m is
    m_red in CSC form, so energy(v) costs O(nnz) too.  scipy.sparse is
    imported here, not with phnet: only stepping needs it.
    """

    def __init__(self, gen, dt):
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.gen = gen
        self.dt = float(dt)
        self.m = csc_matrix(gen.m_red)
        a = self.m - 0.5 * self.dt * csc_matrix(gen.s_red)
        try:
            self.lu = splu(a, permc_spec=PERMC_SPEC)
        except RuntimeError as exc:      # SuperLU: "Factor is exactly singular"
            raise RuntimeError(
                "Cayley solver failed at dt=%.3e (cond ~ %.2e): %s"
                % (dt, np.linalg.cond(a.toarray()), exc)) from exc

    def step(self, v):
        v = np.asarray(v)
        rhs = self.m @ v
        if np.iscomplexobj(rhs) and not np.iscomplexobj(self.m):   # real factor
            w = self.lu.solve(rhs.real) + 1j * self.lu.solve(rhs.imag)
        else:
            w = self.lu.solve(rhs)
        return 2.0 * w - v

    def energy(self, v):
        """H = 1/2 <v, v>_{m_red} of a reduced state, from the sparse m_red."""
        return 0.5 * float(np.real(np.vdot(v, self.m @ v)))


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
    """Integrate dv/dt = m_red^{-1} s_red v from a full sample-coordinate initial state.

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
