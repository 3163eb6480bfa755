"""Contractive time integration of the reduced generator.

One step of the implicit midpoint rule is the Cayley transform

    (m_red - dt/2 s_red) v' = (m_red + dt/2 s_red) v,

which maps an m_red-dissipative generator to a discrete contraction for
every dt > 0 and is energy-preserving for conservative networks.  The
per-step energy balance (H_{k+1} - H_k)/dt = Re<A v_mid, v_mid> holds
exactly for the midpoint state v_mid = (v + v')/2.
"""

import numpy as np
import scipy.linalg as sla
from dataclasses import dataclass, field

INCOMPATIBLE_TOL = 1e-6


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
    """Reusable factorization of (m_red - dt/2 s_red) for fixed dt."""

    def __init__(self, gen, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.gen = gen
        self.dt = float(dt)
        a = gen.m_red - 0.5 * dt * gen.s_red
        self.b = gen.m_red + 0.5 * dt * gen.s_red
        try:
            self.lu = sla.lu_factor(a)
        except (ValueError, sla.LinAlgError) as exc:
            raise RuntimeError(
                "Cayley solver failed at dt=%.3e (cond ~ %.2e): %s"
                % (dt, np.linalg.cond(a), exc)) from exc

    def step(self, v):
        return sla.lu_solve(self.lu, self.b @ np.asarray(v))


def default_dt(gen, spectrum_report=None):
    """min(1e-2, 0.5 / max |Im| of the 10 dominant trusted modes)."""
    from .analysis import spectrum
    rep = spectrum_report if spectrum_report is not None else spectrum(gen)
    dom = rep.dominant(10)
    top = float(np.abs(dom.imag).max()) if len(dom) else 0.0
    return min(1e-2, 0.5 / top) if top > 0 else 1e-2


def simulate(gen, x0, dt=None, t_end=10.0, record_every=1):
    """Integrate dv/dt = a_red v from a full sample-coordinate initial state.

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
    n_steps = int(np.ceil(t_end / dt))
    stepper = CayleyStepper(gen, dt)

    times = [0.0]
    energies = [gen.energy(v)]
    tau_rows = [gen.trace_map @ v]
    for k in range(1, n_steps + 1):
        v = stepper.step(v)
        if k % record_every == 0 or k == n_steps:
            times.append(k * dt)
            energies.append(gen.energy(v))
            tau_rows.append(gen.trace_map @ v)

    return EnergyTrace(times=np.array(times), energies=np.array(energies),
                       traces=gen.split_traces(np.array(tau_rows)),
                       warning=warning,
                       meta={"dt": dt, "t_end": t_end, "steps": n_steps,
                             "projection_residual": residual})
