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
state.  Subsystems meet only through boundary ports, so past the kernel
coordinates s_red is block diagonal by subsystem, bordered by the kernel
rows and columns.  CayleyStepper eliminates the blocks against that border
once per dt, by explicit inverses, and a step is a few dense products on
numpy's BLAS.  On the ten-string chain at n = 48 (n_red 940, k = 19, ten
blocks of 92-93) a factor takes 3.6-6.1 ms and a step 38-52 us, against
14-23 ms and 82-154 us for the sparse LU it replaced; on thirty strings
(n_red 2820, k = 59) 15-25 ms and 249-329 us against 112-142 ms and
307-566 us (2 vCPUs, dt 2.5e-3).  The module imports no scipy.
"""

import numpy as np
from dataclasses import dataclass, field

INCOMPATIBLE_TOL = 1e-6


class StepSizeError(RuntimeError):
    """dt (with t_end) gives no step count numpy can record, or a Cayley
    matrix I - dt/2 s_red that cannot be factored."""


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


class CayleyStepper:
    """Bordered block elimination of A = I - dt/2 s_red for fixed dt, used in
    midpoint form.

    step(v) solves A w = v for the midpoint state w and returns v' = 2w - v,
    the Cayley step.  Subsystems meet only through boundary ports, so a
    subsystem's free rows of s_red reach only its own free columns and the
    kernel ones (the first k coordinates).  The free coordinates of each
    first-order subsystem make one block; the border holds the rest: the
    kernel coordinates and the free coordinates of higher-order subsystems
    and of the controllers.  A_ff, the blocks' part of A, is then block
    diagonal.  The factor inverts each block A_j once (one batched inv over
    a stack padded with identity), forms X = A_ff^{-1} A_fb and the Schur
    complement S = A_bb - A_bf X, and inverts S; a step takes y = A_ff^{-1}
    v_f, w_b = S^{-1} (v_b - A_bf y) and w_f = y - X w_b, on v gathered
    into the padded layout, so it is a handful of numpy calls.

    Explicit inverses are safe here: for a dissipative network Sym A = I -
    dt/2 Sym s_red >= I, so every A_j and S, a principal block and a Schur
    complement of A, has Hermitian part >= I as well, and each inverse has
    norm <= 1.  The inverses do not bound |S|, and the elimination loses
    accuracy in proportion to |S| / |A|.  A beam's derivative traces are
    dense in its nodes, so its free coordinates couple to the kernel through
    its n^4-scaled operator: eliminated as a block, they made |S| about
    |A|^2 (5.7e6 against 2.4e3 on spring_mass_damper_string_beam at n = 48)
    and put the solve 1.5e-12 off a dense LU's; in the border, |S| stays
    within 3 |A| on every network measured.  A lone beam is all border, one
    dense S^{-1}.  The blocks are gathered from s_red by index, so no n_red
    x n_red array is made.  The energy of a reduced state is 1/2 |v|^2; its
    traces are gen.trace_map @ v, which the stepper does not hold.
    """

    def __init__(self, gen, dt):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = float(dt)
        s, h, k = gen.s_red, 0.5 * self.dt, gen.kernel.shape[1]
        # subsystem j's free coordinates are [starts[j], stops[j]); those of
        # first-order subsystems make the blocks, and all others the border
        starts = k + np.searchsorted(gen.free, [sl.start for sl in gen.sample_slices])
        stops = k + np.searchsorted(gen.free, [sl.stop for sl in gen.sample_slices])
        first_order = np.array([sub.order == 1 for sub in gen.net.subsystems], dtype=bool)
        keep = first_order & (stops > starts)
        starts, sizes = starts[keep], (stops - starts)[keep]
        # the padded layout: block j in slots j*width.., then the border; a
        # pad slot reads its block's first coordinate, and zeroed pad rows and
        # columns keep it out of every product
        width = int(sizes.max(initial=0))
        real = np.arange(width) < sizes[:, None]
        both = real[:, :, None] & real[:, None, :]
        layout = starts[:, None] + np.arange(width) * real
        in_block = np.zeros(len(s), dtype=bool)
        in_block[layout] = True
        border = np.flatnonzero(~in_block)
        self.n_pad = layout.size
        self.gather = np.concatenate([layout.ravel(), border])
        self.place = np.empty(len(s), dtype=int)          # each coordinate's slot
        self.place[layout[real]] = np.flatnonzero(real)
        self.place[border] = self.n_pad + np.arange(len(border))
        self.real = not np.iscomplexobj(s)
        with np.errstate(all="ignore"):      # an overflow shows as a non-finite factor
            a_ff = np.where(both, -h * s[layout[:, :, None], layout[:, None, :]], 0.0)
            self.inv_ff = _inverse(a_ff + np.eye(width), self.dt) * both
            self.a_bf = -h * s[np.ix_(border, layout.ravel())] * real.ravel()
            a_fb = -h * s[np.ix_(layout.ravel(), border)] * real.ravel()[:, None]
            self.x = (self.inv_ff @ a_fb.reshape(*real.shape, len(border))).reshape(a_fb.shape)
            schur = -h * s[np.ix_(border, border)] - self.a_bf @ self.x
            schur[np.diag_indices_from(schur)] += 1.0
            self.inv_s = _inverse(schur, self.dt)
        if not all(np.isfinite(f).all() for f in (self.inv_ff, self.x, self.inv_s)):
            raise StepSizeError("Cayley solver failed at dt=%.3e: its factors are not "
                                "finite" % self.dt)

    def _solve(self, v):
        """w = A^{-1} v by the block elimination, in the padded layout.  With
        no blocks (a lone beam) it is w = S^{-1} v: the products with the
        empty blocks are skipped, as they cost more than that one gemv."""
        u = v[self.gather]
        if not self.n_pad:
            return (self.inv_s @ u)[self.place]
        y = (self.inv_ff @ u[:self.n_pad].reshape(*self.inv_ff.shape[:2], 1)).reshape(-1)
        w_b = self.inv_s @ (u[self.n_pad:] - self.a_bf @ y)
        return np.concatenate([y - self.x @ w_b, w_b])[self.place]

    def step(self, v):
        v = np.asarray(v)
        if np.iscomplexobj(v) and self.real:
            w = self._solve(v.real) + 1j * self._solve(v.imag)
        else:
            w = self._solve(v)
        return 2.0 * w - v

    def energy(self, v):
        """H = 1/2 |v|^2 of a reduced state."""
        return 0.5 * float(np.real(np.vdot(v, v)))


def _inverse(a, dt):
    """np.linalg.inv of a matrix or a stack; a singular one raises a
    StepSizeError naming dt and its condition number."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise StepSizeError("Cayley solver failed at dt=%.3e (cond ~ %.2e): %s"
                            % (dt, np.max(np.linalg.cond(a)), exc)) from exc


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
    if not np.isfinite(q):
        raise StepSizeError("t_end / dt = %.3e / %.3e is not a finite step count"
                            % (t_end, dt))
    k = round(q)
    return k if abs(q - k) <= 4 * np.finfo(float).eps * k else int(np.ceil(q))


def simulate(gen, x0, dt=None, t_end=10.0, record_every=1):
    """Integrate dv/dt = s_red v from a full sample-coordinate initial state.

    The initial state x0, of shape (gen.n_full,), is projected
    M-orthogonally onto the constraint null space; a projection residual
    above INCOMPATIBLE_TOL sets the warning field (incompatible initial
    datum: the compatibility conditions at the boundary fail).
    The start, every record_every-th step and the last step are recorded,
    each as its energy and its stacked traces gen.trace_map @ v, split per
    subsystem by gen.split_traces.
    A t_end / dt that is not finite, or more records than numpy can size,
    raises StepSizeError before the stepper is factored.
    """
    if (isinstance(record_every, bool) or not isinstance(record_every, (int, np.integer))
            or record_every < 1):
        raise ValueError("record_every must be a positive integer")
    v, residual = gen.project(x0)
    warning = ""
    if residual > INCOMPATIBLE_TOL:
        warning = ("incompatible initial datum: projection residual %.3e "
                   "exceeds %.1e" % (residual, INCOMPATIBLE_TOL))
    if dt is None:
        dt = default_dt(gen)
    n_steps = _step_count(t_end, dt)
    n_records = 1 + n_steps // record_every + (n_steps % record_every > 0)
    row_bytes = np.result_type(gen.trace_map, v).itemsize * max(gen.trace_map.shape[0], 1)
    if n_records * row_bytes > np.iinfo(np.intp).max:
        raise StepSizeError("dt=%.3e: %.3e records of %d bytes exceed numpy's largest array"
                            % (dt, n_records, row_bytes))
    stepper = CayleyStepper(gen, dt)
    tau = gen.trace_map @ v
    times, energies = np.zeros(n_records), np.empty(n_records)
    tau_rows = np.empty((n_records, len(tau)), dtype=tau.dtype)
    energies[0], tau_rows[0], r = stepper.energy(v), tau, 1
    for k in range(1, n_steps + 1):
        v = stepper.step(v)
        if k % record_every == 0 or k == n_steps:
            times[r], energies[r], tau_rows[r] = k * dt, stepper.energy(v), gen.trace_map @ v
            r += 1

    return EnergyTrace(times=times, energies=energies, traces=gen.split_traces(tau_rows),
                       warning=warning,
                       meta={"dt": dt, "steps": n_steps, "projection_residual": residual})
