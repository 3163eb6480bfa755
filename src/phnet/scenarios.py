"""Constructors for the worked example networks, one builder per scenario
(SCENARIOS[name]["build"]): its keywords are the scenario's whole parameter
set, and its keyword defaults are the scenario's defaults.

chain_of_strings          serially damped wave segments, K with the
                          -kappa0 / +-1 / -kappa_j pattern
euler_bernoulli_beam      one order-2 subsystem, dissipative left end K_0,
                          clamped (or catalog) right end
damper_string_beam        wave + pinned beam with conserving transmission
                          and a boundary damper
spring_mass_damper_string_beam
                          the same with the (m, k, r) tip controller in
                          place of the damper
mass_damped_string        wave + tip mass-spring-damper, free far end: the
                          resolvent-growth demonstration (asymptotically
                          but not uniformly exponentially stable)

State identification for every wave segment: x = (rho w_t, w_zeta) with
H = diag(1/rho, T), so y = Hx = (w_t, T w_zeta) carries physical velocity
and force at the ports; the beam uses x = (rho w_t, w_zz) with
H = diag(1/rho, EI).  Damping signs are the energy-dissipative ones; set
literal_bc_sign on the chain for the opposite end-damper orientation
(T w_z)(0) = -kappa0 w_t(0), which pumps energy and fails certification.
"""

import numpy as np

from .model import MatrixFunction, PHSubsystem, _has_leaf, _is_bool, _is_integral, flux_matrix
from .network import Controller, Network


class ScenarioError(ValueError):
    """A scenario invariant was violated by the requested parameters."""


# uniform grid on which non-constant profiles are checked and resampled
_PROFILE_Z = np.linspace(0.0, 1.0, 513)


def scalar_profile(value):
    """1 x 1 MatrixFunction from a number, a 1 x 1 MatrixFunction, or a dict {"kind":
    "constant", "data": number} or {"kind": "polynomial" | "samples", "data": [numbers]}."""
    if isinstance(value, MatrixFunction) and value.dim == 1:
        return value
    if isinstance(value, dict):
        data = np.asarray(value["data"], dtype=float)
        if not data.size or data.ndim != (0 if value["kind"] == "constant" else 1):
            raise ScenarioError("profile %r has no data or data of the wrong shape: a constant "
                                "takes one number, the other kinds a flat list" % (value,))
        return MatrixFunction(value["kind"], data.reshape(data.shape + (1, 1)))
    if np.isscalar(value):
        return MatrixFunction.constant(float(value))
    raise ScenarioError("cannot interpret %r as a coefficient profile" % (value,))


def _require_finite(values, what):
    """values, or ScenarioError when a coefficient overflowed into them."""
    if not np.isfinite(values).all():
        raise ScenarioError("%s is not finite: coefficients out of floating-point range"
                            % what)
    return values


def _diag_hamiltonian(rho, stiffness, length=None):
    """H = diag(1/rho, EI) of a beam, or diag(1/(l rho), T/l) of a wave
    segment of length l, from the raw parameters.  Each profile must be
    positive on _PROFILE_Z and on its check_grid(), which holds a sampled
    profile's knots.  H is exact when both are constant, else sampled on
    _PROFILE_Z; out of floating-point range it is a ScenarioError."""
    wave = length is not None
    rho, stiffness = scalar_profile(rho), scalar_profile(stiffness)
    for profile in (rho, stiffness):
        if profile(np.concatenate([_PROFILE_Z, profile.check_grid()])).real.min() <= 0:
            raise ScenarioError("rho and %s must be uniformly positive"
                                % ("T" if wave else "EI"))
    fold = length if wave else 1.0
    with np.errstate(all="ignore"):
        inertia = MatrixFunction(rho.kind, rho.data * fold)
        stiffness = MatrixFunction(stiffness.kind, stiffness.data / fold)
        if inertia.kind == "constant" and stiffness.kind == "constant":
            ham = MatrixFunction.constant(np.diag([1.0 / inertia.data[0, 0],
                                                   stiffness.data[0, 0]]))
        else:
            vals = np.zeros((len(_PROFILE_Z), 2, 2))
            vals[:, 0, 0] = 1.0 / inertia(_PROFILE_Z)[:, 0, 0]
            vals[:, 1, 1] = stiffness(_PROFILE_Z)[:, 0, 0]
            ham = MatrixFunction.samples(vals)
    _require_finite(ham.data, "H = diag(1/(l rho), T/l)" if wave else "H = diag(1/rho, EI)")
    return ham


def _subsystem(p_matrices, ham, rows, label):
    """Every wave and beam subsystem: W_B from rows, W_C from the flux form.

    rows are (defining trace component i, W_B row) pairs.  The W_C row of
    each is the flux-conjugate partner sign(Q[i, p] row[i]) e_p, p the one
    nonzero column of row i of Q = flux_matrix(p_matrices): unit W_B rows
    give Sym(W_C* W_B) = Q/2 (impedance passive with equality), and
    [W_B; W_C] stays invertible whatever coupling terms a dissipative end
    adds to a row.
    """
    order, dim = len(p_matrices) - 1, len(p_matrices[-1])
    q = flux_matrix(p_matrices)
    w_c = []
    for i, row in rows:
        (p,) = np.flatnonzero(q[i])
        w_c.append(np.sign(q[i, p] * row[i]) * np.eye(len(q))[p])
    return PHSubsystem(order=order, dim=dim, p_matrices=p_matrices, hamiltonian=ham,
                       w_b=np.vstack([row for _, row in rows]), w_c=np.vstack(w_c),
                       label=label)


P1_WAVE = np.array([[0.0, 1.0], [1.0, 0.0]])
P2_BEAM = np.array([[0.0, -1.0], [1.0, 0.0]])

# wave W_B rows (negated y(0) component, y(1) component) over the trace
# tau = (y1(1), y2(1), y1(0), y2(0)) of N=1, d=2
_WAVE_PORTS = {"interior": (3, 0), "last": (3, 1),
               "mass_interior": (2, 0), "mass_free": (2, 1)}


def _wave_subsystem(rho, tension, length=1.0, kind="interior", label=""):
    """Impedance-passive wave segment on (0, 1) carrying physical ports.

    A physical segment of length l folds into the unit interval through
    H = diag(1/(l rho), T/l), which keeps both the physical energy and the
    physical port variables (w_t, T w_zeta), so joints couple without
    length factors.  kind selects W_B; W_C is its flux-conjugate partner:
      interior      : B = (-y2(0), y1(1)),  C = (y1(0), y2(1))
      last          : B = (-y2(0), y2(1)),  C = (y1(0), y1(1))
      mass_interior : B = (-y1(0), y1(1)),  C = (y2(0), y2(1))
      mass_free     : B = (-y1(0), y2(1)),  C = (y2(0), y1(1))
    """
    ham = _diag_hamiltonian(rho, tension, length)
    if kind not in _WAVE_PORTS:
        raise ScenarioError("unknown wave port splitting %r" % (kind,))
    (b0, b1), unit = _WAVE_PORTS[kind], np.eye(4)
    return _subsystem((None, P1_WAVE), ham, ((b0, -unit[b0]), (b1, unit[b1])), label)


# trace component indices for N=2, d=2:
# tau = (y1(1), y2(1), y1'(1), y2'(1), y1(0), y2(0), y1'(0), y2'(0))
_W2 = np.eye(8)
# the components each conservative beam end fixes, at the right end z = 1;
# the left end z = 0 fixes the same components + 4
_BEAM_ENDS = {
    "pinned": (0, 1), "bc5": (0, 1),
    "free": (1, 3),
    "shear_hinge": (2, 3), "bc6": (2, 3),
    "clamped": (0, 2),
}


def _unit_rows(indices):
    """(defining trace component, W_B row) pairs of catalog rows."""
    return tuple((i, _W2[i]) for i in indices)


def _beam_subsystem(rho, ei, left_rows, right_rows, label=""):
    """left_rows / right_rows: (defining trace component, W_B row) pairs."""
    return _subsystem((None, np.zeros((2, 2)), P2_BEAM), _diag_hamiltonian(rho, ei),
                      right_rows + left_rows, label)


def _dissipative_end_rows(k0):
    """Left-end (defining component, row) pairs of (y2(0), y2'(0)) = K0-coupled
    angular/linear velocity.

    Encodes ((EI w_zz)(0), -(EI w_zz)_z(0)) = +K0 (w_tz(0), w_t(0)), the
    energy-dissipating orientation: the boundary power is -v* Sym(K0) v
    with v = (w_tz(0), w_t(0)).
    """
    k0 = np.asarray(k0, dtype=float)
    row_a = _W2[5] - k0[0, 0] * _W2[6] - k0[0, 1] * _W2[4]
    row_b = _W2[7] + k0[1, 0] * _W2[6] + k0[1, 1] * _W2[4]
    return ((5, row_a), (7, row_b))


def _validate_k0(k0):
    k0 = np.asarray(k0, dtype=float)
    if k0.shape != (2, 2):
        raise ScenarioError("K0 must be 2 x 2")
    if np.abs(k0).max() == 0:
        return k0      # conservative free end
    sym = 0.5 * (k0 + k0.T)
    diag_class = (k0[0, 0] > 0 and k0[0, 1] == 0 and k0[1, 0] == 0 and k0[1, 1] == 0)
    pd_class = np.linalg.eigvalsh(sym).min() > 1e-12 * max(1.0, np.abs(k0).max())
    if not (diag_class or pd_class):
        raise ScenarioError(
            "K0 must be diag(k0_11, 0) with k0_11 > 0, have Sym K0 positive "
            "definite, or be zero (conservative)")
    return k0


def _per_segment(values, default, what):
    """values, one entry per segment as default has, or default for None;
    anything else is a ScenarioError naming what."""
    if values is None:
        return default
    listed = (isinstance(values, (list, tuple))
              or isinstance(values, np.ndarray) and values.ndim == 1)
    if not (listed and len(values) == len(default)):
        raise ScenarioError("%s must be a list of %d entries, one per segment, got %r"
                            % (what, len(default), values))
    return values


def build_chain(*, m=3, rho=None, tension=None, kappa=None, lengths=None,
                literal_bc_sign=False):
    """Chain of m serially connected strings, damped at the left end.

    kappa = (kappa0, ..., kappa_{m-1}): kappa0 > 0 is the end damper,
    kappa_j >= 0 the joint dampers; it defaults to (0.5, 0, ..., 0).
    rho and tension hold one profile per segment (default 1).  lengths are
    physical segment lengths (joints zeta^j = cumulative sums), folded
    into the unit-interval Hamiltonians.  literal_bc_sign flips the end
    damper to (T w_z)(0) = -kappa0 w_t(0), which pumps energy.  Each
    joint couples segment j's z = 1 end to segment j + 1's z = 0 end, so
    the chain is serial in its natural order.
    """
    if not _is_integral(m) or m < 1:
        raise ScenarioError("m must be a positive integer, got %r" % (m,))
    m = int(m)
    rho = [scalar_profile(r) for r in _per_segment(rho, [1.0] * m, "rho")]
    tension = [scalar_profile(t) for t in _per_segment(tension, [1.0] * m, "tension")]
    kappa = [float(k) for k in _per_segment(kappa, [0.5] + [0.0] * (m - 1), "kappa")]
    lengths = [float(v) for v in _per_segment(lengths, [1.0] * m, "lengths")]
    if not kappa[0] > 0:
        raise ScenarioError("kappa0 > 0 is required (left-end damper)")
    if any(k < 0 for k in kappa[1:]):
        raise ScenarioError("joint dampers kappa_j must be >= 0")
    if any(l <= 0 for l in lengths):
        raise ScenarioError("segment lengths must be positive")
    subsystems = []
    for j in range(m):
        kind = "interior" if j < m - 1 else "last"
        subsystems.append(_wave_subsystem(rho[j], tension[j], length=lengths[j],
                                          kind=kind, label="string_%d" % (j + 1)))
    k = np.zeros((2 * m, 2 * m))
    k[0, 0] = kappa[0] if literal_bc_sign else -kappa[0]
    for j in range(m - 1):
        # velocity continuity: B^j_2 = y1_j(1) equals C^{j+1}_1 = y1_{j+1}(0)
        k[2 * j + 1, 2 * (j + 1)] = 1.0
        # force balance: B^{j+1}_1 = -y2_{j+1}(0) = -y2_j(1) - kappa_{j+1} y1_{j+1}(0)
        k[2 * (j + 1), 2 * j + 1] = -1.0
        k[2 * (j + 1), 2 * (j + 1)] = -kappa[j + 1]
    # free right end: row 2m-1 stays zero
    return Network(subsystems=subsystems, k_mat=k, label="chain_of_strings")


def build_beam(*, rho=1.0, ei=1.0, left_bc=((1.0, 0.0), (0.0, 0.0)), right_bc="clamped"):
    """One Euler-Bernoulli beam with a dissipative or conservative left end.

    left_bc: a 2 x 2 matrix K0 (dissipative end; admissible classes
    diag(k > 0, 0), Sym K0 > 0, or zero = conservative free end; default
    diag(1, 0)) or one of the conservative enum names.  right_bc: pinned |
    free | shear_hinge | clamped | bc5 | bc6, clamped by default.  The
    network is the single subsystem with the K = 0 closure.
    """
    if right_bc not in _BEAM_ENDS:
        raise ScenarioError("unknown right_bc %r (choose from %s)"
                            % (right_bc, sorted(_BEAM_ENDS)))
    if isinstance(left_bc, str):
        if left_bc not in _BEAM_ENDS:
            raise ScenarioError("unknown left_bc %r" % (left_bc,))
        left = _unit_rows(i + 4 for i in _BEAM_ENDS[left_bc])
    else:
        left = _dissipative_end_rows(_validate_k0(left_bc))
    beam = _beam_subsystem(rho, ei, left, _unit_rows(_BEAM_ENDS[right_bc]), label="beam")
    return Network(subsystems=(beam,), k_mat=np.zeros((4, 4)),
                   label="euler_bernoulli_beam")


def _msd_controller(m, k, r):
    """Tip mass-spring-damper as an impedance-passive controller.

    State (w(0), w_t(0)) with energy weight diag(k, m); force input, the
    1/m in B_c makes the supply rate match <u, C_c x_c> exactly and gives
    Re<A x, x> = -r |x_c2|^2.
    """
    if not (m > 0 and k > 0 and r > 0):
        raise ScenarioError("mass, stiffness, damping must be positive "
                            "(damping = 0 leaves the loop undamped)")
    a_c = _require_finite(np.array([[0.0, 1.0], [-k / m, -r / m]]), "A_c")
    b_c = _require_finite(np.array([[0.0], [1.0 / m]]), "B_c")
    c_c = np.array([[0.0, 1.0]])
    d_c = np.zeros((1, 1))
    return Controller(a_c=a_c, b_c=b_c, c_c=c_c, d_c=d_c,
                      state_weight=np.diag([k, m]))


def _string_beam(rho, tension, rho_beam, ei_beam, string_kind):
    """(string, pinned beam) and K with the joint rows; the caller closes
    the string's left end.

    Transmission rows (energy coordinates, conserving signs):
        y1_beam(0) = y1_string(1)      velocity continuity at the joint
        y2_beam'(0) = -y2_string(1)    shear balances the string force
        y2_beam(0) = 0                 no moment at the joint
        (H x_beam)(1) = 0              pinned right end
    """
    string = _wave_subsystem(rho, tension, kind=string_kind, label="string")
    # beam left end: shear row y2'(0) (junction) and moment row y2(0) = 0
    beam = _beam_subsystem(rho_beam, ei_beam,
                           left_rows=_unit_rows((7, 5)),
                           right_rows=_unit_rows((0, 1)),
                           label="beam")
    # ports: string rows 0-1, beam rows 2-5 (pinned right end, then the
    # left rows); the beam's C_3 = y1(0), partner of y2'(0), is column 4
    k = np.zeros((6, 6))
    k[1, 4] = 1.0       # string's right port equals the beam's left velocity
    k[4, 1] = -1.0      # beam shear row y2'(0) = -y2_string(1)
    return (string, beam), k


def build_damper_string_beam(*, rho=1.0, tension=1.0, kappa=1.0, rho_beam=1.0,
                             ei_beam=1.0):
    """String transmitting into a pinned beam, its left end damped by kappa > 0."""
    if not kappa > 0:
        raise ScenarioError("the boundary damper needs kappa > 0")
    subsystems, k = _string_beam(rho, tension, rho_beam, ei_beam, "interior")
    k[0, 0] = -kappa   # -y2(0) = -kappa y1(0): dissipative damper
    return Network(subsystems=subsystems, k_mat=k, label="damper_string_beam")


def build_spring_mass_damper_string_beam(*, rho=1.0, tension=1.0, rho_beam=1.0,
                                         ei_beam=1.0, mass=1.0, stiffness=1.0,
                                         damping=1.0):
    """String transmitting into a pinned beam, the (mass, stiffness,
    damping) tip controller hung on the string's left end."""
    controller = _msd_controller(mass, stiffness, damping)
    subsystems, k = _string_beam(rho, tension, rho_beam, ei_beam, "mass_interior")
    return Network(subsystems=subsystems, controllers=(controller,), k_mat=k,
                   coupling=((0,),), label="spring_mass_damper_string_beam")


def build_mass_damped_string(*, rho=1.0, tension=1.0, mass=1.0, stiffness=1.0,
                             damping=1.0):
    """String with a tip mass-spring-damper, free right end.

    Every mode is damped (ASP holds) but the modal decay rates vanish like
    1/beta^2, so the resolvent peaks grow along the imaginary axis: the
    discrete surrogate of asymptotic-but-not-exponential stability.
    """
    controller = _msd_controller(mass, stiffness, damping)
    string = _wave_subsystem(rho, tension, kind="mass_free", label="string")
    return Network(subsystems=(string,), controllers=(controller,),
                   k_mat=np.zeros((2, 2)), coupling=((0,),),
                   label="mass_damped_string")


def make_initial_state(net, gen, preset="sine"):
    """Full sample-coordinate initial state from a named preset.

    Shapes the first state component of each subsystem with sine, a
    Gaussian bump, or a random low-mode sum seeded by "random:<seed>"
    ("random" alone is "random:0"); all other components and controller
    states start at zero.
    """
    if preset == "random" or preset.startswith("random:"):
        try:
            seed = int(preset.split(":", 1)[1]) if ":" in preset else 0
            rng = np.random.default_rng(seed)
        except ValueError as exc:      # not an integer, or negative
            raise ScenarioError("bad seed for preset %r: %s" % (preset, exc)) from exc
        kind = "random"
    else:
        kind = preset
        rng = None
    x0 = np.zeros(gen.n_full)
    for j, (s, grid) in enumerate(zip(net.subsystems, gen.grids)):
        z = grid.points
        if kind == "sine":
            shape = np.sin(np.pi * z)
        elif kind == "bump":
            shape = np.exp(-((z - 0.5) / 0.12) ** 2)
        elif kind == "random":
            coeff = rng.standard_normal(6)
            shape = sum(c * np.sin((i + 1) * np.pi * z) for i, c in enumerate(coeff))
        else:
            raise ScenarioError("unknown initial-state preset %r" % (preset,))
        sl = gen.sample_slices[j]
        block = np.zeros((len(z), s.dim))
        block[:, 0] = shape
        x0[sl] = block.reshape(-1)
    return x0


SCENARIOS = {
    "chain_of_strings": {
        "build": build_chain,
        "defaults": {"m": 3},   # kappa defaults to (0.5, 0, ..., 0) for any m
        "doc": "m wave segments, damped left end, free right end",
    },
    "euler_bernoulli_beam": {
        "build": build_beam,
        "defaults": {"left_bc": [[1.0, 0.0], [0.0, 0.0]], "right_bc": "clamped"},
        "doc": "single beam, dissipative left end K0, conservative right end",
    },
    "damper_string_beam": {
        "build": build_damper_string_beam,
        "defaults": {"kappa": 1.0},
        "doc": "damped string transmitting into a pinned beam",
    },
    "spring_mass_damper_string_beam": {
        "build": build_spring_mass_damper_string_beam,
        "defaults": {"mass": 1.0, "stiffness": 1.0, "damping": 1.0},
        "doc": "string-beam with a tip mass-spring-damper controller",
    },
    "mass_damped_string": {
        "build": build_mass_damped_string,
        "defaults": {"mass": 1.0, "stiffness": 1.0, "damping": 1.0},
        "doc": "resolvent-growth demonstration: ASP holds, AIEP surrogate fails",
    },
}


def build_scenario(name, params=None):
    if not (isinstance(name, str) and name in SCENARIOS):
        raise ScenarioError("unknown scenario %r (choose from %s)"
                            % (name, sorted(SCENARIOS)))
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ScenarioError("scenario params must be an object, got %r" % (params,))
    for key, value in params.items():
        # a JSON true would read as 1 in a number, and "no" as a set flag
        if not isinstance(value, bool) if key == "literal_bc_sign" else _has_leaf(value, _is_bool):
            raise ScenarioError("parameter %r = %r: literal_bc_sign must be a boolean, "
                                "and no other parameter may hold one" % (key, value))
        # JSON reads NaN and Infinity, which no coefficient may hold
        if _has_leaf(value, lambda x: isinstance(x, (float, np.floating))
                     and not np.isfinite(x)):
            raise ScenarioError("parameter %r = %r: every number must be finite, "
                                "not NaN or infinity" % (key, value))
    try:
        return SCENARIOS[name]["build"](**params)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # an unknown keyword, a value of the wrong type or shape, an int beyond float range
        raise ScenarioError("bad parameters for scenario %r: %s" % (name, exc)) from exc
