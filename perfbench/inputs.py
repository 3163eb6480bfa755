"""Seeded network documents for the three workloads.

Every input is a JSON-ready dict in the phnet network-file format; the
program sees it only through ``netfile.network_from_dict``.  This module
uses numpy alone, so the documents (and the verdicts they are built to
have) do not depend on any phnet code path.

Each sweep item also carries what is known about it by construction:
whether the closed loop is dissipative, and for piecewise-constant chains
the parameters of the transfer-matrix oracle.
"""

import numpy as np

SWEEP_BLOCKS = 10
SWEEP_N = (24, 32, 40)

# name, params, n, verdict: the five `phnet resolvent` networks and the
# prefix of the verdict string each one is expected to get
SCAN_CASES = (
    ("chain_of_strings", {"m": 3}, 32, "exponentially stable"),
    ("chain_of_strings", {"m": 2}, 48, "exponentially stable"),
    ("mass_damped_string", {}, 48, "exponential stability NOT indicated"),
    ("spring_mass_damper_string_beam", {}, 32, "exponential stability NOT indicated"),
    ("damper_string_beam", {}, 40, "exponentially stable"),
)

TRAJECTORY_M = 10
TRAJECTORY_N = 48
TRAJECTORY_LENGTH = 0.25    # short segments put the dominant modes near |Im| 200:
                            # default step ~2.5e-3, so 4000 steps reach t ~ 10

# (order, dim) per subsystem, complex?, flaw; n.  A real P_N of even order
# is skew, so it needs an even dim to be invertible.
EXPLICIT_CELLS = (
    ((((1, 2),), False), 24),
    ((((4, 2),), False), 32),
    ((((3, 1),), True), 40),
    ((((1, 2), (2, 2)), False), 24),
    ((((1, 1), (3, 2)), True), 32),
    ((((2, 2), (2, 2)), False), 40),
    ((((1, 2), (1, 2), (2, 2)), False), 24),
    ((((1, 1), (2, 1), (3, 1)), True), 32),
    ((((2, 2), (1, 2), (1, 1)), False), 40),
    ((((1, 2),), False, "pumping"), 32),
    ((((1, 1), (2, 2)), False, "pumping"), 32),
    ((((2, 2), (1, 1)), False, "active"), 32),
)

BEAM_RIGHT = ("pinned", "free", "shear_hinge", "clamped", "bc5", "bc6")
BEAM_LEFT_ENUM = ("pinned", "free", "shear_hinge", "clamped")


def encode(a):
    """Nested lists; complex entries as [re, im] pairs (the file format)."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.tolist()


def scenario_doc(name, params):
    return {"schema": 1, "scenario": {"name": name, "params": params}}


def _profile(rng, lo=0.5, hi=2.0, poly=False):
    """A positive coefficient: a constant, or a linear polynomial."""
    base = float(rng.uniform(lo, hi))
    if not poly:
        return base
    slope = float(rng.uniform(-0.3, 0.3)) * base
    return {"kind": "polynomial", "data": [base, slope]}


# ---------------------------------------------------------------- chains

def chain_item(rng, m, dissipative=True):
    poly = bool(rng.random() < 0.25)
    kappa = [float(rng.uniform(0.2, 0.9))]
    kappa += [float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0
              for _ in range(m - 1)]
    lengths = [float(rng.uniform(0.5, 1.5)) for _ in range(m)]
    rho = [_profile(rng, poly=poly) for _ in range(m)]
    tension = [_profile(rng, poly=poly) for _ in range(m)]
    params = {"m": m, "kappa": kappa, "lengths": lengths, "rho": rho,
              "tension": tension}
    if not dissipative:
        params["literal_bc_sign"] = True
    item = {"kind": "chain", "doc": scenario_doc("chain_of_strings", params),
            "dissipative": dissipative}
    if not poly:
        item["transfer"] = {"lengths": lengths, "rho": rho, "tension": tension,
                            "kappa": kappa}
    return item


# ---------------------------------------------------------------- beams

def beam_item(rng):
    cls = int(rng.integers(0, 4))
    if cls == 0:                                   # K0 = diag(k, 0)
        left = [[float(rng.uniform(0.3, 2.0)), 0.0], [0.0, 0.0]]
    elif cls == 1:                                 # Sym K0 positive definite
        g = rng.standard_normal((2, 2))
        skew = float(rng.standard_normal())
        k0 = g @ g.T + 0.3 * np.eye(2) + np.array([[0.0, skew], [-skew, 0.0]])
        left = k0.tolist()
    elif cls == 2:                                 # K0 = 0: conservative free end
        left = [[0.0, 0.0], [0.0, 0.0]]
    else:                                          # conservative catalog end
        left = BEAM_LEFT_ENUM[int(rng.integers(len(BEAM_LEFT_ENUM)))]
    params = {"left_bc": left,
              "right_bc": BEAM_RIGHT[int(rng.integers(len(BEAM_RIGHT)))],
              "rho": _profile(rng, poly=rng.random() < 0.25),
              "ei": _profile(rng, poly=rng.random() < 0.25)}
    return {"kind": "beam", "doc": scenario_doc("euler_bernoulli_beam", params),
            "dissipative": True}


def coupled_item(rng, variant):
    params = {"rho": _profile(rng), "tension": _profile(rng),
              "rho_beam": _profile(rng), "ei_beam": _profile(rng)}
    if variant == "damper_string_beam":
        params["kappa"] = float(rng.uniform(0.3, 2.0))
    else:
        params.update(mass=float(rng.uniform(0.5, 2.0)),
                      stiffness=float(rng.uniform(0.5, 2.0)),
                      damping=float(rng.uniform(0.3, 2.0)))
    return {"kind": "coupled", "doc": scenario_doc(variant, params),
            "dissipative": True}


def mass_damped_item(rng):
    params = {"rho": _profile(rng), "tension": _profile(rng),
              "mass": float(rng.uniform(0.5, 2.0)),
              "stiffness": float(rng.uniform(0.5, 2.0)),
              "damping": float(rng.uniform(0.3, 2.0))}
    return {"kind": "mass_damped", "doc": scenario_doc("mass_damped_string", params),
            "dissipative": True}


# ---------------------------------------------------------------- explicit

def _flux_matrix(p_list, order, dim):
    """Boundary flux form Q from the integration-by-parts identity."""
    q = np.zeros((2 * order * dim,) * 2, dtype=np.result_type(*p_list[1:]))

    def add(row, col, mat):
        q[row * dim:(row + 1) * dim, col * dim:(col + 1) * dim] += mat / 2.0
        q[col * dim:(col + 1) * dim, row * dim:(row + 1) * dim] += mat.conj().T / 2.0

    for k in range(1, order + 1):
        for j in range(k):
            add(j, k - 1 - j, (-1.0) ** j * p_list[k])
            add(order + j, order + k - 1 - j, -(-1.0) ** j * p_list[k])
    return q


def _lossless_splitting(q):
    """(W_B, W_C) with Re<W_B tau, W_C tau> = tau* Q tau / 2 exactly.

    Pairs each positive flux eigenvector with a negative one, so the
    subsystem is impedance passive with equality and [W_B; W_C] is
    invertible.
    """
    lam, u = np.linalg.eigh(q)
    pos, neg = np.flatnonzero(lam > 0), np.flatnonzero(lam <= 0)
    rows_b, rows_c = [], []
    for ip, im in zip(pos, neg):
        t = np.sqrt(-lam[im] / lam[ip])
        rows_b.append(0.5 * lam[ip] * u[:, ip].conj() + 0.5 * (lam[im] / t) * u[:, im].conj())
        rows_c.append(u[:, ip].conj() + t * u[:, im].conj())
    return np.vstack(rows_b), np.vstack(rows_c)


def _spd(rng, dim, spread=1.5):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(1.0 / spread, spread, dim)) @ q.T


def _symmetry_pk(rng, k, dim, cplx):
    a = rng.standard_normal((dim, dim))
    if cplx:
        a = a + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (a + a.conj().T) if k % 2 == 1 else 0.5 * (a - a.conj().T)


def _well_scaled(p_n, floor=0.2, max_cond=1e3):
    """Leading coefficient bounded away from singular in size, not only in
    shape: a 1x1 or real 2x2 skew P_N has condition number 1 at any scale,
    and a P_N of size 1e-4 leaves a constraint matrix of condition ~1e12."""
    sv = np.linalg.svd(p_n, compute_uv=False)
    return sv[-1] >= floor and sv[0] <= max_cond * sv[-1]


def _lossless_subsystem(rng, order, dim, cplx):
    """Document entry of a random impedance-lossless subsystem."""
    p_list = [None]
    for k in range(1, order + 1):
        pk = _symmetry_pk(rng, k, dim, cplx)
        while k == order and not _well_scaled(pk):
            pk = _symmetry_pk(rng, k, dim, cplx)
        p_list.append(pk if cplx else pk.real)
    if rng.random() < 0.3:                         # dissipative volume term
        g = rng.standard_normal((dim, dim))
        skew = rng.standard_normal((dim, dim))
        p0 = 0.5 * (skew - skew.T) - g.T @ g
    else:
        p0 = None
    if rng.random() < 0.3:                         # sampled, varying H
        base, bump = _spd(rng, dim), _spd(rng, dim)
        zs = np.linspace(0.0, 1.0, 33)
        ham = {"kind": "samples",
               "data": encode([base + 0.3 * np.sin(2.0 * z + 0.3) * bump for z in zs])}
    else:
        ham = encode(_spd(rng, dim))
    w_b, w_c = _lossless_splitting(_flux_matrix(p_list, order, dim))
    nd = order * dim
    mix = np.eye(nd) + 0.3 * rng.standard_normal((nd, nd))
    while np.linalg.cond(mix) > 50:
        mix = np.eye(nd) + 0.3 * rng.standard_normal((nd, nd))
    w_b = mix @ w_b                                # keeps Sym(W_C* W_B) = Q/2
    w_c = np.linalg.inv(mix).conj().T @ w_c
    return {"order": order, "dim": dim,
            "p_matrices": [None if p0 is None else encode(p0)]
            + [encode(p) for p in p_list[1:]],
            "hamiltonian": ham, "w_b": encode(w_b), "w_c": encode(w_c)}, nd


def _controller(rng, n_state, passive):
    """Impedance-passive (or, if not passive, energy-producing) controller.

    A_c = W^{-1}(skew -+ G^T G) and C_c = (W B_c)* make the supply rate
    x_c* Sym(W A_c) x_c - Re u* Sym(D_c) u: nonpositive when passive, and
    positive on states with zero port input otherwise.
    """
    w = _spd(rng, n_state)
    skew = rng.standard_normal((n_state, n_state))
    g = rng.standard_normal((n_state, n_state))
    sign = -1.0 if passive else 1.0
    a_c = np.linalg.solve(w, 0.5 * (skew - skew.T) + sign * (g.T @ g + 0.1 * np.eye(n_state)))
    b_c = rng.standard_normal((n_state, 1))
    d = float(rng.uniform(0.0, 1.0))
    return {"a_c": encode(a_c), "b_c": encode(b_c), "c_c": encode((w @ b_c).T),
            "d_c": [[d]], "state_weight": encode(w)}


def explicit_item(rng, shape, cplx=False, flaw=None):
    """Explicit-matrix network of lossless subsystems of the given
    (order, dim) shape.

    flaw None: closure K with Sym K <= 0 and passive controllers, hence
    dissipative.  flaw "pumping": Sym K >= 0.2 I feeds energy in through
    every port.  flaw "active": one controller has Sym(W A_c) > 0.
    """
    subs, ports = [], 0
    for order, dim in shape:
        entry, nd = _lossless_subsystem(rng, order, dim, cplx)
        subs.append(entry)
        ports += nd
    skew = rng.standard_normal((ports, ports))
    g = rng.standard_normal((ports, ports))
    sign = 1.0 if flaw == "pumping" else -1.0
    k = 0.5 * (skew - skew.T) + sign * (0.3 * g.T @ g + 0.2 * np.eye(ports))
    doc = {"schema": 1, "subsystems": subs, "k_mat": encode(k),
           "controllers": [], "coupling": []}
    # a controller on a pumping network could absorb the only port's power
    if flaw == "active" or (flaw is None and rng.random() < 0.3):
        row = int(rng.integers(ports))
        doc["controllers"].append(_controller(rng, int(rng.integers(1, 3)),
                                              passive=flaw != "active"))
        doc["coupling"].append([row])
    return {"kind": "explicit", "doc": doc, "dissipative": flaw is None}


# ---------------------------------------------------------------- workloads

def sweep_block(rng):
    """40 items whose kinds, sizes and verdicts are fixed; the seed varies
    the coefficients and, within a block, the order.

    Cost depends mostly on kind and size, so fixing the mix per block keeps
    every prefix of the job sequence (a run stops wherever its time runs
    out) close to the same workload.  6 of the 40 (15 %) are non-dissipative.
    """
    cells = []
    for m in (1, 2, 3, 4):
        cells += [(chain_item, (m,), n) for n in SWEEP_N]
    cells += [(chain_item, (m, False), 32) for m in (1, 2, 4)]
    cells += [(beam_item, (), n) for n in SWEEP_N * 2]
    cells += [(coupled_item, (v,), n) for v, n in
              (("damper_string_beam", 24), ("damper_string_beam", 40),
               ("spring_mass_damper_string_beam", 24),
               ("spring_mass_damper_string_beam", 40))]
    cells += [(mass_damped_item, (), n) for n in SWEEP_N]
    cells += [(explicit_item, args, n) for args, n in EXPLICIT_CELLS]
    items = []
    for i in rng.permutation(len(cells)):
        make, args, n = cells[i]
        item = make(rng, *args)
        item["n"] = n
        items.append(item)
    return items


def sweep_items(seed, blocks=SWEEP_BLOCKS):
    """The sweep pool: `blocks` blocks of 40, about 400 networks."""
    rng = np.random.default_rng([seed, 1])
    return [item for _ in range(blocks) for item in sweep_block(rng)]


def scan_items(seed):
    """The five scan networks in a seeded order, each with oracle frequencies.

    beta_picks are uniform draws in [0, 1): the oracle maps them onto the
    scan's own non-diverged frequency list.
    """
    rng = np.random.default_rng([seed, 2])
    items = []
    for i in rng.permutation(len(SCAN_CASES)):
        name, params, n, verdict = SCAN_CASES[i]
        items.append({"kind": name, "doc": scenario_doc(name, dict(params)), "n": n,
                      "verdict": verdict, "beta_picks": rng.random(4).tolist()})
    return items


def trajectory_items(seed):
    """One chain m=10 with seeded dampers; every job of the run integrates it."""
    rng = np.random.default_rng([seed, 3])
    kappa = [float(rng.uniform(0.3, 0.7))] + rng.uniform(0.0, 0.05, TRAJECTORY_M - 1).tolist()
    params = {"m": TRAJECTORY_M, "kappa": kappa,
              "lengths": [TRAJECTORY_LENGTH] * TRAJECTORY_M}
    return [{"kind": "chain_m10", "doc": scenario_doc("chain_of_strings", params),
             "n": TRAJECTORY_N}]


ITEMS = {"sweep": sweep_items, "scan": scan_items, "trajectory": trajectory_items}
