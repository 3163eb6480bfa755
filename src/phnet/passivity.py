"""Algebraic passivity and dissipativity certificates: every verdict the
package gives on a subsystem, a controller or a network.

All checks reduce to eigenvalue tests of Hermitian quadratic forms on the
boundary trace space K^{2Nd} (and controller states), using the flux identity

    Re<Ax, x>_X = 1/2 tau* Q tau + int Re <P_0 y, y> dz,   y = H x,

with tau ranging over all of K^{2Nd}.  Impedance passivity is the matrix
condition Sym(W_C* W_B) - Q/2 >= 0 together with Sym P_0 <= 0 pointwise.
A static closure Bx = K Cx of one subsystem s is the one-node network
Network((s,), k_mat=K), whose certificate tests Q/2 <= 0 on ker(W_B - K W_C).
Dissipative <=> contraction semigroup, by the generation theorems the
certificates realize.
"""

import numpy as np
from dataclasses import dataclass

from .model import REL_TOL, flux_form
from .network import assemble


@dataclass
class PassivityCertificate:
    """Outcome of one algebraic test.

    kind     : "impedance" | "scattering" | "sym_p0" | "controller" | "network"
    passed   : overall verdict
    margin   : least eigenvalue of the form required to be PSD (after
               orienting the test); pass iff margin >= -tol
    witness  : on failure, a vector tau* with tau*^T F tau* > 0 for the
               violating form F
    marginal : |margin| within tolerance of the pass boundary
    """

    kind: str
    passed: bool
    margin: float
    witness: np.ndarray = None
    marginal: bool = False
    detail: str = ""


def _psd_verdict(form, kind, tol, detail=""):
    """Certificate that the Hermitian `form` is PSD up to -tol.

    Ties at the boundary resolve to pass with the marginal flag set.  The
    failure witness is the eigenvector of the most negative eigenvalue,
    which satisfies w* (-form) w > 0.
    """
    form = 0.5 * (form + form.conj().T)
    vals, vecs = np.linalg.eigh(form)
    margin = float(vals[0])
    passed = margin >= -tol
    witness = None if passed else vecs[:, 0]
    return PassivityCertificate(kind, passed, margin, witness=witness,
                                marginal=abs(margin) <= tol, detail=detail)


def _tol_for(*mats):
    scale = max([1.0] + [float(np.abs(m).max()) for m in mats if m is not None and m.size])
    return REL_TOL * scale


def check_sym_p0(subsystem):
    """Pointwise negative semi-definiteness of Sym P_0 over the sample grid."""
    s = subsystem
    if s.p0 is None:
        return PassivityCertificate("sym_p0", True, 0.0, detail="P_0 absent")
    zs = s.p0.check_grid()
    vals = s.p0(zs)
    vals = 0.5 * (vals + vals.conj().transpose(0, 2, 1))
    ev, vecs = np.linalg.eigh(vals)
    i = int(np.argmax(ev[:, -1]))           # first grid point attaining the max
    worst = float(ev[i, -1])
    tol = _tol_for(vals)
    passed = worst <= tol
    return PassivityCertificate(
        "sym_p0", passed, -worst, witness=None if passed else vecs[i, :, -1],
        marginal=abs(worst) <= tol,
        detail="max over grid of the largest eigenvalue of Sym P_0; worst at z=%.4f"
        % float(zs[i]))


def _certificate(kind, guarded, form, tol, detail, basis=None):
    """The one dissipativity test every certificate runs.

    guarded lists (prefix, subsystem) pairs: the first subsystem whose Sym
    P_0 is not pointwise <= 0 decides the certificate, its detail led by
    the prefix.  Otherwise the verdict is that of `form` >= 0 restricted
    to range(basis) (the whole space when basis is None), with a failure
    witness lifted back through basis.
    """
    for prefix, s in guarded:
        cert = check_sym_p0(s)
        if not cert.passed:
            cert.kind = kind
            cert.detail = prefix + "Sym P_0 not negative semi-definite: " + cert.detail
            return cert
    restricted = form if basis is None else basis.conj().T @ form @ basis
    cert = _psd_verdict(restricted, kind, tol, detail=detail)
    if basis is not None and cert.witness is not None:
        cert.witness = basis @ cert.witness
    return cert


def check_impedance(subsystem):
    """Impedance passivity: Re<Ax, x> <= Re<Bx, Cx> for all x in D(A).

    Realized as M = Sym(W_C* W_B) - Q/2 >= 0, plus Sym P_0 <= 0 pointwise.
    """
    s = subsystem
    q = flux_form(s)
    m = 0.5 * (s.w_c.conj().T @ s.w_b + s.w_b.conj().T @ s.w_c) - 0.5 * q
    return _certificate("impedance", [("", s)], m, _tol_for(q, s.w_b, s.w_c),
                        "Sym(W_C* W_B) - Q/2 on the full trace space")


def check_scattering(subsystem):
    """Scattering passivity: Re<Ax, x> <= |Bx|^2 - |Cx|^2.

    Realized as W_B* W_B - W_C* W_C - Q/2 >= 0, plus Sym P_0 <= 0 pointwise.
    """
    s = subsystem
    q = flux_form(s)
    m = s.w_b.conj().T @ s.w_b - s.w_c.conj().T @ s.w_c - 0.5 * q
    return _certificate("scattering", [("", s)], m, _tol_for(q, s.w_b, s.w_c),
                        "W_B* W_B - W_C* W_C - Q/2 on the full trace space")


def null_basis(mat):
    """Orthonormal basis of ker(mat); singular values <= REL_TOL * sigma_max count as 0.

    The one rank rule for constraint null spaces: certificates and the
    generator's reduction both use it.
    """
    mat = np.atleast_2d(np.asarray(mat))
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    u, sv, vh = np.linalg.svd(mat)
    tol = REL_TOL * (sv[0] if len(sv) and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > tol))
    return vh[rank:].conj().T


def check_controller_passive(controller):
    """Impedance passivity certificate for a Controller.

    Tests the Hermitian supply-defect block matrix on (x_c, u_c).  The detail
    also reports whether ker D_c, spanned by Z = null_basis(D_c), lies in ker
    B_c (B_c Z = 0 to REL_TOL, which a strictly input passive loop needs), and
    the strict input passivity margin: the largest kappa with defect + kappa
    Y_hat Y_hat* <= tol I, Y_hat = [0; Y], Y = null_basis(Z*) spanning range(D_c*).
    For E = tol I - defect = U diag(e) U* > 0 that is kappa = 1 / lambda_max(Y_hat*
    E^{-1} Y_hat) = 1 / sigma_max(F)^2, F = diag(e)^{-1/2} U* Y_hat; otherwise,
    or where D_c = 0, kappa = 0.
    """
    defect = controller.supply_defect()
    tol = _tol_for(defect)
    cert = _psd_verdict(-defect, "controller", tol,
                        detail="-(supply defect) on (x_c, u_c)")
    z = null_basis(controller.d_c)
    kappa = _input_passivity_margin(defect, null_basis(z.conj().T), tol) if cert.passed else 0.0
    kernel_ok = bool(np.abs(controller.b_c @ z).max(initial=0.0)
                     <= _tol_for(controller.b_c))
    cert.detail += ("; strict input passivity margin kappa = %.3e; "
                    "ker D_c subset ker B_c: %s" % (kappa, kernel_ok))
    return cert


def _input_passivity_margin(defect, y, tol):
    """check_controller_passive's kappa, y an orthonormal basis of range(D_c*)."""
    e, u = np.linalg.eigh(tol * np.eye(len(defect)) - 0.5 * (defect + defect.conj().T))
    if e[0] <= 0 or not y.shape[1]:
        return 0.0
    return float(np.linalg.norm((u[-len(y):].conj().T @ y) / np.sqrt(e)[:, None], 2) ** -2)


def certify_network_dissipative(net):
    """Generation certificate for the closed-loop network operator.

    Pass iff the aggregate flux + controller supply form restricted to the
    constraint null space is negative semi-definite and every spatially
    varying P_0 has pointwise Sym P_0 <= 0.  Pass implies the closed loop
    generates a contraction semigroup.  Networks with external_ports leave
    those rows unconstrained, so an open port that can carry power in makes
    the certificate fail (the open-loop system is only passive, not
    dissipative).  A static closure B x = K C x of one subsystem s is the
    one-node network Network((s,), k_mat=K).
    """
    closed = assemble(net)
    form = closed.energy_form()
    return _certificate(
        "network", [("subsystem %d: " % j, s) for j, s in enumerate(net.subsystems)],
        -form, _tol_for(form),
        "-(flux + controller supply) on the constraint null space",
        basis=null_basis(closed.constraint_matrix()))
