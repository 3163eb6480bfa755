"""Algebraic passivity and dissipativity certificates.

All checks reduce to eigenvalue tests of Hermitian quadratic forms on the
boundary trace space K^{2Nd}, using the flux identity

    Re<Ax, x>_X = 1/2 tau* Q tau + int Re <P_0 y, y> dz,   y = H x,

with tau ranging over all of K^{2Nd}.  Impedance passivity is the matrix
condition Sym(W_C* W_B) - Q/2 >= 0 together with Sym P_0 <= 0 pointwise;
a static closure Bx = K Cx is dissipative iff Q/2 restricted to
ker(W_B - K W_C) is negative semi-definite.
"""

import numpy as np
from dataclasses import dataclass

from .model import REL_TOL, flux_form


@dataclass
class PassivityCertificate:
    """Outcome of one algebraic test.

    kind     : "impedance" | "scattering" | "closure" | "sym_p0" | "network"
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

    def to_dict(self):
        out = {"kind": self.kind, "pass": self.passed, "margin": self.margin,
               "marginal": self.marginal}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            w = np.asarray(self.witness)
            if np.iscomplexobj(w):
                out["witness"] = [[float(v.real), float(v.imag)] for v in w]
            else:
                out["witness"] = [float(v) for v in w]
        return out


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
    zs = np.linspace(0.0, 1.0, 257)
    if s.p0.kind == "samples":
        zs = np.union1d(zs, np.linspace(0.0, 1.0, s.p0.data.shape[0]))
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


def check_impedance(subsystem):
    """Impedance passivity: Re<Ax, x> <= Re<Bx, Cx> for all x in D(A).

    Realized as M = Sym(W_C* W_B) - Q/2 >= 0, plus Sym P_0 <= 0 pointwise.
    """
    s = subsystem
    cert0 = check_sym_p0(s)
    if not cert0.passed:
        cert0.kind = "impedance"
        cert0.detail = "Sym P_0 not negative semi-definite: " + cert0.detail
        return cert0
    q = flux_form(s).q
    m = 0.5 * (s.w_c.conj().T @ s.w_b + s.w_b.conj().T @ s.w_c) - 0.5 * q
    return _psd_verdict(m, "impedance", _tol_for(q, s.w_b, s.w_c),
                        detail="Sym(W_C* W_B) - Q/2 on the full trace space")


def check_scattering(subsystem):
    """Scattering passivity: Re<Ax, x> <= |Bx|^2 - |Cx|^2.

    Realized as W_B* W_B - W_C* W_C - Q/2 >= 0, plus Sym P_0 <= 0 pointwise.
    """
    s = subsystem
    cert0 = check_sym_p0(s)
    if not cert0.passed:
        cert0.kind = "scattering"
        cert0.detail = "Sym P_0 not negative semi-definite: " + cert0.detail
        return cert0
    q = flux_form(s).q
    m = s.w_b.conj().T @ s.w_b - s.w_c.conj().T @ s.w_c - 0.5 * q
    return _psd_verdict(m, "scattering", _tol_for(q, s.w_b, s.w_c),
                        detail="W_B* W_B - W_C* W_C - Q/2 on the full trace space")


def null_basis(mat):
    """Orthonormal basis of ker(mat); singular values <= REL_TOL * sigma_max count as 0."""
    mat = np.atleast_2d(np.asarray(mat))
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    u, sv, vh = np.linalg.svd(mat)
    tol = REL_TOL * (sv[0] if len(sv) and sv[0] > 0 else 1.0)
    rank = int(np.sum(sv > tol))
    return vh[rank:].conj().T


def check_dissipative_closure(subsystem, k_mat):
    """Dissipativity of A = A|ker(B - K C): the generation criterion.

    Pass means Q/2 restricted to ker(W_B - K W_C) is <= 0 and Sym P_0 <= 0
    pointwise, hence A generates a contraction semigroup.
    """
    s = subsystem
    k_mat = np.atleast_2d(np.asarray(k_mat))
    cert0 = check_sym_p0(s)
    if not cert0.passed:
        cert0.kind = "closure"
        cert0.detail = "Sym P_0 not negative semi-definite: " + cert0.detail
        return cert0
    q = flux_form(s).q
    z = null_basis(s.w_b - k_mat @ s.w_c)
    detail = "Q/2 restricted to ker(W_B - K W_C)"
    if z.shape[1] != s.port_dim:
        detail += ("; degenerate kernel dimension %d != %d, closure is not a graph of K"
                   % (z.shape[1], s.port_dim))
    restricted = z.conj().T @ (0.5 * q) @ z
    # orient: need restricted <= tol, test -restricted >= -tol
    cert = _psd_verdict(-restricted, "closure", _tol_for(q, k_mat), detail=detail)
    if cert.witness is not None:
        cert.witness = z @ cert.witness     # lift back to trace space
    return cert
