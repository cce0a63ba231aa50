"""Linearized drift matrix and dynamical stability classification.

The fluctuation vector u = (da, db1, db2, da+, db1+, db2+) has the drift
matrix A = [[B, C], [C*, B*]].  The unitary quadrature map q = T u, with
x_j = (u_j + u_{j+3})/sqrt(2) and p_j = (u_j - u_{j+3})/(i sqrt(2)), makes it
the real matrix R = T A T^dagger = [[Re(B+C), -Im(B-C)], [Im(B+C), Re(B-C)]]
of q = (x_a, x_1, x_2, p_a, p_1, p_2), which the constructor fills directly;
R and A share their spectrum.  Branch and cooling verdicts come from Routh's
test; only the cells it cannot settle, and spectral fields when read, take
eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .params import (LINEARIZED_NUMERIC, LinearizedParams, SystemParams,
                     param_columns, take_columns)
from .steady_state import Branches, SteadyStateBranch

STAB_TOL_FACTOR = 1e-9      # margin below stab_tol*kappa counts as marginal
GAMMA_FALLBACK_FACTOR = 1e-6  # gamma used when both dampings are exactly zero
# error per Faddeev-LeVerrier step of a scaled drift matrix: rounding plus an
# eigenvalue call's backward error (LEDGER.md, "Hurwitz verdicts")
HURWITZ_ETA = 2.0 ** -40


class EigenSolveFailure(ArithmeticError):
    """The QR eigenvalue iteration failed to converge (practically unreachable
    at 6x6)."""


@dataclass(frozen=True)
class StabilityVerdict:
    """Eigenvalue-based verdict: stable iff every real part < -stab_tol.
    A verdict on a stack holds one array entry per matrix in each field; a
    branch verdict computes its eigenvalues and margins when first read."""

    eigenvalues: np.ndarray
    max_real_part: float
    stable: bool
    margin: float
    gamma_fallback_applied: bool = False
    verdict_flipped: bool = False    # raw gamma=0 verdict disagreed with fallback

    def __getattr__(self, name):
        # only unset fields get here: a branch verdict's deferred spectra
        if name not in self.__dataclass_fields__ or "_drift" not in vars(self):
            raise AttributeError(name)
        a, fb, undamped, scalar = vars(self).pop("_drift")
        ev, max_re, _ = spectra(a)
        ev[undamped], max_re[undamped], _ = spectra(fb)
        if scalar:
            ev, max_re = ev[0], max_re[0].item()
        vars(self).update(eigenvalues=ev, max_real_part=max_re, margin=-max_re)
        return vars(self)[name]


def derive_linearized(branch: Union[SteadyStateBranch, Branches],
                      p: SystemParams) -> LinearizedParams:
    """Effective linearized parameters of a steady-state branch.

    g1_eff = g1*alpha, g2_eff = 4*g2*alpha*Re[beta2], g22 = g2*|alpha|^2 and
    omega2_tilde = omega2 + 2*g2*|alpha|^2; the effective detuning is copied
    from the branch.  ``branch`` may also be a Branches record, with ``p``
    the column record (or sequence) of the sets its ``owner`` entries index:
    one column record then comes back.  A single branch is a batch of one.
    """
    q, _ = param_columns(p)
    scalar = isinstance(branch, SteadyStateBranch)
    if not scalar:
        q = take_columns(q, branch.owner)
    n_p, alpha, delta, beta2 = (np.atleast_1d(getattr(branch, name)) for name
                                in ("n_p", "alpha", "delta_eff", "beta2"))
    cols = LinearizedParams(
        delta_eff=delta, omega2_tilde=q.omega2 + 2.0 * q.g2 * n_p,
        g1_eff=q.g1 * alpha, g2_eff=4.0 * q.g2 * alpha * beta2.real,
        g22=(q.g2 * n_p).astype(complex), origin="branch-derived",
        **{name: getattr(q, name) for name in (
            "omega1", "omega_ex", "theta", "kappa", "gamma1", "gamma2",
            "nbar1", "nbar2")})
    if scalar:
        return replace(cols, **{name: getattr(cols, name)[0].item()
                                for name in LINEARIZED_NUMERIC})
    return cols


def build_drift_matrix(lp: LinearizedParams) -> np.ndarray:
    """Assemble the real drift matrix R from linearized parameters: a
    (k, 6, 6) stack for a column record, one 6x6 matrix for a scalar record."""
    c, scalar = param_columns(lp, LinearizedParams)
    G1, G2, G22 = c.g1_eff, c.g2_eff, c.g22
    ws, wc = c.omega_ex * np.sin(c.theta), c.omega_ex * np.cos(c.theta)
    r = np.zeros((len(c.kappa), 6, 6))
    r[:, 0, 0] = r[:, 3, 3] = -c.kappa
    r[:, 1, 1] = r[:, 4, 4] = -c.gamma1
    r[:, 2, 2] = -c.gamma2 + 2.0 * G22.imag
    r[:, 5, 5] = -c.gamma2 - 2.0 * G22.imag
    r[:, 0, 3], r[:, 3, 0] = c.delta_eff, -c.delta_eff
    r[:, 1, 4], r[:, 4, 1] = c.omega1, -c.omega1
    r[:, 2, 5] = c.omega2_tilde - 2.0 * G22.real
    r[:, 5, 2] = -c.omega2_tilde - 2.0 * G22.real
    r[:, 0, 1], r[:, 4, 3] = 2.0 * G1.imag, -2.0 * G1.imag
    r[:, 0, 2], r[:, 5, 3] = 2.0 * G2.imag, -2.0 * G2.imag
    r[:, 3, 1] = r[:, 4, 0] = -2.0 * G1.real
    r[:, 3, 2] = r[:, 5, 0] = -2.0 * G2.real
    r[:, 1, 2] = r[:, 4, 5] = ws
    r[:, 2, 1] = r[:, 5, 4] = -ws
    r[:, 1, 5] = r[:, 2, 4] = wc
    r[:, 4, 2] = r[:, 5, 1] = -wc
    return r[0] if scalar else r


def spectra(a: np.ndarray):
    """(eigenvalues, largest real parts, stable) of a real drift matrix or
    stack, from one real eigenvalue call.  Stable means max Re below
    -STAB_TOL_FACTOR*kappa, with kappa = -R[0, 0]; the eigenvalues are
    complex whatever the stack, so a cell's do not depend on its batch."""
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailure(str(exc)) from exc
    max_re = ev.real.max(axis=-1)
    return (ev.astype(complex, copy=False), max_re,
            max_re < STAB_TOL_FACTOR * a[..., 0, 0])


def classify_stability(a: np.ndarray) -> StabilityVerdict:
    """Stability from the full eigenvalue set of the real drift matrix ``a``.

    Marginal spectra (|max Re| below stab_tol) are reported unstable: the
    steady-state Lyapunov solve is invalid on the margin.  ``a`` may also be
    a stack of shape (k, 6, 6); one verdict with length-k array fields
    (eigenvalues (k, 6)) then comes back, from one eigenvalue call.
    """
    ev, max_re, stable = spectra(a)
    if a.ndim == 3:
        return StabilityVerdict(ev, max_re, stable, -max_re,
                                *np.zeros((2, len(stable)), dtype=bool))
    return StabilityVerdict(ev, max_re.item(), stable.item(), -max_re.item())


def hurwitz_stable(a: np.ndarray) -> np.ndarray:
    """Stable of each matrix of a real drift stack, as ``spectra(a)[2]``:
    Routh's test of R + STAB_TOL_FACTOR*kappa*I scaled to largest entry 1
    (characteristic polynomial by Faddeev-LeVerrier).  Each Routh entry
    carries a first-order error bound grown from HURWITZ_ETA per step; a cell
    with an entry inside twice its bound takes ``spectra``."""
    k, u = len(a), np.finfo(float).eps / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = a.copy()
        s.reshape(k, 36)[:, ::7] -= STAB_TOL_FACTOR * a[:, :1, 0]
        s /= abs(s.reshape(k, 36)).max(1)[:, None, None]
        rho = sum(abs(s).T).max(0)        # max|S M| <= rho max|M|
        t, e = np.zeros((2, 7, 4, k))     # Routh rows, their error bounds
        t[0, 0] = 1.0
        # m = S M_j, with bounds on its error and on the entries of M_j
        m, err, size = np.eye(6), 0.0, 1.0
        for j in range(1, 7):
            m = s @ m
            c = -np.einsum("kii->k", m) / j
            err = rho * err + 6.0 * HURWITZ_ETA * size
            t[j % 2, j // 2] = c
            e[j % 2, j // 2] = dc = 6.0 * err / j + u * np.abs(c)
            m.reshape(k, 36)[:, ::7] += c[:, None]
            err, size = err + dc, rho * size + np.abs(c)
        for i in range(2, 7):
            p, q, dp, dq = t[i - 2], t[i - 1], e[i - 2], e[i - 1]
            r = p[0] / q[0]
            dr = (dp[0] + abs(r) * dq[0]) / abs(q[0]) + u * abs(r)
            t[i, :3] = p[1:] - r * q[1:]
            e[i, :3] = (dp[1:] + abs(r) * dq[1:] + dr * abs(q[1:])
                        + 2.0 * u * (abs(p[1:]) + abs(r * q[1:])))
        stable = (t[:, 0] > 0.0).all(axis=0)
        unsure = ~(abs(t[:, 0]) > 2.0 * e[:, 0]).all(axis=0)
    if unsure.any():
        stable[unsure] = spectra(a[unsure])[2]
    return stable


def classify_branch_stability(lp: Union[LinearizedParams,
                                        Sequence[LinearizedParams]],
                              gamma_fallback: bool = True):
    """Branch verdict, with an infinitesimal-damping fallback.

    With gamma1 = gamma2 = 0 the uncoupled mechanical eigenvalues sit exactly
    on the margin; the fallback classifies with gamma = 1e-6*kappa instead and
    flags verdicts that differ between the two dampings.  ``lp`` may also be
    a column record or a sequence of parameter sets: one verdict with array
    fields then comes back, from ``hurwitz_stable`` on one drift stack for
    the raw damping and one for the undamped cells rebuilt with the fallback
    damping; the spectral fields are ``spectra`` of both, when first read.
    """
    cols, scalar = param_columns(lp, LinearizedParams)
    a = build_drift_matrix(cols)
    stable, fb = hurwitz_stable(a), a[:0]
    applied = ~((cols.gamma1 > 0.0) | (cols.gamma2 > 0.0)) & gamma_fallback
    undamped, flipped = np.flatnonzero(applied), np.zeros_like(applied)
    if undamped.size:
        sub = take_columns(cols, undamped)
        eps = GAMMA_FALLBACK_FACTOR * sub.kappa
        fb = build_drift_matrix(replace(sub, gamma1=eps, gamma2=eps))
        fb_stable = hurwitz_stable(fb)
        flipped[undamped] = fb_stable != stable[undamped]
        stable[undamped] = fb_stable
    if scalar:   # a batch of one: its entries as a single call's fields
        stable, applied, flipped = (stable.item(), applied.item(),
                                    flipped.item())
    out = object.__new__(StabilityVerdict)   # spectral fields deferred
    vars(out).update(stable=stable, gamma_fallback_applied=applied,
                     verdict_flipped=flipped, _drift=(a, fb, undamped, scalar))
    return out
