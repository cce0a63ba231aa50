"""Linearized drift matrix and dynamical stability classification.

The fluctuation vector u = (da, db1, db2, da+, db1+, db2+) has the drift
matrix A = [[B, C], [C*, B*]].  The unitary quadrature map q = T u, with
x_j = (u_j + u_{j+3})/sqrt(2) and p_j = (u_j - u_{j+3})/(i sqrt(2)), makes it
the real matrix R = T A T^dagger = [[Re(B+C), -Im(B-C)], [Im(B+C), Re(B-C)]]
of q = (x_a, x_1, x_2, p_a, p_1, p_2), which the constructor fills directly;
R and A share their spectrum.  Every verdict comes from Routh's test; only
the cells it cannot settle, and spectral fields when read, take
eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
    """Routh verdict (``hurwitz_stable``) on ``drift``: stable iff every real
    part < -stab_tol; one array entry per matrix of a (k, 6, 6) stack in each
    field.  Spectral fields: one ``spectra(drift)`` call, on first read."""

    stable: bool
    gamma_fallback_applied: bool
    verdict_flipped: bool    # raw gamma=0 verdict disagreed with fallback
    drift: np.ndarray        # the matrix judged: fallback-damped if applied

    @cached_property
    def _spectra(self):
        ev, max_re, _ = spectra(self.drift)
        return ev, (max_re if max_re.ndim else max_re.item())

    eigenvalues = cached_property(lambda self: self._spectra[0])
    max_real_part = cached_property(lambda self: self._spectra[1])
    margin = cached_property(lambda self: -self._spectra[1])


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
    """Stability of a real drift matrix ``a``, cast to float, by
    ``hurwitz_stable``: marginal spectra (|max Re| below stab_tol) are
    unstable, since the steady-state Lyapunov solve is invalid on the margin.
    ``a`` may also be a (k, 6, 6) stack; one verdict with length-k array
    fields (eigenvalues (k, 6)) then comes back; ``drift`` is a copy of a.
    """
    if (np.iscomplexobj(a) or np.ndim(a) not in (2, 3)
            or np.shape(a)[-2:] != (6, 6)):
        raise ValueError("stability takes real 6x6 drift matrices")
    a = np.array(a, dtype=float)
    stable = hurwitz_stable(a.reshape(-1, 6, 6))
    if a.ndim == 2:
        return StabilityVerdict(stable.item(), False, False, a)
    return StabilityVerdict(stable, *np.zeros((2, len(stable)), bool), a)


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
    fields then comes back, from ``hurwitz_stable`` on one drift stack and
    on its undamped rows less eps on the damping diagonal: the matrices
    rebuilt with gamma = eps, bit for bit, which ``drift`` then holds.
    """
    cols, scalar = param_columns(lp, LinearizedParams)
    a = build_drift_matrix(cols)
    stable = hurwitz_stable(a)
    applied = (cols.gamma1 == 0.0) & (cols.gamma2 == 0.0) & gamma_fallback
    undamped, flipped = np.flatnonzero(applied), np.zeros_like(applied)
    if undamped.size:
        fb, diag = a[undamped], [1, 2, 4, 5]
        fb[:, diag, diag] -= GAMMA_FALLBACK_FACTOR * cols.kappa[undamped, None]
        fb_stable = hurwitz_stable(fb)
        flipped[undamped] = fb_stable != stable[undamped]
        stable[undamped], a[undamped] = fb_stable, fb
    if scalar:   # a batch of one: its entries as a single call's fields
        return StabilityVerdict(stable.item(), applied.item(), flipped.item(),
                                a[0])
    return StabilityVerdict(stable, applied, flipped, a)
