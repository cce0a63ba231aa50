"""Linearized drift matrix and dynamical stability classification.

The fluctuation vector u = (da, db1, db2, da+, db1+, db2+) has the drift
matrix A = [[B, C], [C*, B*]].  The unitary quadrature map q = T u, with
x_j = (u_j + u_{j+3})/sqrt(2) and p_j = (u_j - u_{j+3})/(i sqrt(2)), makes it
the real matrix R = T A T^dagger = [[Re(B+C), -Im(B-C)], [Im(B+C), Re(B-C)]]
of q = (x_a, x_1, x_2, p_a, p_1, p_2), which the constructor fills directly;
R and A share their spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .params import (LINEARIZED_NUMERIC, LinearizedParams, SystemParams,
                     linearized_columns, take_columns)
from .steady_state import SteadyStateBranch

STAB_TOL_FACTOR = 1e-9      # margin below stab_tol*kappa counts as marginal
GAMMA_FALLBACK_FACTOR = 1e-6  # gamma used when both dampings are exactly zero


class EigenSolveFailure(ArithmeticError):
    """The QR eigenvalue iteration failed to converge (practically unreachable
    at 6x6)."""


@dataclass(frozen=True)
class DriftMatrix:
    """6x6 real drift matrix of the quadrature fluctuations (or a stack)."""

    a: np.ndarray


@dataclass(frozen=True)
class StabilityVerdict:
    """Eigenvalue-based verdict: stable iff every real part < -stab_tol.
    A verdict on a stack holds one array entry per matrix in each field."""

    eigenvalues: np.ndarray
    max_real_part: float
    stable: bool
    margin: float
    gamma_fallback_applied: bool = False
    verdict_flipped: bool = False    # raw gamma=0 verdict disagreed with fallback


def derive_linearized(branch: Union[SteadyStateBranch,
                                    Sequence[SteadyStateBranch]],
                      p: Union[SystemParams, Sequence[SystemParams]]
                      ) -> LinearizedParams:
    """Effective linearized parameters of a steady-state branch.

    g1_eff = g1*alpha, g2_eff = 4*g2*alpha*Re[beta2], g22 = g2*|alpha|^2 and
    omega2_tilde = omega2 + 2*g2*|alpha|^2; the effective detuning is copied
    from the branch.  ``branch`` may also be a sequence of branches with
    ``p`` the sequence of their parameter sets, one per branch: one column
    record then comes back.  A single branch is a batch of one.
    """
    if isinstance(branch, SteadyStateBranch):
        cols = derive_linearized([branch], [p])
        return replace(cols, **{name: getattr(cols, name)[0].item()
                                for name in LINEARIZED_NUMERIC})
    bs = list(branch)
    n_p, delta, beta2_re = np.array(
        [(b.n_p, b.delta_eff, b.beta2.real) for b in bs],
        dtype=float).reshape(-1, 3).T
    alpha = np.array([b.alpha for b in bs], dtype=complex)
    (omega1, omega2, g1, g2, omega_ex, theta, kappa, gamma1, gamma2, nbar1,
     nbar2) = np.array([(q.omega1, q.omega2, q.g1, q.g2, q.omega_ex, q.theta,
                         q.kappa, q.gamma1, q.gamma2, q.nbar1, q.nbar2)
                        for q in p], dtype=float).reshape(-1, 11).T
    return LinearizedParams(
        delta_eff=delta,
        omega1=omega1,
        omega2_tilde=omega2 + 2.0 * g2 * n_p,
        g1_eff=g1 * alpha,
        g2_eff=4.0 * g2 * alpha * beta2_re,
        g22=(g2 * n_p).astype(complex),
        omega_ex=omega_ex,
        theta=theta,
        kappa=kappa,
        gamma1=gamma1,
        gamma2=gamma2,
        nbar1=nbar1,
        nbar2=nbar2,
        origin="branch-derived",
    )


def build_drift_matrix(lp: LinearizedParams) -> DriftMatrix:
    """Assemble the real drift matrix R from linearized parameters: a
    (k, 6, 6) stack for a column record, one 6x6 matrix for a scalar record."""
    c, scalar = linearized_columns(lp)
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
    return DriftMatrix(a=r[0] if scalar else r)


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


def classify_stability(A: DriftMatrix) -> StabilityVerdict:
    """Stability from the full eigenvalue set of the drift matrix.

    Marginal spectra (|max Re| below stab_tol) are reported unstable: the
    steady-state Lyapunov solve is invalid on the margin.  ``A.a`` may also
    be a stack of shape (k, 6, 6); one verdict with length-k array fields
    (eigenvalues (k, 6)) then comes back, from one eigenvalue call.
    """
    ev, max_re, stable = spectra(A.a)
    if A.a.ndim == 3:
        return StabilityVerdict(ev, max_re, stable, -max_re,
                                *np.zeros((2, len(stable)), dtype=bool))
    return StabilityVerdict(ev, max_re.item(), stable.item(), -max_re.item())


def classify_branch_stability(lp: Union[LinearizedParams,
                                        Sequence[LinearizedParams]],
                              gamma_fallback: bool = True):
    """Branch verdict, with an infinitesimal-damping fallback.

    With gamma1 = gamma2 = 0 the uncoupled mechanical eigenvalues sit exactly
    on the margin; the fallback classifies with gamma = 1e-6*kappa instead and
    flags verdicts that differ between the two dampings.  ``lp`` may also be
    a column record or a sequence of parameter sets: one verdict with array
    fields then comes back, from one column drift stack and one stacked
    eigenvalue call for the raw damping, and one of each for the undamped
    cells rebuilt with the fallback damping.
    """
    cols, scalar = linearized_columns(lp)
    out = classify_stability(build_drift_matrix(cols))
    undamped = np.flatnonzero(~((cols.gamma1 > 0.0) | (cols.gamma2 > 0.0))
                              & gamma_fallback)
    if undamped.size:
        sub = take_columns(cols, undamped)
        eps = GAMMA_FALLBACK_FACTOR * sub.kappa
        fb = classify_stability(build_drift_matrix(
            replace(sub, gamma1=eps, gamma2=eps)))
        out.gamma_fallback_applied[undamped] = True
        out.verdict_flipped[undamped] = fb.stable != out.stable[undamped]
        for name in ("eigenvalues", "max_real_part", "stable", "margin"):
            getattr(out, name)[undamped] = getattr(fb, name)
    if scalar:   # a batch of one: its entries as a single call's fields
        return StabilityVerdict(*(v[0] if v.ndim > 1 else v[0].item()
                                  for v in vars(out).values()))
    return out
