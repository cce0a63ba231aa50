"""Linearized drift matrix and dynamical stability classification.

The fluctuation vector is ordered (da, db1, db2, da+, db1+, db2+); the drift
matrix then has exact conjugation block symmetry, A = [[B, C], [C*, B*]],
which the constructor enforces by building the lower blocks as conjugates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .params import (LINEARIZED_NUMERIC, LinearizedParams, SystemParams,
                     linearized_columns)
from .steady_state import SteadyStateBranch

STAB_TOL_FACTOR = 1e-9      # margin below stab_tol*kappa counts as marginal
GAMMA_FALLBACK_FACTOR = 1e-6  # gamma used when both dampings are exactly zero


class EigenSolveFailure(ArithmeticError):
    """The QR eigenvalue iteration failed to converge (practically unreachable
    at 6x6)."""


@dataclass(frozen=True)
class DriftMatrix:
    """6x6 complex drift matrix of the linearized fluctuation dynamics."""

    a: np.ndarray


@dataclass(frozen=True)
class StabilityVerdict:
    """Eigenvalue-based verdict: stable iff every real part < -stab_tol."""

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
    """Assemble the drift matrix from linearized parameters: a (k, 6, 6)
    stack for a column record, one 6x6 matrix for a scalar record."""
    c, scalar = linearized_columns(lp)
    G1, G2, G22 = c.g1_eff, c.g2_eff, c.g22
    eip = np.exp(1j * c.theta)
    eim = np.exp(-1j * c.theta)
    a = np.zeros((len(c.kappa), 6, 6), dtype=complex)
    a[:, 0, 0] = -(c.kappa + 1j * c.delta_eff)
    a[:, 0, 1] = a[:, 0, 4] = a[:, 1, 3] = -1j * G1
    a[:, 0, 2] = a[:, 0, 5] = a[:, 2, 3] = -1j * G2
    a[:, 1, 0] = -1j * np.conj(G1)
    a[:, 1, 1] = -(c.gamma1 + 1j * c.omega1)
    a[:, 1, 2] = -1j * c.omega_ex * eip
    a[:, 2, 0] = -1j * np.conj(G2)
    a[:, 2, 1] = -1j * c.omega_ex * eim
    a[:, 2, 2] = -(c.gamma2 + 1j * c.omega2_tilde)
    a[:, 2, 5] = -2j * G22
    a[:, 3:, :3] = np.conj(a[:, :3, 3:])
    a[:, 3:, 3:] = np.conj(a[:, :3, :3])
    return DriftMatrix(a=a[0] if scalar else a)


def classify_stability(A: DriftMatrix):
    """Stability from the full eigenvalue set of the drift matrix.

    Marginal spectra (|max Re| below stab_tol) are reported unstable: the
    steady-state Lyapunov solve is invalid on the margin.  ``A.a`` may also
    be a stack of shape (k, 6, 6); its k verdicts then come back as a list,
    from one eigenvalue call.
    """
    a = A.a
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveFailure(str(exc)) from exc
    max_re = ev.real.max(axis=-1)
    stab_tol = STAB_TOL_FACTOR * -a[..., 0, 0].real
    verdicts = [StabilityVerdict(eigenvalues=e, max_real_part=m,
                                 stable=m < -t, margin=-m)
                for e, m, t in zip(ev.reshape(-1, 6), np.ravel(max_re).tolist(),
                                   np.ravel(stab_tol).tolist())]
    return verdicts if a.ndim == 3 else verdicts[0]


_MECH_DIAGONAL = [1, 2, 4, 5]   # gamma enters A only as -gamma on these


def _fallback_damped(a: np.ndarray, kappas: Sequence[float]) -> np.ndarray:
    """The drift matrices of a stack rebuilt with gamma1 = gamma2 =
    GAMMA_FALLBACK_FACTOR*kappa, without rebuilding them: the damping is the
    real part of the four mechanical diagonal entries, -(gamma +/- i omega),
    so setting those real parts to -eps gives the rebuilt matrix exactly."""
    damped = a.copy()
    eps = GAMMA_FALLBACK_FACTOR * np.asarray(kappas, dtype=float)
    damped.real[:, _MECH_DIAGONAL, _MECH_DIAGONAL] = -eps[:, None]
    return damped


def classify_branch_stability(lp: Union[LinearizedParams,
                                        Sequence[LinearizedParams]],
                              gamma_fallback: bool = True):
    """Branch verdict, with an infinitesimal-damping fallback.

    With gamma1 = gamma2 = 0 the uncoupled mechanical eigenvalues sit exactly
    on the margin; the fallback classifies with gamma = 1e-6*kappa instead and
    flags verdicts that differ between the two dampings.  ``lp`` may also be
    a column record or a sequence of parameter sets: a list of verdicts then
    comes back, from one column drift stack, one stacked eigenvalue call for
    the raw damping and one for the fallback.
    """
    cols, scalar = linearized_columns(lp)
    a = build_drift_matrix(cols).a
    raw = classify_stability(DriftMatrix(a=a))
    out = list(raw)
    undamped = np.flatnonzero(~((cols.gamma1 > 0.0) | (cols.gamma2 > 0.0))
                              & gamma_fallback)
    if undamped.size:
        fb = classify_stability(DriftMatrix(a=_fallback_damped(
            a[undamped], cols.kappa[undamped])))
        for k, v in zip(undamped.tolist(), fb):
            out[k] = replace(v, gamma_fallback_applied=True,
                             verdict_flipped=bool(v.stable != raw[k].stable))
    return out[0] if scalar else out
