"""Steady-state covariance, phonon occupations and dark-mode diagnostics.

The covariance V of the fluctuation vector obeys A V + V A^T + Q = 0 with the
plain (not conjugate) transpose; Q symmetrizes the bath correlation matrix C.
The 36-dimensional vectorized system is solved densely, followed by iterative
refinement so the residual stays at working precision even for stiff damping
hierarchies (gamma ~ 1e-6 kappa).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .params import LinearizedParams
from .stability import DriftMatrix, build_drift_matrix, classify_stability
from .steady_state import Diagnostic

LYAP_RESIDUAL_TOL = 1e-10
PHONON_IMAG_TOL = 1e-6
DARK_TOL = 0.05            # overlap threshold for the dark flag
MIXING_TOL_FACTOR = 0.01   # |Omega|, |G22| below this * omega1 count as unmixed


class SingularLyapunov(ArithmeticError):
    """The vectorized Lyapunov system is singular (some lambda_i + lambda_j = 0)."""


class UnphysicalResult(ArithmeticError):
    """A stable solve produced a significantly negative phonon number."""


class ComplexPhonon(ArithmeticError):
    """Extracted phonon number has a non-negligible imaginary part."""


class ZeroCoupling(ValueError):
    """Dark-mode overlap undefined because g1_eff = g2_eff = 0."""


@dataclass(frozen=True)
class NoiseModel:
    """Bath correlation matrix C and its symmetrization Q = (C + C^T)/2."""

    c: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class CovarianceResult:
    """Solved steady-state covariance with extracted phonon numbers."""

    v: np.ndarray
    n1f: float
    n2f: float
    lyap_residual: float
    physical: bool          # drift matrix was classified stable


@dataclass(frozen=True)
class DarkModeDiagnostics:
    """Interference diagnostics of the two optomechanical cooling channels.

    dark_overlap is |g1_eff + g2_eff e^{i theta}| normalized by the total
    coupling; dark_overlap_min additionally minimizes over the sign of the
    exchange alignment (the collective dark mode survives the exchange
    whenever (g2_eff e^{i theta})^2 = g1_eff^2, i.e. for either sign), and is
    what the boolean flag uses.
    """

    dark_overlap: float
    dark_overlap_min: float
    bright_coupling: float
    mixing_terms: tuple[float, float]
    dark_flag: bool


def build_noise_model(lp: LinearizedParams) -> NoiseModel:
    """Bath correlations: vacuum for the cavity, thermal for the mechanics."""
    c = np.zeros((6, 6))
    c[0, 3] = 2.0 * lp.kappa
    c[1, 4] = 2.0 * lp.gamma1 * (lp.nbar1 + 1.0)
    c[2, 5] = 2.0 * lp.gamma2 * (lp.nbar2 + 1.0)
    c[4, 1] = 2.0 * lp.gamma1 * lp.nbar1
    c[5, 2] = 2.0 * lp.gamma2 * lp.nbar2
    return NoiseModel(c=c, q=0.5 * (c + c.T))


_BATH_SLOTS = frozenset({(0, 3), (1, 4), (2, 5), (4, 1), (5, 2)})


def _canonical_bath(c: np.ndarray) -> bool:
    """True when C has the standard bath sparsity with nonnegative rates.

    The negative-occupation guard only makes sense for such inputs; synthetic
    noise matrices (tests, embeddings) are exempt."""
    for i in range(6):
        for j in range(6):
            v = c[i, j]
            if (i, j) in _BATH_SLOTS:
                if v < 0.0:
                    return False
            elif v != 0.0:
                return False
    return True


def solve_lyapunov(A: DriftMatrix, nm: NoiseModel) -> CovarianceResult:
    """Dense vectorized solve of A V + V A^T + Q = 0 with refinement.

    An unstable drift matrix still yields a formal solution when the
    Kronecker system is regular, but the result is flagged physical=False.
    """
    a = A.a
    q = nm.q.astype(complex)
    ident = np.eye(6)
    M = np.kron(ident, a) + np.kron(a, ident)
    try:
        lu, piv = scipy.linalg.lu_factor(M)
    except scipy.linalg.LinAlgError as exc:
        raise SingularLyapunov(str(exc)) from exc
    qnorm = np.linalg.norm(q)
    v = scipy.linalg.lu_solve((lu, piv), -q.reshape(-1)).reshape(6, 6)
    if not np.all(np.isfinite(v)):
        raise SingularLyapunov("vectorized Lyapunov solve overflowed")
    residual = np.inf
    for _ in range(3):
        r = a @ v + v @ a.T + q
        new_res = np.linalg.norm(r) / qnorm if qnorm > 0.0 else np.linalg.norm(r)
        if new_res >= residual:
            break
        residual = new_res
        if residual < 1e-14:
            break
        v = v - scipy.linalg.lu_solve((lu, piv), r.reshape(-1)).reshape(6, 6)
    physical = classify_stability(A).stable
    n1f = float(v[4, 1].real)
    n2f = float(v[5, 2].real)
    n1f -= 0.5
    n2f -= 0.5
    if physical and min(n1f, n2f) < -1e-6 and _canonical_bath(nm.c):
        raise UnphysicalResult(
            f"stable solve returned negative occupation ({n1f:.3e}, {n2f:.3e})")
    return CovarianceResult(v=v, n1f=n1f, n2f=n2f,
                            lyap_residual=float(residual), physical=physical)


def phonon_numbers(cv: CovarianceResult) -> tuple[float, float]:
    """Final phonon occupations from the covariance matrix.

    n1f = V[5,2] - 1/2 and n2f = V[6,3] - 1/2 in 1-based indexing; the
    imaginary parts must be negligible.
    """
    raw1 = cv.v[4, 1]
    raw2 = cv.v[5, 2]
    for name, val in (("n1f", raw1), ("n2f", raw2)):
        if abs(val.imag) > PHONON_IMAG_TOL * (1.0 + abs(val.real)):
            raise ComplexPhonon(f"{name} has imaginary part {val.imag:.3e}")
    return float(raw1.real) - 0.5, float(raw2.real) - 0.5


def row_occupations(cv: CovarianceResult, diagnostics: list[Diagnostic],
                    stable: bool = True):
    """(n1f, n2f) of a solved covariance for an output row.

    Records a lyap-residual diagnostic when the solve's residual exceeds
    LYAP_RESIDUAL_TOL.  The occupations go through ``phonon_numbers`` and its
    imaginary-part check; they are (None, None) when ``stable`` is false.
    """
    if cv.lyap_residual > LYAP_RESIDUAL_TOL:
        diagnostics.append(Diagnostic(
            "lyap-residual",
            f"Lyapunov residual {cv.lyap_residual:.3e} exceeds "
            f"{LYAP_RESIDUAL_TOL:g}"))
    return phonon_numbers(cv) if stable else (None, None)


def dark_mode_diagnostics(lp: LinearizedParams) -> DarkModeDiagnostics:
    """Overlap of the cavity drive with the collective dark mechanical mode."""
    g1, g2 = complex(lp.g1_eff), complex(lp.g2_eff)
    total = math.hypot(abs(g1), abs(g2))
    if total == 0.0:
        raise ZeroCoupling("dark-mode overlap undefined for g1_eff = g2_eff = 0")
    rot = g2 * np.exp(1j * lp.theta)
    overlap_plus = abs(g1 + rot) / total
    overlap_minus = abs(g1 - rot) / total
    overlap_min = min(overlap_plus, overlap_minus)
    mixing = (abs(lp.omega_ex), abs(complex(lp.g22)))
    mixing_tol = MIXING_TOL_FACTOR * lp.omega1
    flag = (overlap_min < DARK_TOL
            and mixing[0] < mixing_tol and mixing[1] < mixing_tol)
    return DarkModeDiagnostics(
        dark_overlap=float(overlap_plus),
        dark_overlap_min=float(overlap_min),
        bright_coupling=float(total),
        mixing_terms=mixing,
        dark_flag=bool(flag),
    )


def cool_linearized(lp: LinearizedParams) -> CovarianceResult:
    """Convenience pipeline: drift matrix + noise model -> covariance."""
    return solve_lyapunov(build_drift_matrix(lp), build_noise_model(lp))
