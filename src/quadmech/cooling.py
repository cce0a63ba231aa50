"""Steady-state covariance, phonon occupations and dark-mode diagnostics.

The covariance V of the fluctuation vector obeys A V + V A^T + Q = 0 with the
plain (not conjugate) transpose; Q symmetrizes the bath correlation matrix C.
The 36-dimensional vectorized system is solved densely, followed by iterative
refinement so the residual stays at working precision even for stiff damping
hierarchies (gamma ~ 1e-6 kappa).  Stacks of drift matrices are solved
together, in blocks of LYAP_BLOCK Kronecker systems per stacked call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .params import LinearizedParams
from .stability import DriftMatrix, build_drift_matrix, classify_stability
from .steady_state import Diagnostic

LYAP_RESIDUAL_TOL = 1e-10
PHONON_IMAG_TOL = 1e-6
DARK_TOL = 0.05            # overlap threshold for the dark flag
MIXING_TOL_FACTOR = 0.01   # |Omega|, |G22| below this * omega1 count as unmixed
# Kronecker systems per stacked solve: bounds the live (k, 36, 36) stacks, so
# a caller may pass a batch of any size.  Results do not depend on it.
LYAP_BLOCK = 64


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


def _kronecker_sum(a: np.ndarray) -> np.ndarray:
    """The 36x36 matrices kron(I, a) + kron(a, I) of a (k, 6, 6) stack.

    Filled directly into a (k, 6, 6, 6, 6) view whose entry [i, p, j, q] is
    delta_ij a[p, q] + a[i, j] delta_pq; the values equal those of the two
    ``np.kron`` calls, without their outer products.
    """
    m = np.zeros((len(a), 6, 6, 6, 6), dtype=complex)
    for i in range(6):
        m[:, i, :, i, :] = a
    for p in range(6):
        m[:, :, p, :, p] += a
    return m.reshape(len(a), 36, 36)


def _solve_block(a: np.ndarray, q: np.ndarray):
    """Refined solutions V and relative residuals of a (k, 6, 6) block.

    One stacked solve, then up to three refinement steps on the cells still
    active; a cell stops when its residual no longer decreases or drops
    below 1e-14, on its own, so its result does not depend on the block.
    """
    k = len(a)
    m = _kronecker_sum(a)
    try:
        v = np.linalg.solve(m, -q.reshape(k, 36, 1)).reshape(k, 6, 6)
    except np.linalg.LinAlgError as exc:
        raise SingularLyapunov(str(exc)) from exc
    if not np.all(np.isfinite(v)):
        raise SingularLyapunov("vectorized Lyapunov solve overflowed")
    qnorm = np.linalg.norm(q.reshape(k, 36), axis=1)
    scale = np.where(qnorm > 0.0, qnorm, 1.0)
    residual = np.full(k, np.inf)
    live = np.arange(k)
    for _ in range(3):
        al, vl = a[live], v[live]
        r = al @ vl + vl @ al.transpose(0, 2, 1) + q[live]
        new_res = np.linalg.norm(r.reshape(-1, 36), axis=1) / scale[live]
        go = ~(new_res >= residual[live])
        live, r = live[go], r[go]
        residual[live] = new_res[go]
        go = ~(residual[live] < 1e-14)
        live, r = live[go], r[go]
        if not live.size:
            break
        v[live] -= np.linalg.solve(m[live], r.reshape(-1, 36, 1)).reshape(-1, 6, 6)
    return v, residual


def solve_lyapunov(A: DriftMatrix, nm):
    """Dense vectorized solve of A V + V A^T + Q = 0 with refinement.

    ``A.a`` may be one 6x6 matrix with one ``NoiseModel``, or a (k, 6, 6)
    stack with a sequence of k noise models; a list of k results then comes
    back.  One matrix is a batch of one.  The stack is solved in blocks of
    LYAP_BLOCK cells, and each cell's result depends only on that cell.

    An unstable drift matrix still yields a formal solution when the
    Kronecker system is regular, but the result is flagged physical=False.
    """
    if A.a.ndim == 2:
        return solve_lyapunov(DriftMatrix(a=A.a[None]), [nm])[0]
    nms = list(nm)
    a = np.asarray(A.a, dtype=complex)
    if len(nms) != len(a):
        raise ValueError(f"{len(a)} drift matrices but {len(nms)} noise models")
    if not nms:
        return []
    q = np.array([m.q for m in nms], dtype=complex)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(q))):
        raise ValueError("array must not contain infs or NaNs")
    v = np.empty_like(q)
    residual = np.empty(len(a))
    for s in range(0, len(a), LYAP_BLOCK):
        v[s:s + LYAP_BLOCK], residual[s:s + LYAP_BLOCK] = _solve_block(
            a[s:s + LYAP_BLOCK], q[s:s + LYAP_BLOCK])
    physical = [verdict.stable for verdict in classify_stability(DriftMatrix(a=a))]
    raw1, raw2 = _moments(v)
    n1f, n2f = raw1.real - 0.5, raw2.real - 0.5
    out = []
    for k, nmk in enumerate(nms):
        n1, n2 = float(n1f[k]), float(n2f[k])
        if physical[k] and min(n1, n2) < -1e-6 and _canonical_bath(nmk.c):
            raise UnphysicalResult(
                f"stable solve returned negative occupation ({n1:.3e}, {n2:.3e})")
        out.append(CovarianceResult(v=v[k], n1f=n1, n2f=n2,
                                    lyap_residual=float(residual[k]),
                                    physical=physical[k]))
    return out


def _moments(v: np.ndarray):
    """V[5,2] and V[6,3] (1-based) of one covariance or of a stack: the
    occupations of the two oscillators plus 1/2."""
    return v[..., 4, 1], v[..., 5, 2]


def phonon_numbers(cv: CovarianceResult) -> tuple[float, float]:
    """Final phonon occupations from the covariance matrix.

    n1f = V[5,2] - 1/2 and n2f = V[6,3] - 1/2 in 1-based indexing; the
    imaginary parts must be negligible.
    """
    raw1, raw2 = _moments(cv.v)
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


def cool_linearized(lp: Union[LinearizedParams, Sequence[LinearizedParams]]):
    """Convenience pipeline: drift matrix + noise model -> covariance.

    ``lp`` may also be a sequence of parameter sets: a list of covariances
    then comes back, from one batched ``solve_lyapunov`` call.
    """
    if isinstance(lp, LinearizedParams):
        return solve_lyapunov(build_drift_matrix(lp), build_noise_model(lp))
    lps = list(lp)
    a = np.array([build_drift_matrix(q).a for q in lps], dtype=complex)
    return solve_lyapunov(DriftMatrix(a=a.reshape(-1, 6, 6)),
                          [build_noise_model(q) for q in lps])
