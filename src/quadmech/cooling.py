"""Steady-state covariance, phonon occupations and dark-mode diagnostics.

Everything is real, in the quadrature basis q = T u of ``stability``: the
symmetrized covariance V of q obeys R V + V R^T + Q = 0, where R is the real
drift matrix and Q = T Q_u T^T the diagonal diffusion matrix of the baths,
so V is real symmetric and the equation has 21 unknowns (V's upper
triangle).  The 21x21 system is solved densely, once: LU with partial
pivoting is backward stable, and its residual stays far below
LYAP_RESIDUAL_TOL even for stiff damping hierarchies (gamma ~ 1e-6 kappa),
so refinement at the same precision would buy nothing.  Stacks of drift
matrices are solved together, in blocks of LYAP_BLOCK systems per stacked
call.  The ``physical`` flag is R's stability from Routh's test
(``stability.hurwitz_stable``), the verdict the branches get; it does not
depend on V, Q or the residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .params import LinearizedParams, param_columns
from .stability import build_drift_matrix, hurwitz_stable
from .steady_state import Diagnostic

LYAP_RESIDUAL_TOL = 1e-10
DARK_TOL = 0.05            # overlap threshold for the dark flag
MIXING_TOL_FACTOR = 0.01   # |Omega|, |G22| below this * omega1 count as unmixed
# Lyapunov systems per stacked solve: bounds the live (k, 21, 21) stacks, so
# a caller may pass a batch of any size.  Results do not depend on it.
LYAP_BLOCK = 64


class SingularLyapunov(ArithmeticError):
    """The Lyapunov system is singular (some lambda_i + lambda_j = 0)."""


class UnphysicalResult(ArithmeticError):
    """A stable solve produced a significantly negative phonon number."""


class ZeroCoupling(ValueError):
    """Dark-mode overlap undefined because g1_eff = g2_eff = 0."""


@dataclass(frozen=True)
class CovarianceResult:
    """Solved steady-state covariance with extracted phonon numbers.  A
    stacked solve gives v as a (k, 6, 6) array and the other fields as
    length-k arrays."""

    v: np.ndarray
    n1f: float
    n2f: float
    lyap_residual: float    # |R V + V R^T + Q|_F / |Q|_F, of this v
    physical: bool          # R is stable, by ``hurwitz_stable``


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


def build_noise_model(lp: LinearizedParams) -> np.ndarray:
    """Bath diffusion: vacuum for the cavity, thermal for the mechanics,
    Q = diag(kappa, gamma1 (2 nbar1 + 1), gamma2 (2 nbar2 + 1)) on both the
    x and the p quadratures (a (k, 6, 6) stack for a column record)."""
    p, scalar = param_columns(lp, LinearizedParams)
    q = np.zeros((len(p.kappa), 6, 6))
    for j, rate in enumerate((p.kappa, p.gamma1 * (2.0 * p.nbar1 + 1.0),
                              p.gamma2 * (2.0 * p.nbar2 + 1.0))):
        q[:, j, j] = q[:, j + 3, j + 3] = rate
    return q[0] if scalar else q


# The 21 unknowns are the upper triangle of the symmetric V, row by row;
# _SLOT[i, j] is the unknown holding V[i, j] = V[j, i].
_UPPER = np.triu_indices(6)
_SLOT = np.empty((6, 6), dtype=int)
_SLOT[_UPPER] = _SLOT.T[_UPPER] = np.arange(21)


def _operator_terms() -> tuple[list, list]:
    """(operator entry, A entry) index pairs, both flattened, of the 21x21
    operator u -> upper triangle of A V + V A^T: each nonzero entry is its
    first A entry plus, for some, a second one (a doubled entry twice)."""
    terms: list[list[int]] = [[] for _ in range(441)]
    for row, (i, j) in enumerate(zip(*_UPPER)):
        for m in range(6):
            terms[21 * row + _SLOT[m, j]].append(6 * i + m)   # (A V)[i, j]
            terms[21 * row + _SLOT[i, m]].append(6 * j + m)   # (V A^T)[i, j]
    return ([(e, t[0]) for e, t in enumerate(terms) if t],
            [(e, t[1]) for e, t in enumerate(terms) if len(t) == 2])


_FIRST, _SECOND = (np.array(pairs).T for pairs in _operator_terms())


def _lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """The (k, 21, 21) symmetric Lyapunov operators of a (k, 6, 6) stack.

    Each entry is the exact sum of at most two entries of A, so a cell's
    operator does not depend on the stack it shares."""
    flat = a.reshape(-1, 36)
    m = np.zeros((len(a), 441))
    m[:, _FIRST[0]] = flat[:, _FIRST[1]]
    m[:, _SECOND[0]] += flat[:, _SECOND[1]]
    return m.reshape(-1, 21, 21)


def _residual(a, v, q, scale):
    """The Frobenius norm of A V + V A^T + Q relative to ``scale``."""
    r = a @ v + v @ a.transpose(0, 2, 1) + q
    return np.linalg.norm(r.reshape(-1, 36), axis=1) / scale


def _solve_symmetric(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The symmetric V with upper triangle of A V + V A^T = rhs (k, 6, 6),
    from one stacked solve per LYAP_BLOCK cells."""
    u = rhs[:, _UPPER[0], _UPPER[1], None]
    for s in range(0, len(a), LYAP_BLOCK):
        try:
            u[s:s + LYAP_BLOCK] = np.linalg.solve(
                _lyapunov_operator(a[s:s + LYAP_BLOCK]), u[s:s + LYAP_BLOCK])
        except np.linalg.LinAlgError as exc:
            raise SingularLyapunov(str(exc)) from exc
    return u[:, _SLOT, 0]


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> CovarianceResult:
    """Solve R V + V R^T + Q = 0 for the real symmetric V.

    Q must be symmetric; then V = V^T, with the 21 unknowns of its upper
    triangle, from one stacked solve per LYAP_BLOCK cells and no refinement.
    The reported residual is that of the returned V on the full 6x6
    equation; a cell above LYAP_RESIDUAL_TOL is not re-solved, but
    ``flag_residuals`` reports it.  ``physical`` is ``hurwitz_stable`` of
    the drift matrix, whatever V, Q and the residual.
    ``a`` and ``q`` may be one 6x6 matrix each, or (k, 6, 6) stacks of
    equal length; one result with array fields then comes back, each entry
    depending only on its cell.

    An unstable drift matrix still yields a formal solution when the
    Lyapunov system is regular, but the result is flagged physical=False.
    A stable solve with a negative occupation raises UnphysicalResult when
    Q is a physical bath: diagonal, nonnegative, equal in its x and p halves.
    """
    if np.iscomplexobj(a) or np.iscomplexobj(q):
        raise ValueError("the Lyapunov solve takes the real quadrature forms")
    single = np.ndim(a) == 2
    a = np.asarray(a, dtype=float).reshape(-1, 6, 6)
    q = np.asarray(q, dtype=float).reshape(-1, 6, 6)
    if len(q) != len(a):
        raise ValueError(f"{len(a)} drift matrices but {len(q)} Q matrices")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(q))):
        raise ValueError("array must not contain infs or NaNs")
    if not np.array_equal(q, q.transpose(0, 2, 1)):
        raise ValueError("the symmetric Lyapunov form needs a symmetric Q")
    v = _solve_symmetric(a, -q)
    if not np.all(np.isfinite(v)):
        raise SingularLyapunov("Lyapunov solve overflowed")
    qnorm = np.linalg.norm(q.reshape(-1, 36), axis=1)
    scale = np.where(qnorm > 0.0, qnorm, 1.0)
    residual = _residual(a, v, q, scale)
    n1f, n2f = _occupations(v)
    d = np.diagonal(q, axis1=1, axis2=2)
    bath = (np.all(q == d[:, None, :] * np.eye(6), axis=(1, 2))
            & np.all(d >= 0.0, axis=1) & np.all(d[:, :3] == d[:, 3:], axis=1))
    physical = hurwitz_stable(a)
    bad = np.flatnonzero(physical & (np.minimum(n1f, n2f) < -1e-6) & bath)
    if bad.size:
        k = bad[0]
        raise UnphysicalResult(f"stable solve returned negative occupation "
                               f"({n1f[k]:.3e}, {n2f[k]:.3e})")
    if single:
        return CovarianceResult(v[0], n1f.item(), n2f.item(), residual.item(),
                                physical.item())
    return CovarianceResult(v, n1f, n2f, residual, physical)


def _occupations(v: np.ndarray):
    """n_j = (V_xx + V_pp - 1)/2 of the two oscillators, for one covariance
    or a stack."""
    return ((v[..., 1, 1] + v[..., 4, 4] - 1.0) / 2.0,
            (v[..., 2, 2] + v[..., 5, 5] - 1.0) / 2.0)


def phonon_numbers(cv: CovarianceResult) -> tuple[float, float]:
    """Final phonon occupations (n1f, n2f) from the covariance matrix."""
    n1, n2 = _occupations(cv.v)
    return float(n1), float(n2)


def flag_residuals(residual: np.ndarray, sinks: list) -> None:
    """Append a lyap-residual diagnostic to ``sinks[k]`` for each solve k
    whose residual exceeds LYAP_RESIDUAL_TOL (NaN, for no solve, does not)."""
    for k in np.flatnonzero(residual > LYAP_RESIDUAL_TOL).tolist():
        sinks[k].append(Diagnostic(
            "lyap-residual", f"Lyapunov residual {residual[k]:.3e} exceeds "
            f"{LYAP_RESIDUAL_TOL:g}"))


def dark_mode_diagnostics(lp: LinearizedParams) -> DarkModeDiagnostics:
    """Overlap of the cavity drive with the collective dark mechanical mode.

    A column record gives length-k arrays in every field, with NaN overlaps
    where g1_eff = g2_eff = 0; a scalar record raises ZeroCoupling there."""
    p, scalar = param_columns(lp, LinearizedParams)
    total = np.hypot(np.abs(p.g1_eff), np.abs(p.g2_eff))
    if scalar and total[0] == 0.0:
        raise ZeroCoupling("dark-mode overlap undefined for g1_eff = g2_eff = 0")
    total[total == 0.0] = np.nan
    rot = p.g2_eff * np.exp(1j * p.theta)
    overlap_plus = np.abs(p.g1_eff + rot) / total
    overlap_min = np.minimum(overlap_plus, np.abs(p.g1_eff - rot) / total)
    mixing = (np.abs(p.omega_ex), np.abs(p.g22))
    mixing_tol = MIXING_TOL_FACTOR * p.omega1
    flag = ((overlap_min < DARK_TOL)
            & (mixing[0] < mixing_tol) & (mixing[1] < mixing_tol))
    if scalar:
        mixing = (mixing[0].item(), mixing[1].item())
        return DarkModeDiagnostics(overlap_plus.item(), overlap_min.item(),
                                   total.item(), mixing, flag.item())
    return DarkModeDiagnostics(overlap_plus, overlap_min, total, mixing, flag)


def cool_linearized(lp: Union[LinearizedParams, Sequence[LinearizedParams]]):
    """Convenience pipeline: drift and noise matrices -> covariance.

    A column record, or a sequence of parameter sets (stacked into one),
    gives one covariance with array fields, from one batched
    ``solve_lyapunov`` call.
    """
    if not isinstance(lp, LinearizedParams):
        lp, _ = param_columns(lp, LinearizedParams)
    return solve_lyapunov(build_drift_matrix(lp), build_noise_model(lp))
