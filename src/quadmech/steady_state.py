"""Nonlinear steady states of the driven cavity / two-mode mechanical system.

The steady-state photon numbers n_p = |alpha|^2 are the roots of the
fixed-point map f(n_p) = eta^2/(kappa^2 + Delta(n_p)^2) - n_p, with Delta(n_p)
taken from the exact rational form of the mechanical displacements
(``RationalResponse``).  ``exact_roots`` solves the degree-7 polynomial Q(n)
that f(n) = 0 clears to, in a pole-centred variable, by stacked
companion-matrix eigenvalues, polishes each root by bisection on f and
certifies each cell.  A cell whose certificate fails takes the roots of the
scan oracle (``oracle_roots``), which brackets and bisects f on a 4096-point
grid and is the authority the tests hold the exact route to.  Every root must
pass the self-consistency residual of a dense 4x4 mechanical solve
(``reconstruct_branches``).  All routes run on a batch of parameter sets.

The verbatim closed-form polynomial (``build_polynomial``) serves only the
coefficient-mismatch diagnostic, which compares its C0..C7 with Q's
(``coefficient_deviation``: its mixed g1-g2 terms C5/C6 are wrong whenever
both couplings are active), and ``quadmech roots``, which lists its roots.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .params import SystemParams

# Frozen numerical policy (see the project decision ledger):
ROOT_ACCEPT_TOL = 1e-6    # relative self-consistency residual for a kept root
NEG_TOL = 1e-9            # roots >= -NEG_TOL are clamped to zero
DEFLATE_TOL = 1e-12       # leading-coefficient deflation, after variable scaling
IMAG_TOL = 1e-7           # |Im r| < IMAG_TOL*(1+|Re r|) counts as real
DEDUPE_TOL = 1e-8         # roots closer than DEDUPE_TOL*(1+n) merge
MATCH_TOL = 1e-6          # `roots` agreement: within MATCH_TOL*max(1,n)
COEFF_TOL = 1e-12         # closed-form/fixed-point coefficient gap, of max |C_m|
ORACLE_MARGIN = 0.05      # scan upper bound: (1+margin)*eta^2/kappa^2
SINGULAR_COND = 1e14      # condition-number cutoff of the 4x4 mechanical solve
SCAN_BLOCK = 1 << 13      # oracle scan points evaluated at once (bounds memory)
MIN_SCAN_POINTS = 1000    # coarsest oracle scan grid accepted
POLE_TOL = 1e-9           # exact roots within POLE_TOL*(1+c) of the pole drop
POLISH_TOL = 1e-7         # exact-route polish bracket: +-POLISH_TOL*max(1,n)


class ZeroPolynomial(ValueError):
    """All polynomial coefficients are (numerically) zero."""


class SingularMechanicalSystem(ArithmeticError):
    """The 4x4 mechanical steady-state system is singular at this n_p
    (e.g. omega2 + 4 g2 n_p -> 0 with omega_ex = 0)."""


class ResidualTooLarge(ValueError):
    """The supplied n_p is not a self-consistent steady state."""


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Coefficients C0..C7 of sum_m C_m n_p^m = 0, plus derived intermediates.

    aux records x = omega1*omega2 - omega_ex^2, y = 2 cos(2 theta),
    z = delta_c^2 + kappa^2 and the natural photon-number scale used to
    condition the root solve.
    """

    c: np.ndarray                    # shape (8,), ascending order
    aux: dict = field(default_factory=dict)

    def degree(self) -> int:
        nz = np.nonzero(self.c)[0]
        return int(nz[-1]) if len(nz) else -1


@dataclass(frozen=True)
class SteadyStateBranch:
    """One self-consistent steady state at photon number n_p."""

    n_p: float
    alpha: complex
    beta1: complex
    beta2: complex
    delta_eff: float
    residual: float


@dataclass
class Diagnostic:
    """A non-fatal event recorded during a solve or sweep."""

    kind: str                 # "coefficient-mismatch" | "residual-drop" | ...
    message: str
    cell: Optional[tuple] = None


def build_polynomial(p: Union[SystemParams, Sequence[SystemParams]]):
    """Closed-form coefficients of the photon-number polynomial.

    ``p`` is one parameter set (one PolynomialCoefficients comes back) or a
    sequence of them (one per set); a single set is a batch of one, and the
    closed form is evaluated once on the batch's field columns.
    Degenerations: g2 = 0 gives an exact cubic, g1 = 0 a quintic, and with
    both couplings zero only C0, C1 survive (single Lorentzian root).
    """
    if isinstance(p, SystemParams):
        return build_polynomial([p])[0]
    w1, w2, Om, g1, g2, Dc, kap, eta, theta = np.array(
        [(q.omega1, q.omega2, q.omega_ex, q.g1, q.g2, q.delta_c, q.kappa,
          q.eta, q.theta) for q in p], dtype=float).reshape(-1, 9).T
    x = w1 * w2 - Om**2
    y = 2.0 * np.cos(2.0 * theta)
    z = Dc**2 + kap**2

    c7 = 64 * g1**4 * g2**4 * w1**2 * (
        4 * (x + w1 * w2) * ((x + w1 * w2) - Om**2 * y) + Om**4 * y**2)
    c6 = (32 * g1**4 * g2**3 * w1 * x * (
            (2 * (x + 2 * w1 * w2))**2 - 16 * w1**2 * w2**2
            - Om**2 * (2 * (1 + w1 * w2) + y * (4 + 9 * w1 * w2))
            + 1.5 * Om**4 * y**2)
          - 256 * g2**4 * g1**2 * w1**3 * x * Dc * (2 * (x + w1 * w2) + Om**2 * y))
    c5 = (16 * g1**4 * g2**2 * x**2 * (
            (x + math.sqrt(5.0) * w1 * w2)**2 + 8 * w1**2 * w2**2
            + (0.75 * Om**4 - 0.5 * Om**2 * (3 * x + 13 * w1 * w2)) * y
            + Om**4 * (11.0 / 8.0 + (9.0 / 16.0) * (y**2 - 2))
            - Om**2 * (x + 3 * w1 * w2))
          + 256 * g2**4 * w1**4 * x**2 * z
          + 64 * g2**3 * g1**2 * w1**2 * x**2 * Dc * (
            Om**2 + 3.5 * Om**2 * y - (6 * x + 10 * w1 * w2)))
    c4 = (16 * g1**4 * g2 * x**3 * w2 * (
            x + 3 * w1 * w2 - 0.5 * Om**2 - 0.75 * Om**2 * y)
          + 32 * g1**2 * g2**2 * x**3 * w1 * Dc * (
            -9 * w1 * w2 - 3 * x + Om**2 + 2 * Om**2 * y)
          - 256 * (g2**4 * w1**4 * x**2 * eta**2 - g2**3 * x**3 * w1**3 * z))
    c3 = (-4 * x**4 * g1**2 * g2 * Dc * (2 * x + 14 * w1 * w2 - Om**2 - 1.5 * Om**2 * y)
          + 4 * g1**4 * x**4 * w2**2
          - 256 * g2**3 * x**3 * w1**3 * eta**2
          + 96 * g2**2 * x**4 * w1**2 * z)
    c2 = -4 * g1**2 * x**5 * w2 * Dc - 96 * g2**2 * x**4 * w1**2 * eta**2 \
        + 16 * g2 * x**5 * w1 * z
    c1 = -16 * g2 * x**5 * eta**2 * w1 + x**6 * z
    c0 = -(eta**2) * x**6

    coeffs = np.stack([c0, c1, c2, c3, c4, c5, c6, c7], axis=1)
    n_scale = np.maximum(eta**2 / kap**2, 1.0)
    return [PolynomialCoefficients(c=c, aux=dict(x=a, y=b, z=d, n_scale=n))
            for c, a, b, d, n in zip(coeffs, x.tolist(), y.tolist(),
                                     z.tolist(), n_scale.tolist())]


def batch_real_roots(coeffs: Sequence[PolynomialCoefficients]) -> list:
    """Real nonnegative roots of each photon-number polynomial, ascending.

    ``_companion_roots`` on the coefficients in n_p = n_scale * m, which
    makes their magnitudes comparable (they span ~24 decades otherwise,
    wrecking both the deflation and the eigenvalue accuracy), so every set's
    roots equal numpy.roots on its own scaled coefficients.  A set whose
    polynomial vanishes or deflates to a constant gets a ZeroPolynomial in
    place of its roots.
    """
    c = np.array([q.c for q in coeffs], dtype=float).reshape(-1, 8)
    s = np.array([float(q.aux.get("n_scale", 1.0)) or 1.0 for q in coeffs])
    scaled = c * s[:, None] ** np.arange(c.shape[1])
    solvable, zeros, groups = _companion_roots(scaled[:, ::-1])
    out: list = [[] for _ in coeffs]
    for k in np.flatnonzero(~solvable):
        top = np.max(np.abs(scaled[k]))
        out[k] = ZeroPolynomial(
            "polynomial deflates to a constant" if 0.0 < top < np.inf
            else "all coefficients vanish (or are non-finite)")
    for rows, ev in groups:
        rr = ev.real * s[rows, None]
        real = np.abs(ev.imag) * s[rows, None] < IMAG_TOL * (1.0 + np.abs(rr))
        for k, r, keep in zip(rows.tolist(), rr.tolist(), real.tolist()):
            out[k] = [x for x, y in zip(r, keep) if y]
    for k in np.flatnonzero(solvable).tolist():
        out[k] = _merge_roots(out[k] + [0.0] * bool(zeros[k]))
    return out


def _companion_roots(hi: np.ndarray):
    """Roots of each row of a (k, m) coefficient stack, highest degree first.

    Leading coefficients below DEFLATE_TOL of the row's largest are deflated
    and exact zeros at the low end are counted as roots at the origin; the
    rest of each row is solved by its companion matrix, built as numpy.roots
    builds it, and the matrices of one degree share one stacked eigenvalue
    call.  Returns which rows are solvable (their coefficients are finite,
    not all zero, and do not deflate to a constant), each row's count of
    roots at the origin, and (rows, eigenvalues) for each degree.
    """
    top = np.max(np.abs(hi), axis=1)
    lead = np.cumprod(np.abs(hi) < DEFLATE_TOL * top[:, None], axis=1).sum(1)
    with np.errstate(all="ignore"):
        monic = hi / top[:, None]           # numpy.roots' normalisation
    zeros = np.cumprod(monic[:, ::-1] == 0.0, axis=1).sum(1)
    size = hi.shape[1] - lead - zeros       # coefficients left to solve
    solvable = (top > 0.0) & np.isfinite(top) & (lead < hi.shape[1] - 1)
    groups = []
    for m in np.unique(size[solvable & (size > 1)]):
        rows = np.flatnonzero(solvable & (size == m))
        p = monic[rows[:, None], lead[rows, None] + np.arange(m)]
        companion = np.zeros((len(rows), m - 1, m - 1))
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
        groups.append((rows, np.linalg.eigvals(companion)))
    return solvable, zeros, groups


def _merge_roots(roots: list[float]) -> list[float]:
    """Sorted roots >= -NEG_TOL, clamped to zero, near-duplicates merged."""
    roots = sorted(r for r in roots if r >= -NEG_TOL)
    out: list[float] = []
    for r in roots:
        r = max(r, 0.0)
        if out and abs(r - out[-1]) < DEDUPE_TOL * (1.0 + r):
            out[-1] = 0.5 * (out[-1] + r)   # merge near-duplicates
        else:
            out.append(r)
    return out


def find_real_roots(coeffs: PolynomialCoefficients) -> list[float]:
    """Real nonnegative roots of one photon-number polynomial, ascending: a
    batch of one of ``batch_real_roots``.  Raises ZeroPolynomial when the
    polynomial vanishes or deflates to a constant."""
    (roots,) = batch_real_roots([coeffs])
    if isinstance(roots, ZeroPolynomial):
        raise roots
    return roots


# ---------------------------------------------------------------------------
# mechanical fixed point at given photon number
# ---------------------------------------------------------------------------

def _mech_matrix(p: SystemParams, with_damping: bool) -> tuple:
    """Rows of the 4x4 mechanical system M0 at n_p = 0.

    Unknowns (Re b1, Im b1, Re b2, Im b2); rows are Re/Im of the b1
    equation, then of the b2 equation, for (gamma + i*omega)*b + i*drive = 0.
    The quadratic frequency pull omega2 -> omega2 + 4 g2 n_p acts on Re b2
    only, so M(n_p) = M0 + 4 g2 n_p e3 e2^T, and the drive -g1 n_p enters
    row 1 alone.
    """
    c, s = math.cos(p.theta), math.sin(p.theta)
    Om = p.omega_ex
    g1m = p.gamma1 if with_damping else 0.0
    g2m = p.gamma2 if with_damping else 0.0
    return ((g1m, -p.omega1, -Om * s, -Om * c),
            (p.omega1, g1m, Om * c, -Om * s),
            (Om * s, -Om * c, g2m, -p.omega2),
            (Om * c, Om * s, p.omega2, g2m))


def _mech_matrices(ps: Sequence[SystemParams], with_damping: bool) -> np.ndarray:
    """The (k, 4, 4) stack of the sets' M0."""
    return np.array([_mech_matrix(p, with_damping) for p in ps],
                    dtype=float).reshape(-1, 4, 4)


def _mechanical_solve(ps: Sequence[SystemParams], counts: Sequence[int],
                      n_p: np.ndarray, with_damping: bool):
    """Mechanical steady states (Re b1, Im b1, Re b2, Im b2) at the photon
    numbers ``n_p``, ``counts[k]`` of them for set k, in a (len(n_p), 4)
    array, and for each an error message (None when the solve is sound).

    One stacked condition check and one stacked solve of the matrices under
    SINGULAR_COND; each row equals the dense 4x4 solve of its own system.
    """
    n_p = np.asarray(n_p, dtype=float)
    g1, g2, omega2 = np.repeat(np.array([(p.g1, p.g2, p.omega2) for p in ps],
                                        dtype=float).reshape(-1, 3),
                               counts, axis=0).T
    M = np.repeat(_mech_matrices(ps, with_damping), counts, axis=0)
    M[:, 3, 2] = omega2 + 4.0 * g2 * n_p
    rhs = np.zeros((len(n_p), 4, 1))
    rhs[:, 1, 0] = -g1 * n_p
    sol = np.full((len(n_p), 4), np.nan)
    sound = ~(np.linalg.cond(M) > SINGULAR_COND)
    rows = np.flatnonzero(sound)
    try:
        sol[rows] = np.linalg.solve(M[rows], rhs[rows])[..., 0]
    except np.linalg.LinAlgError:       # find the singular ones
        for k in rows:
            try:
                sol[k] = np.linalg.solve(M[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                sound[k] = False
    finite = np.isfinite(sol).all(axis=1)
    errors = [None if ok and fin else
              f"mechanical solve overflowed at n_p = {n:.6g}" if ok else
              f"mechanical system singular at n_p = {n:.6g}"
              for n, ok, fin in zip(n_p.tolist(), sound.tolist(),
                                    finite.tolist())]
    return sol, errors


def mechanical_response(p: SystemParams, n_p: float,
                        with_damping: bool = False) -> tuple[complex, complex]:
    """Mechanical amplitudes (beta1, beta2) at fixed photon number.

    Damping is excluded by default, matching the steady-state algebra that the
    polynomial encodes; ``with_damping=True`` retains gamma for sensitivity
    studies.  Raises SingularMechanicalSystem when the 4x4 system is
    (numerically) singular.  This dense solve is independent of the rational
    response the oracle scans with, so ``reconstruct_branch`` checks every
    root against it.  A batch of one of the stacked solve behind
    ``reconstruct_branches``.
    """
    sol, (error,) = _mechanical_solve([p], [1], [n_p], with_damping)
    if error is not None:
        raise SingularMechanicalSystem(error)
    return complex(sol[0, 0], sol[0, 1]), complex(sol[0, 2], sol[0, 3])


@dataclass(frozen=True)
class RationalResponse:
    """Exact mechanical response of a batch of parameter sets, one column each.

    Only M[3, 2] depends on n_p and the drive is proportional to n_p, so by
    Cramer's rule (equivalently Sherman-Morrison)

        Re b1(n) = n (a0 + a1 n) / (d0 + d1 n),   Re b2(n) = n e / (d0 + d1 n)

    with d0 = det M0, d1 = 4 g2 C32, a0 + a1 n = g1 det(minor10 of M(n)) and
    e = g1 det(minor12 of M0) (C32 the (3, 2) cofactor of M0).  Determinants
    need no special case for a singular M0.  Rows of ``coef``: a0, a1, e,
    d0, d1, delta_c, g1, g2, eta, kappa.
    """

    coef: np.ndarray                 # shape (10, cells)

    @classmethod
    def of(cls, ps: Sequence[SystemParams],
           with_damping: bool = False) -> "RationalResponse":
        M0 = _mech_matrices(ps, with_damping)
        g1, g2, delta_c, eta, kappa = np.array(
            [(p.g1, p.g2, p.delta_c, p.eta, p.kappa) for p in ps],
            dtype=float).reshape(-1, 5).T
        det = np.linalg.det
        a0 = g1 * det(M0[:, [0, 2, 3]][:, :, [1, 2, 3]])
        a1 = -4.0 * g1 * g2 * det(M0[:, [0, 2]][:, :, [1, 3]])
        e = g1 * det(M0[:, [0, 2, 3]][:, :, [0, 1, 3]])
        d1 = -4.0 * g2 * det(M0[:, [0, 1, 2]][:, :, [0, 1, 3]])
        return cls(np.stack([a0, a1, e, det(M0), d1, delta_c, g1, g2, eta,
                             kappa]))

    def take(self, cells, repeats=1) -> "RationalResponse":
        """The columns picked by ``cells``, each repeated ``repeats`` times."""
        return RationalResponse(np.repeat(self.coef[:, cells], repeats, axis=1))

    def detuning(self, n_p: np.ndarray) -> np.ndarray:
        """Effective detuning Delta(n_p) elementwise; NaN where the
        denominator is exactly zero (a point on the mechanical pole)."""
        a0, a1, e, d0, d1, delta_c, g1, g2 = self.coef[:8]
        with np.errstate(all="ignore"):
            den = d0 + d1 * n_p
            den = np.where(den == 0.0, np.nan, den)
            u1 = n_p * (a0 + a1 * n_p) / den
            u2 = n_p * e / den
            # conj(b2)^2 + b2^2 + 2|b2|^2 collapses to 4 Re[b2]^2
            return delta_c + 2.0 * g1 * u1 + g2 * (4.0 * u2**2)

    def defect(self, n_p: np.ndarray) -> np.ndarray:
        """f(n_p) = eta^2/(kappa^2 + Delta(n_p)^2) - n_p elementwise."""
        eta, kappa = self.coef[8], self.coef[9]
        delta = self.detuning(n_p)
        with np.errstate(all="ignore"):
            return eta**2 / (kappa**2 + delta**2) - n_p


def fixed_point_defect(p: Union[SystemParams, RationalResponse],
                       n_p: np.ndarray,
                       with_damping: bool = False) -> np.ndarray:
    """f(n_p) = eta^2/(kappa^2 + Delta(n_p)^2) - n_p, elementwise.

    ``p`` is one parameter set, or a RationalResponse with one column per
    element of ``n_p`` (the batched oracle's form, whose coefficients already
    hold ``with_damping``).  Exact mechanical poles come back as NaN.
    """
    n_p = np.atleast_1d(np.asarray(n_p, dtype=float))
    if not isinstance(p, RationalResponse):
        p = RationalResponse.of([p], with_damping)
    return p.defect(n_p)


def reconstruct_branches(ps: Sequence[SystemParams],
                         candidates: Sequence[Sequence[float]],
                         with_damping: bool = False) -> list[list]:
    """Branch records of every candidate photon number of every set.

    ``candidates[k]`` holds set k's photon numbers; the result holds, in the
    same places, a SteadyStateBranch or the ResidualTooLarge /
    SingularMechanicalSystem that rejects the candidate.  The mechanical
    solves of all candidates are stacked; detuning, residual and alpha are
    then worked out per candidate, in Python's own arithmetic.

    alpha keeps the phase of -i*eta/(kappa + i*Delta) but is rescaled so that
    |alpha|^2 = n_p exactly; the relative defect between n_p and the
    Lorentzian prediction is stored as ``residual`` and must not exceed
    ROOT_ACCEPT_TOL.
    """
    counts = [len(c) for c in candidates]
    flat = [n for c in candidates for n in c]
    sol, errors = _mechanical_solve(ps, counts, flat, with_damping)
    rows = iter(zip(flat, sol.tolist(), errors))
    out = []
    for p, count in zip(ps, counts):
        cell: list = []
        for n_p, x, error in itertools.islice(rows, count):
            if n_p < 0.0:
                cell.append(ResidualTooLarge(f"negative photon number {n_p}"))
            elif error is not None:
                cell.append(SingularMechanicalSystem(error))
            else:
                cell.append(_branch(p, n_p, complex(x[0], x[1]),
                                    complex(x[2], x[3])))
        out.append(cell)
    return out


def _branch(p: SystemParams, n_p: float, beta1: complex, beta2: complex):
    """The branch record at n_p, or the ResidualTooLarge that rejects it.
    The cavity detuning is shifted by the steady mechanical displacements."""
    quad = (np.conj(beta2)**2 + beta2**2 + 2.0 * abs(beta2)**2).real
    delta = p.delta_c + 2.0 * p.g1 * beta1.real + p.g2 * quad
    n_pred = p.eta**2 / (p.kappa**2 + delta**2)
    residual = abs(n_pred - n_p) / max(1.0, n_p)
    if residual > ROOT_ACCEPT_TOL:
        return ResidualTooLarge(
            f"n_p = {n_p:.9g} has self-consistency defect {residual:.3e}")
    raw = -1j * p.eta / (p.kappa + 1j * delta)
    mag = abs(raw)
    alpha = raw * math.sqrt(n_p) / mag if mag > 0.0 else complex(math.sqrt(n_p))
    return SteadyStateBranch(n_p=float(n_p), alpha=alpha, beta1=beta1,
                             beta2=beta2, delta_eff=float(delta),
                             residual=float(residual))


def reconstruct_branch(p: SystemParams, n_p: float,
                       with_damping: bool = False) -> SteadyStateBranch:
    """Full branch record at a given photon number: a batch of one of
    ``reconstruct_branches``, raising the error that rejects ``n_p``."""
    ((branch,),) = reconstruct_branches([p], [[n_p]], with_damping)
    if isinstance(branch, Exception):
        raise branch
    return branch


def _spaced(lo: np.ndarray, hi: np.ndarray, num: int,
            log: bool = False) -> np.ndarray:
    """np.linspace (or np.geomspace) from lo to hi, one row per cell.

    Once any row of a stack has a zero step, NumPy spaces the whole stack by
    a second formula, which rounds differently; such rows get a call of
    their own, so every row equals the call for its cell alone."""
    space, ends = (np.geomspace, np.log10) if log else (np.linspace, np.asarray)
    flat = (ends(hi) - ends(lo)) / (num - 1) == 0.0
    if not flat.any():
        return space(lo, hi, num, axis=1)
    out = np.empty((len(lo), num))
    for rows in (flat, ~flat):
        out[rows] = space(lo[rows], hi[rows], num, axis=1)
    return out


def _scan_grids(ps: Sequence[SystemParams], scan_points: int):
    """Scan grids of a group of sets, flattened in order, and their sizes.

    Each grid is uniform on [0, (1+margin)*eta^2/kappa^2].  When the
    quadratic coupling puts the mechanical resonance pole inside the window,
    extra geometrically clustered points straddle it: the fixed-point map
    varies over many decades there and a uniform grid misses brackets.  A
    row sort with a first-of-equal mask merges them in, as np.unique would.
    """
    n_max = [(1.0 + ORACLE_MARGIN) * q.eta**2 / q.kappa**2 for q in ps]
    # the photon number at which the mechanical solve turns singular
    poles = [(q.omega_ex**2 - q.omega1 * q.omega2) / (4.0 * q.g2 * q.omega1)
             if q.g2 != 0.0 else math.inf for q in ps]
    inside = np.array([0.0 < x < m for x, m in zip(poles, n_max)], dtype=bool)
    n_max = np.array(n_max, dtype=float)
    full = np.full((len(ps), scan_points + 1024), np.inf)
    full[:, :scan_points] = _spaced(np.zeros(len(ps)), n_max, scan_points)
    if inside.any():
        pole = np.array([x for x, ok in zip(poles, inside) if ok])[:, None]
        top = n_max[inside, None]
        d = _spaced(1e-9 * (1.0 + pole[:, 0]), top[:, 0], 512, log=True)
        extra = np.concatenate([pole - d, pole + d], axis=1)
        extra[~((extra > 0.0) & (extra < top))] = np.inf
        full[inside, scan_points:] = extra
        full.sort(axis=1)       # leaves the rows without a cluster as they are
    # repeats are dropped only where np.unique ran: rows with a pole cluster
    keep = np.isfinite(full)
    keep[:, 1:] &= (full[:, 1:] != full[:, :-1]) | ~inside[:, None]
    return full[keep], keep.sum(axis=1)


def _scan_blocks(ps: list[SystemParams], cells: list[int], scan_points: int):
    """Scan grids of ``cells`` in blocks of whole cells, about SCAN_BLOCK
    points each; yields (block cells, their point counts, flattened grid).
    Grids are built for groups of cells that fill about four blocks, which
    bounds the memory the grids of a batch take."""
    group = max(1, 4 * SCAN_BLOCK // scan_points)
    for g in range(0, len(cells), group):
        owners = cells[g:g + group]
        grid, counts = _scan_grids([ps[k] for k in owners], scan_points)
        first = start = 0
        for j, end in enumerate(np.cumsum(counts).tolist()):
            if end - start >= SCAN_BLOCK or j == len(owners) - 1:
                yield owners[first:j + 1], counts[first:j + 1], grid[start:end]
                first, start = j + 1, end


def _bisect(resp: RationalResponse, lo: np.ndarray, hi: np.ndarray,
            flo: np.ndarray) -> np.ndarray:
    """Midpoints of all brackets after bisection, evaluated together.

    A bracket freezes once hi - lo <= 1e-12*max(1, |lo|), on a midpoint
    where f is exactly 0, or after 90 halvings, so its root depends on
    nothing else in the batch.
    """
    out = np.empty_like(lo)
    live = np.arange(len(lo))
    for _ in range(90):
        if not len(live):
            break
        mid = 0.5 * (lo + hi)
        fm = fixed_point_defect(resp, mid)
        left = flo * fm < 0.0
        hi = np.where(left | (fm == 0.0), mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
        done = hi - lo <= 1e-12 * np.maximum(1.0, np.abs(lo))
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            live, lo, hi, flo = live[keep], lo[keep], hi[keep], flo[keep]
            resp = resp.take(keep)
    out[live] = 0.5 * (lo + hi)
    return out


def oracle_roots(p: Union[SystemParams, Sequence[SystemParams]],
                 scan_points: int = 4096,
                 diagnostics=None,
                 with_damping: bool = False):
    """Fixed-point roots by scan/bracket/bisection; never touches the
    closed-form polynomial coefficients.

    ``p`` is one parameter set (roots come back as a list, diagnostics go to
    the list ``diagnostics``) or a sequence of them (one root list per set,
    ``diagnostics`` then holds one list per set).  A single set is a batch
    of one.  Each set is scanned on its own grid (``_scan_grid``); the grids
    of a batch are flattened with per-cell owners and evaluated in blocks,
    and every bracket of the batch is bisected at once.
    """
    if isinstance(p, SystemParams):
        sinks = None if diagnostics is None else [diagnostics]
        return oracle_roots([p], scan_points, sinks, with_damping)[0]
    if scan_points < MIN_SCAN_POINTS:
        raise ValueError(f"scan_points must be >= {MIN_SCAN_POINTS}")
    ps = list(p)
    found: list[list[float]] = [[0.0] if q.eta == 0.0 else [] for q in ps]
    live = [k for k, q in enumerate(ps) if q.eta != 0.0]
    resp = RationalResponse.of(ps, with_damping)
    brackets = []
    for owners, counts, grid in _scan_blocks(ps, live, scan_points):
        cell = np.repeat(owners, counts)
        f = fixed_point_defect(resp.take(owners, counts), grid)
        ok = np.isfinite(f)
        if not ok.all():
            bad = np.bincount(cell[~ok], minlength=len(ps))
            if diagnostics is not None:
                for k in np.nonzero(bad)[0]:
                    diagnostics[k].append(Diagnostic(
                        "singular-scan-point",
                        f"skipped {int(bad[k])} singular scan points"))
            ok &= np.bincount(cell[ok], minlength=len(ps))[cell] >= 2
            grid, f, cell = grid[ok], f[ok], cell[ok]
        for k, g in zip(cell[f == 0.0], grid[f == 0.0]):
            found[k].append(float(g))
        sgn = np.sign(f)
        idx = np.nonzero((sgn[:-1] * sgn[1:] < 0.0)
                         & (cell[:-1] == cell[1:]))[0]
        brackets.append((grid[idx], grid[idx + 1], f[idx], cell[idx]))
    if brackets:
        lo, hi, flo, owner = (np.concatenate(x) for x in zip(*brackets))
        for k, r in zip(owner, _bisect(resp.take(owner), lo, hi, flo)):
            found[k].append(float(r))
    return [_distinct(roots) for roots in found]


def _distinct(roots: list[float]) -> list[float]:
    """Sorted roots, each dropped within DEDUPE_TOL*(1+r) of the last kept."""
    kept: list[float] = []
    for r in sorted(roots):
        if not (kept and abs(r - kept[-1]) < DEDUPE_TOL * (1.0 + r)):
            kept.append(r)
    return kept


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of two stacks of polynomials, ascending order."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out


def _pad(a: np.ndarray, m: int) -> np.ndarray:
    """Ascending coefficient rows padded with zeros to ``m`` columns."""
    return np.pad(a, ((0, 0), (0, m - a.shape[1])))


def _fixed_point_q(resp: RationalResponse, c: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """Ascending coefficients in t of Q(c + w t) = n kappa^2 D^4 + n P^2 -
    eta^2 D^4 for every column of ``resp``, with D = d0 + d1 n and
    P = delta_c D^2 + 2 g1 n (a0 + a1 n) D + 4 g2 e^2 n^2.  Each centre c is 0
    or the pole -d0/d1, where D vanishes exactly.  Q is homogeneous of degree
    4 in (a0, a1, e, d0, d1), so D is scaled to unit size."""
    a0, a1, e, d0, d1, delta_c, g1, g2, eta, kappa = resp.coef
    with np.errstate(all="ignore"):
        D = np.stack([np.where(c == 0.0, d0, 0.0), d1 * w], axis=1)
        s = np.max(np.abs(D), axis=1)
        s = np.where((s > 0.0) & np.isfinite(s), s, 1.0)
        D /= s[:, None]
        A = np.stack([a0 + a1 * c, a1 * w], axis=1) / s[:, None]
        n = np.stack([c, w], axis=1)
        D2 = _polymul(D, D)
        D4 = _polymul(D2, D2)
        P = (delta_c[:, None] * _pad(D2, 4)
             + 2.0 * g1[:, None] * _polymul(_polymul(n, A), D)
             + _pad(4.0 * (g2 * (e / s)**2)[:, None] * _polymul(n, n), 4))
        return (_polymul(n, _pad(kappa[:, None]**2 * D4, 7) + _polymul(P, P))
                - _pad((eta**2)[:, None] * D4, 8))


def exact_roots(resp: RationalResponse) -> tuple[list[list[float]],
                                                 list[Optional[str]]]:
    """Fixed-point roots of every column of ``resp`` from an exact degree-7
    polynomial, and for each column the certificate check that failed (None
    when its certificate holds).

    With Delta = P/D^2, f(n) = 0 away from the pole exactly when Q(n) = 0
    (``_fixed_point_q``).  Q is solved in the pole-centred variable
    n = c + w t, where w is the scan window (1+ORACLE_MARGIN) eta^2/kappa^2
    and c is the pole -d0/d1 when it lies inside the window (else 0), by the
    stacked companion eigenvalues of ``_companion_roots``.  Real roots in
    [0, w] are kept, except those within POLE_TOL*(1+c) of the pole: the D
    factors Q carries when e = 0.  Each kept root is polished by ``_bisect``
    on f inside +-POLISH_TOL*max(1, n).

    A column's certificate holds when its coefficients are finite, f changes
    sign across every polish bracket, no two roots merge under DEDUPE_TOL and,
    with eta > 0, the count is odd (f(0) > 0 > f(w)).  A column with eta = 0
    has the one root 0.
    """
    d0, d1 = resp.coef[3:5]
    eta, kappa = resp.coef[8:]
    w = (1.0 + ORACLE_MARGIN) * eta**2 / kappa**2
    with np.errstate(all="ignore"):
        pole = -d0 / d1
        c = np.where((pole > 0.0) & (pole < w), pole, 0.0)
    Q = _fixed_point_q(resp, c, w)
    solvable, zeros, groups = _companion_roots(Q[:, ::-1])
    origin = np.flatnonzero(solvable & (zeros > 0))     # t = 0 is n = c
    owner, found = [origin], [c[origin]]
    for rows, t in groups:
        nr = c[rows, None] + w[rows, None] * t.real
        i, j = np.nonzero(np.abs(t.imag) * w[rows, None]
                          < IMAG_TOL * (1.0 + np.abs(nr)))
        owner.append(rows[i])
        found.append(nr[i, j])
    owner, n = np.concatenate(owner), np.concatenate(found)
    keep = ((n >= 0.0) & (n <= w[owner])
            & ~(np.abs(n - pole[owner]) <= POLE_TOL * (1.0 + c[owner])))
    owner, n = owner[keep], n[keep]
    h = POLISH_TOL * np.maximum(1.0, n)
    f = fixed_point_defect(resp.take(np.concatenate([owner, owner])),
                           np.concatenate([n - h, n + h]))
    flo, fhi = f[:len(n)], f[len(n):]
    sign = flo * fhi < 0.0
    n[sign] = _bisect(resp.take(owner[sign]), (n - h)[sign], (n + h)[sign],
                      flo[sign])
    unsigned = np.bincount(owner[~sign], minlength=len(eta)) > 0
    finite = np.isfinite(Q).all(axis=1)
    cells: list[list[float]] = [[] for _ in eta]
    for k, r in zip(owner.tolist(), n.tolist()):
        cells[k].append(r)
    roots, failed = [], []
    for k, cell in enumerate(cells):
        if eta[k] == 0.0:
            roots.append([0.0])
            failed.append(None)
            continue
        kept = _distinct(cell)
        roots.append(kept)
        failed.append("non-finite coefficients" if not finite[k] else
                      "no sign change across a polished root" if unsigned[k]
                      else "roots merge" if len(kept) < len(cell) else
                      "even root count" if eta[k] > 0.0 and len(kept) % 2 == 0
                      else None)
    return roots, failed


def roots_match(poly_roots: list[float], oracle: list[float],
                tol: float = MATCH_TOL) -> bool:
    """Elementwise agreement of the two sorted root sets."""
    if len(poly_roots) != len(oracle):
        return False
    return all(abs(a - b) <= tol * max(1.0, abs(b))
               for a, b in zip(poly_roots, oracle))


def coefficient_deviation(ps: Sequence[SystemParams],
                          resp: RationalResponse) -> np.ndarray:
    """|C_m - s Q_m| / max_m |C_m|, m = 0..7, for each set: its closed-form
    coefficients C against the fixed-point Q of ``resp``'s column, both in
    the window-scaled n = n_scale m of ``batch_real_roots``, with the
    least-squares scale s = <C, Q>/<Q, Q> over C0..C4 and C7 (the mixed
    terms C5/C6 would pull it off).  NaN where either vanishes or overflows."""
    with np.errstate(all="ignore"):
        coeffs = build_polynomial(ps)
        n_scale = np.array([q.aux["n_scale"] for q in coeffs])
        C = (np.array([q.c for q in coeffs]).reshape(-1, 8)
             * n_scale[:, None] ** np.arange(8))
        Q = _fixed_point_q(resp, np.zeros_like(n_scale), n_scale)
        fit = [0, 1, 2, 3, 4, 7]
        s = (C * Q)[:, fit].sum(axis=1) / (Q * Q)[:, fit].sum(axis=1)
        return np.abs(C - s[:, None] * Q) / np.abs(C).max(axis=1)[:, None]


def root_sets(ps: list[SystemParams], oracle_mode: bool, scan_points: int,
              with_damping: bool, sinks: list[list[Diagnostic]]) -> list:
    """The fixed-point roots of each parameter set.

    The roots come from one ``exact_roots`` call for the batch.  With
    ``oracle_mode``, a set whose certificate fails gets a scan-fallback
    diagnostic naming the failed check and the scan oracle's roots instead
    (one ``oracle_roots`` call for all such sets), and a set whose
    closed-form coefficients lie more than COEFF_TOL from the fixed-point
    map's (``coefficient_deviation``) gets a coefficient-mismatch diagnostic
    naming the coefficients beyond it.  Without it, the exact route's roots
    stand as they come, uncertified ones included, and nothing is compared.
    """
    resp = RationalResponse.of(ps, with_damping)
    roots, failed = exact_roots(resp)
    if not oracle_mode:
        return roots
    redo = [k for k, why in enumerate(failed) if why is not None]
    for k in redo:
        sinks[k].append(Diagnostic(
            "scan-fallback",
            f"exact-root certificate failed ({failed[k]}); roots from "
            f"the {scan_points}-point scan"))
    if redo:
        scanned = oracle_roots([ps[k] for k in redo], scan_points,
                               [sinks[k] for k in redo], with_damping)
        for k, found in zip(redo, scanned):
            roots[k] = found
    dev = coefficient_deviation(ps, resp)
    for k in np.flatnonzero(~(dev.max(axis=1) <= COEFF_TOL)).tolist():
        off = " ".join(f"C{m} {d:.1e}" for m, d in enumerate(dev[k].tolist())
                       if not d <= COEFF_TOL)
        sinks[k].append(Diagnostic(
            "coefficient-mismatch",
            f"closed-form {off} off the fixed-point map, of max |C_m|"))
    return roots


def solve_branches(p: Union[SystemParams, Sequence[SystemParams]],
                   oracle_mode: bool = True,
                   scan_points: int = 4096,
                   with_damping: bool = False,
                   diagnostics=None):
    """All self-consistent steady-state branches, ascending in n_p.

    ``p`` is one parameter set (a list of branches comes back, diagnostics go
    to the list ``diagnostics``) or a sequence of them (one branch list per
    set, ``diagnostics`` then holds one list per set).  The candidates are
    the fixed-point roots of ``root_sets``.  Candidates that fail the
    self-consistency residual are dropped with a diagnostic; all candidates
    of the batch are reconstructed together.  With eta > 0,
    f(0) > 0 > f(n_max), so a set that ends with an even number of branches
    gets a parity-violation diagnostic.
    """
    if isinstance(p, SystemParams):
        sinks = None if diagnostics is None else [diagnostics]
        return solve_branches([p], oracle_mode, scan_points, with_damping,
                              sinks)[0]
    ps = list(p)
    sinks = diagnostics if diagnostics is not None else [[] for _ in ps]
    candidates = root_sets(ps, oracle_mode, scan_points, with_damping, sinks)
    out: list[list[SteadyStateBranch]] = []
    for q, results, sink in zip(
            ps, reconstruct_branches(ps, candidates, with_damping), sinks):
        branches: list[SteadyStateBranch] = []
        for r in results:
            if isinstance(r, ResidualTooLarge):
                sink.append(Diagnostic("residual-drop", str(r)))
            elif isinstance(r, SingularMechanicalSystem):
                sink.append(Diagnostic("singular-root", str(r)))
            else:
                branches.append(r)
        branches.sort(key=lambda b: b.n_p)
        if q.eta > 0.0 and len(branches) % 2 == 0:
            sink.append(Diagnostic(
                "parity-violation",
                f"{len(branches)} branches where eta > 0 needs an odd count "
                f"(f(0) > 0 > f(n_max))"))
        out.append(branches)
    return out
