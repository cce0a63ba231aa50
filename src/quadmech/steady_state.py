"""Nonlinear steady states of the driven cavity / two-mode mechanical system.

The steady-state photon numbers n_p = |alpha|^2 are the roots of the
fixed-point map f(n_p) = eta^2/(kappa^2 + Delta(n_p)^2) - n_p, with Delta(n_p)
taken from the exact rational form of the mechanical displacements
(``RationalResponse``).  ``exact_roots`` solves the degree-7 polynomial Q(n)
that f(n) = 0 clears to, in a pole-centred variable, by stacked
companion-matrix eigenvalues, polishes each root by bisection on f and
certifies each cell.  A cell whose certificate fails takes the roots of
critical-point isolation (``oracle_roots``), which brackets every root of the
same polynomial between the real roots of its derivative and bisects f; the
tests hold both routes to an exact rational Sturm count.  Every root must
pass the self-consistency residual of a dense 4x4 mechanical solve
(``reconstruct_branches``).  All routes run on a column record of parameter
sets (a single set is a batch of one) and give one ``Branches`` record.

The verbatim closed-form polynomial (``build_polynomial``) serves only the
coefficient-mismatch diagnostic, which compares its C0..C7 with Q's
(``coefficient_deviation``: its mixed g1-g2 terms C5/C6 are wrong whenever
both couplings are active), and ``quadmech roots``, which lists its roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .params import SystemParams, param_columns, take_columns

# Frozen numerical policy (see the project decision ledger):
ROOT_ACCEPT_TOL = 1e-6    # relative self-consistency residual for a kept root
NEG_TOL = 1e-9            # roots >= -NEG_TOL are clamped to zero
DEFLATE_TOL = 1e-12       # leading-coefficient deflation, after variable scaling
IMAG_TOL = 1e-7           # |Im r| < IMAG_TOL*(1+|Re r|) counts as real
DEDUPE_TOL = 1e-8         # roots closer than DEDUPE_TOL*(1+n) merge
MATCH_TOL = 1e-6          # `roots` agreement: within MATCH_TOL*max(1,n)
COEFF_TOL = 1e-12         # closed-form/fixed-point coefficient gap, of max |C_m|
ORACLE_MARGIN = 0.05      # root window: [0, (1+margin)*eta^2/kappa^2]
SINGULAR_COND = 1e14      # condition-number cutoff of the 4x4 mechanical solve
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
    condition the root solve.  The coefficients of a column record's sets
    are one record with c of shape (k, 8) and aux arrays.
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


@dataclass(frozen=True)
class Branches:
    """Branch column record: one entry per candidate photon number of a
    batch of sets, in set order.  ``rejection`` is None or the error that
    drops the entry (whose other fields then mean nothing)."""

    owner: np.ndarray        # int
    n_p: np.ndarray
    alpha: np.ndarray        # complex
    beta1: np.ndarray        # complex
    beta2: np.ndarray        # complex
    delta_eff: np.ndarray
    residual: np.ndarray
    rejection: np.ndarray    # object

    def branch(self, k: int) -> SteadyStateBranch:
        """Entry k as a SteadyStateBranch; raises its rejection, if any."""
        if self.rejection[k] is not None:
            raise self.rejection[k]
        return SteadyStateBranch(*(getattr(self, f)[k].item()
                                   for f in SteadyStateBranch.__annotations__))


@dataclass
class Diagnostic:
    """A non-fatal event recorded during a solve or sweep."""

    kind: str                 # "coefficient-mismatch" | "residual-drop" | ...
    message: str
    cell: Optional[tuple] = None


def build_polynomial(p):
    """Closed-form coefficients of the photon-number polynomial.

    ``p`` is one parameter set, or a column record (or a sequence of sets),
    whose coefficients come back as one PolynomialCoefficients of stacked
    rows; the closed form is evaluated once on the record's columns, and a
    single set is a batch of one.  Degenerations: g2 = 0 gives an exact
    cubic, g1 = 0 a quintic, and with both couplings zero only C0, C1
    survive (single Lorentzian root).
    """
    q, scalar = param_columns(p)
    w1, w2, Om, g1, g2, Dc, kap, eta, theta = (
        q.omega1, q.omega2, q.omega_ex, q.g1, q.g2, q.delta_c, q.kappa, q.eta,
        q.theta)
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
    aux = dict(x=x, y=y, z=z, n_scale=np.maximum(eta**2 / kap**2, 1.0))
    if scalar:
        return PolynomialCoefficients(
            c=coeffs[0], aux={k: v.item() for k, v in aux.items()})
    return PolynomialCoefficients(c=coeffs, aux=aux)


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
    # deflation compares the row scaled exactly, by a power of two, to a top
    # entry in [0.5, 1): its threshold cannot underflow on a subnormal row
    frac, exp = np.frexp(top)
    lead = np.cumprod(np.abs(np.ldexp(hi, -exp[:, None]))
                      < DEFLATE_TOL * frac[:, None], axis=1).sum(1)
    with np.errstate(all="ignore"):
        monic = hi / top[:, None]           # numpy.roots' normalisation
    zeros = np.cumprod(monic[:, ::-1] == 0.0, axis=1).sum(1)
    size = hi.shape[1] - lead - zeros       # coefficients left to solve
    solvable = (top > 0.0) & np.isfinite(top) & (lead < hi.shape[1] - 1)
    groups = []
    # ascending degrees, as np.unique gives them, without its numpy.ma import
    for m in np.flatnonzero(np.bincount(size[solvable & (size > 1)])).tolist():
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

def _mech_matrices(q: SystemParams, with_damping: bool) -> np.ndarray:
    """The (k, 4, 4) stack of the mechanical systems M0 at n_p = 0 of a
    column record's sets.

    Unknowns (Re b1, Im b1, Re b2, Im b2); rows are Re/Im of the b1
    equation, then of the b2 equation, for (gamma + i*omega)*b + i*drive = 0.
    The quadratic frequency pull omega2 -> omega2 + 4 g2 n_p acts on Re b2
    only, so M(n_p) = M0 + 4 g2 n_p e3 e2^T, and the drive -g1 n_p enters
    row 1 alone.
    """
    c, s = np.cos(q.theta), np.sin(q.theta)
    Om = q.omega_ex
    g1m, g2m = ((q.gamma1, q.gamma2) if with_damping
                else (np.zeros_like(c), np.zeros_like(c)))
    return np.stack([g1m, -q.omega1, -Om * s, -Om * c,
                     q.omega1, g1m, Om * c, -Om * s,
                     Om * s, -Om * c, g2m, -q.omega2,
                     Om * c, Om * s, q.omega2, g2m], axis=1).reshape(-1, 4, 4)


def _well_conditioned(M: np.ndarray) -> np.ndarray:
    """``~(np.linalg.cond(M) > SINGULAR_COND)`` for each matrix of the stack
    ``M``, taking the SVD of a matrix only where a cheaper bound does not
    settle it: ``|M|_F |M^-1|_F`` bounds the 2-norm condition number from
    above, and a factor 8 covers the rounding of ``inv``.  Raises what
    ``cond`` raises on the unsettled matrices (a NaN entry never settles)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (np.linalg.norm(M, axis=(1, 2))
                     * np.linalg.norm(np.linalg.inv(M), axis=(1, 2)))
    except np.linalg.LinAlgError:       # an exactly singular matrix
        return ~(np.linalg.cond(M) > SINGULAR_COND)
    sound = bound <= SINGULAR_COND / 8
    rest = np.flatnonzero(~sound)
    sound[rest] = ~(np.linalg.cond(M[rest]) > SINGULAR_COND)
    return sound


def _mechanical_solve(q: SystemParams, owner: np.ndarray, n_p: np.ndarray,
                      with_damping: bool):
    """Mechanical steady states (Re b1, Im b1, Re b2, Im b2) at the photon
    numbers ``n_p`` of the column record's sets ``owner``, in a
    (len(n_p), 4) array, and for each the SingularMechanicalSystem that
    rejects it (None when the solve is sound).

    One stacked condition screen (``_well_conditioned``) and one stacked
    solve of the matrices under SINGULAR_COND; each row equals the dense 4x4
    solve of its own system.
    """
    n_p = np.asarray(n_p, dtype=float)
    M = _mech_matrices(q, with_damping)[owner]
    M[:, 3, 2] = q.omega2[owner] + 4.0 * q.g2[owner] * n_p
    rhs = np.zeros((len(n_p), 4, 1))
    rhs[:, 1, 0] = -q.g1[owner] * n_p
    sol = np.full((len(n_p), 4), np.nan)
    sound = _well_conditioned(M)
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
    errors = [None if ok and fin else SingularMechanicalSystem(
              f"mechanical solve overflowed at n_p = {n:.6g}" if ok else
              f"mechanical system singular at n_p = {n:.6g}")
              for n, ok, fin in zip(n_p.tolist(), sound.tolist(),
                                    finite.tolist())]
    return sol, np.array(errors, dtype=object)


def mechanical_response(p: SystemParams, n_p: float,
                        with_damping: bool = False) -> tuple[complex, complex]:
    """Mechanical amplitudes (beta1, beta2) at fixed photon number.

    Damping is excluded by default, matching the steady-state algebra that the
    polynomial encodes; ``with_damping=True`` retains gamma for sensitivity
    studies.  Raises SingularMechanicalSystem when the 4x4 system is
    (numerically) singular.  This dense solve is independent of the rational
    response both root routes solve with, so ``reconstruct_branch`` checks
    every root against it.  A batch of one of the stacked solve behind
    ``reconstruct_branches``.
    """
    sol, (error,) = _mechanical_solve(param_columns(p)[0], [0], [n_p],
                                      with_damping)
    if error is not None:
        raise error
    return complex(sol[0, 0], sol[0, 1]), complex(sol[0, 2], sol[0, 3])


@dataclass(frozen=True)
class RationalResponse:
    """Exact mechanical response of a column record's sets, one column each.

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
    def of(cls, p, with_damping: bool = False) -> "RationalResponse":
        q, _ = param_columns(p)
        M0, det = _mech_matrices(q, with_damping), np.linalg.det
        a0 = q.g1 * det(M0[:, [0, 2, 3]][:, :, [1, 2, 3]])
        a1 = -4.0 * q.g1 * q.g2 * det(M0[:, [0, 2]][:, :, [1, 3]])
        e = q.g1 * det(M0[:, [0, 2, 3]][:, :, [0, 1, 3]])
        d1 = -4.0 * q.g2 * det(M0[:, [0, 1, 2]][:, :, [0, 1, 3]])
        return cls(np.stack([a0, a1, e, det(M0), d1, q.delta_c, q.g1, q.g2,
                             q.eta, q.kappa]))

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
        p = RationalResponse.of(p, with_damping)
    return p.defect(n_p)


def reconstruct_branches(p, candidates: Sequence[Sequence[float]],
                         with_damping: bool = False) -> Branches:
    """The Branches record of every candidate photon number of every set.

    ``candidates[k]`` holds the photon numbers of set k of the column record
    (or sequence of sets) ``p``.  The mechanical solves of all candidates
    are stacked; detuning, residual and alpha are worked out on the columns
    in real arithmetic, in the order of Python's complex arithmetic (LEDGER
    "Steady columns").

    alpha keeps the phase of -i*eta/(kappa + i*Delta) but is rescaled so that
    |alpha|^2 = n_p exactly; the relative defect between n_p and the
    Lorentzian prediction is stored as ``residual`` and must not exceed
    ROOT_ACCEPT_TOL.
    """
    q, _ = param_columns(p)
    owner = np.repeat(np.arange(len(candidates)), [len(c) for c in candidates])
    n_p = np.array([n for c in candidates for n in c], dtype=float)
    sol, errors = _mechanical_solve(q, owner, n_p, with_damping)
    beta = sol.view(complex)                 # columns beta1, beta2
    c = take_columns(q, owner)
    with np.errstate(all="ignore"):
        # the detuning shifted by the steady mechanical displacements, with
        # Re[conj(b2)^2 + b2^2 + 2|b2|^2] summed as written
        re2, im2 = sol[:, 2], sol[:, 3]
        sq, h = re2 * re2 - im2 * im2, np.hypot(re2, im2)
        delta = (c.delta_c + 2.0 * c.g1 * sol[:, 0]
                 + c.g2 * ((sq + sq) + 2.0 * (h * h)))
        residual = (np.abs(c.eta * c.eta / (c.kappa * c.kappa + delta * delta)
                           - n_p) / np.maximum(1.0, n_p))
        # raw = -i eta / (kappa + i delta) = (0, -eta) / (kappa, delta), by
        # Smith's quotient as Python divides complex numbers
        small = np.abs(delta) <= c.kappa
        ratio = np.where(small, delta / c.kappa, c.kappa / delta)
        den = np.where(small, c.kappa + delta * ratio, c.kappa * ratio + delta)
        raw_re = np.where(small, -c.eta * ratio, -c.eta) / den
        raw_im = np.where(small, -c.eta, -c.eta * ratio) / den
        mag, root = np.hypot(raw_re, raw_im), np.sqrt(n_p)
        alpha = np.empty(len(n_p), dtype=complex)
        alpha.real = np.where(mag > 0.0, raw_re * root / mag, root)
        alpha.imag = np.where(mag > 0.0, raw_im * root / mag, 0.0)
    for k in np.flatnonzero(np.equal(errors, None)
                            & (residual > ROOT_ACCEPT_TOL)).tolist():
        errors[k] = ResidualTooLarge(
            f"n_p = {n_p[k]:.9g} has self-consistency defect "
            f"{residual[k]:.3e}")
    for k in np.flatnonzero(n_p < 0.0).tolist():
        errors[k] = ResidualTooLarge(f"negative photon number {n_p[k]}")
    return Branches(owner, n_p, alpha, beta[:, 0], beta[:, 1], delta,
                    residual, errors)


def reconstruct_branch(p: SystemParams, n_p: float,
                       with_damping: bool = False) -> SteadyStateBranch:
    """Full branch record at a given photon number: a batch of one of
    ``reconstruct_branches``, raising the error that rejects ``n_p``."""
    return reconstruct_branches(p, [[n_p]], with_damping).branch(0)


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
        left = np.sign(flo) * np.sign(fm) < 0.0   # flo * fm can underflow
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


def oracle_roots(p, diagnostics=None, with_damping: bool = False):
    """Fixed-point roots by critical-point isolation of the exact degree-7
    polynomial; never touches the closed-form coefficients.

    ``p`` is one parameter set (roots come back as a list, diagnostics go to
    the list ``diagnostics``) or a column record or sequence of them (one
    root list per set, ``diagnostics`` then holds one list per set).  A
    single set is a batch of one.  Q (``_fixed_point_q``, in the
    pole-centred variable of ``exact_roots``) is monotone between
    consecutive real roots of Q', so its signs at the breakpoints (the
    window ends 0 and w, the real parts of Q''s companion roots and the
    edges of the pole exclusion |n - pole| <= POLE_TOL*(1+c)) count and
    bracket every root in [0, w].  Each strict sign change between
    consecutive breakpoints outside the exclusion is one root, bisected on
    f by ``_bisect``.  A set with eta = 0 has the one root 0, and a set
    whose Q is not finite gets a non-finite-polynomial diagnostic and no
    roots.
    """
    q, scalar = param_columns(p)
    if scalar:
        sinks = None if diagnostics is None else [diagnostics]
        return oracle_roots(q, sinks, with_damping)[0]
    resp = RationalResponse.of(q, with_damping)
    pole, c, w = _window(resp)
    Q = _fixed_point_q(resp, c, w)
    _, zeros, groups = _companion_roots(
        (Q[:, 1:] * np.arange(1.0, 8.0))[:, ::-1])        # Q'
    h = POLE_TOL * (1.0 + c)
    B = np.zeros((len(c), 11))              # breakpoints in n; spares are 0
    B[:, 1], B[:, 2], B[:, 3] = w, pole - h, pole + h
    B[:, 4] = np.where(zeros > 0, c, 0.0)   # a critical point at t = 0
    for rows, t in groups:
        B[rows, 5:5 + t.shape[1]] = c[rows, None] + w[rows, None] * t.real
    B = np.clip(np.nan_to_num(B), 0.0, w[:, None])
    B.sort(axis=1)
    with np.errstate(all="ignore"):
        t = (B - c[:, None]) / w[:, None]
        V = np.zeros_like(B)                # Q at the breakpoints
        for j in range(7, -1, -1):
            V = V * t + Q[:, j:j + 1]
    V = np.sign(V)      # products of signs cannot underflow
    eta = resp.coef[8]
    finite = np.isfinite(Q).all(axis=1)
    live = ((eta != 0.0) & finite)[:, None]
    mid = 0.5 * (B[:, 1:] + B[:, :-1])
    sign = ((V[:, :-1] * V[:, 1:] < 0.0) & live
            & ~(np.abs(mid - pole[:, None]) <= h[:, None]))
    k, i = np.nonzero(sign)
    found: list[list[float]] = [[0.0] if e == 0.0 else []
                                for e in eta.tolist()]
    # f has the sign of -Q away from the pole
    roots = _bisect(resp.take(k), B[k, i], B[k, i + 1], -V[k, i])
    for cell, r in zip(k.tolist(), roots.tolist()):
        found[cell].append(r)
    if diagnostics is not None:
        for cell in np.flatnonzero((eta != 0.0) & ~finite).tolist():
            diagnostics[cell].append(Diagnostic(
                "non-finite-polynomial",
                "Q has non-finite coefficients; no roots isolated"))
    return [_distinct(r) for r in found]


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
    out = np.zeros((len(a), m))
    out[:, :a.shape[1]] = a
    return out


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


def _window(resp: RationalResponse):
    """The mechanical pole -d0/d1 of every column of ``resp``, the centre c
    of its pole-centred variable (the pole when it lies inside the window,
    else 0) and the window w = (1+ORACLE_MARGIN) eta^2/kappa^2."""
    d0, d1 = resp.coef[3:5]
    eta, kappa = resp.coef[8:]
    with np.errstate(all="ignore"):
        w = (1.0 + ORACLE_MARGIN) * eta**2 / kappa**2
        pole = -d0 / d1
    return pole, np.where((pole > 0.0) & (pole < w), pole, 0.0), w


def exact_roots(resp: RationalResponse) -> tuple[list[list[float]],
                                                 list[Optional[str]]]:
    """Fixed-point roots of every column of ``resp`` from an exact degree-7
    polynomial, and for each column the certificate check that failed (None
    when its certificate holds).

    With Delta = P/D^2, f(n) = 0 away from the pole exactly when Q(n) = 0
    (``_fixed_point_q``).  Q is solved in the pole-centred variable
    n = c + w t, where w is the root window (1+ORACLE_MARGIN) eta^2/kappa^2
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
    eta = resp.coef[8]
    pole, c, w = _window(resp)
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
    roots = [[0.0] if e == 0.0 else _distinct(cell)
             for e, cell in zip(eta.tolist(), cells)]
    return roots, [
        None if e == 0.0 else "non-finite coefficients" if not fin
        else "no sign change across a polished root" if uns
        else "roots merge" if len(kept) < len(cell)
        else "even root count" if e > 0.0 and len(kept) % 2 == 0 else None
        for e, fin, uns, kept, cell in zip(eta.tolist(), finite.tolist(),
                                           unsigned.tolist(), roots, cells)]


def roots_match(poly_roots: list[float], oracle: list[float],
                tol: float = MATCH_TOL) -> bool:
    """Elementwise agreement of the two sorted root sets."""
    if len(poly_roots) != len(oracle):
        return False
    return all(abs(a - b) <= tol * max(1.0, abs(b))
               for a, b in zip(poly_roots, oracle))


def coefficient_deviation(p, resp: RationalResponse) -> np.ndarray:
    """|C_m - s Q_m| / max_m |C_m|, m = 0..7, for each set of ``p``: its
    closed-form coefficients C against the fixed-point Q of ``resp``'s
    column, both in the window-scaled n = n_scale m of ``batch_real_roots``,
    with the least-squares scale s = <C, Q>/<Q, Q> over C0..C4 and C7 (the
    mixed terms C5/C6 would pull it off).  NaN where either vanishes or
    overflows."""
    with np.errstate(all="ignore"):
        coeffs = build_polynomial(param_columns(p)[0])
        n_scale = coeffs.aux["n_scale"]
        C = coeffs.c * n_scale[:, None] ** np.arange(8)
        Q = _fixed_point_q(resp, np.zeros_like(n_scale), n_scale)
        fit = [0, 1, 2, 3, 4, 7]
        s = (C * Q)[:, fit].sum(axis=1) / (Q * Q)[:, fit].sum(axis=1)
        return np.abs(C - s[:, None] * Q) / np.abs(C).max(axis=1)[:, None]


def root_sets(p, oracle_mode: bool, with_damping: bool,
              sinks: list[list[Diagnostic]]) -> list:
    """The fixed-point roots of each set of a column record (or sequence of
    sets), ascending and distinct.

    The roots come from one ``exact_roots`` call for the batch.  With
    ``oracle_mode``, a set whose certificate fails gets an
    isolation-fallback diagnostic naming the failed check and the roots of
    critical-point isolation instead (one ``oracle_roots`` call for all such
    sets), and a set whose closed-form coefficients lie more than COEFF_TOL
    from the fixed-point map's (``coefficient_deviation``, against the
    undamped map whatever ``with_damping``) gets a coefficient-mismatch
    diagnostic naming the coefficients beyond it.  Without it, the exact
    route's roots stand as they come, uncertified ones included, and nothing
    is compared.
    """
    q, _ = param_columns(p)
    resp = RationalResponse.of(q, with_damping)
    roots, failed = exact_roots(resp)
    if not oracle_mode:
        return roots
    redo = [k for k, why in enumerate(failed) if why is not None]
    for k in redo:
        sinks[k].append(Diagnostic(
            "isolation-fallback",
            f"exact-root certificate failed ({failed[k]}); roots from "
            f"critical-point isolation"))
    if redo:
        isolated = oracle_roots(take_columns(q, redo),
                                [sinks[k] for k in redo], with_damping)
        for k, found in zip(redo, isolated):
            roots[k] = found
    # the closed form has no damping terms: compare it with the undamped map
    dev = coefficient_deviation(
        q, RationalResponse.of(q, False) if with_damping else resp)
    off = ~(dev <= COEFF_TOL)
    cells, terms = np.nonzero(off)
    # every flagged "C<m> <deviation>" of the batch in one format
    named = ("C%d %.1e\n" * len(terms) % tuple(
        x for pair in zip(terms.tolist(), dev[off].tolist()) for x in pair)
             ).split("\n")
    counts = np.bincount(cells, minlength=len(dev))
    for k, end in zip(np.flatnonzero(counts).tolist(),
                      np.cumsum(counts)[counts > 0].tolist()):
        sinks[k].append(Diagnostic(
            "coefficient-mismatch",
            f"closed-form {' '.join(named[end - counts[k]:end])} off the "
            f"fixed-point map, of max |C_m|"))
    return roots


def solve_branches(p, oracle_mode: bool = True, with_damping: bool = False,
                   diagnostics=None):
    """All self-consistent steady-state branches, ascending in n_p.

    ``p`` is one parameter set (a list of SteadyStateBranch comes back,
    diagnostics go to the list ``diagnostics``) or a column record or
    sequence of them (one Branches record of every set's branches, in set
    order; ``diagnostics`` then holds one list per set).  The candidates
    are the fixed-point roots of ``root_sets``, all reconstructed together;
    those that fail the self-consistency residual are dropped with a
    diagnostic.  With eta > 0, f(0) > 0 > f(n_max), so a set that ends with
    an even number of branches gets a parity-violation diagnostic.
    """
    q, scalar = param_columns(p)
    if scalar:
        sinks = None if diagnostics is None else [diagnostics]
        found = solve_branches(q, oracle_mode, with_damping, sinks)
        return [found.branch(k) for k in range(len(found.n_p))]
    sinks = diagnostics if diagnostics is not None else [[] for _ in q.eta]
    found = reconstruct_branches(
        q, root_sets(q, oracle_mode, with_damping, sinks),
        with_damping)
    kept = np.equal(found.rejection, None)
    for k in np.flatnonzero(~kept).tolist():
        r = found.rejection[k]
        sinks[found.owner[k]].append(Diagnostic(
            "residual-drop" if isinstance(r, ResidualTooLarge)
            else "singular-root", str(r)))
    found = Branches(*(v[kept] for v in vars(found).values()))
    counts = np.bincount(found.owner, minlength=len(sinks))
    for k in np.flatnonzero((q.eta > 0.0) & (counts % 2 == 0)).tolist():
        sinks[k].append(Diagnostic(
            "parity-violation",
            f"{counts[k]} branches where eta > 0 needs an odd count "
            f"(f(0) > 0 > f(n_max))"))
    return found
