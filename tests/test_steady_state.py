"""Steady-state polynomial, roots, oracle and branch reconstruction.

Frozen expected values were established with independent tooling: 60-digit
polynomial roots (mpmath), scalar bisection of the fixed-point map, and time
integration of the classical equations.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import (build_polynomial, find_real_roots, mechanical_response,
                      oracle_roots, reconstruct_branch, rescale_params,
                      solve_branches)
from quadmech.steady_state import (COEFF_TOL, MATCH_TOL, ORACLE_MARGIN,
                                   POLISH_TOL, SINGULAR_COND, Diagnostic,
                                   PolynomialCoefficients, RationalResponse,
                                   ResidualTooLarge, SingularMechanicalSystem,
                                   ZeroPolynomial, _bisect, _well_conditioned,
                                   batch_real_roots, coefficient_deviation,
                                   exact_roots, fixed_point_defect,
                                   reconstruct_branches, root_sets,
                                   roots_match)

from conftest import (branch_lists, make_system, random_system,
                      real_roots_reference, reconstruct_reference,
                      stacked_detuning, sturm_root_count)


# ---------------------------------------------------------------------------
# polynomial construction
# ---------------------------------------------------------------------------

def test_decoupled_coefficients_exact():
    p = make_system(g1=0.0, g2=0.0, omega1=5.0, omega2=5.0, omega_ex=1.0,
                    theta=math.pi, kappa=1.0, delta_c=2.0, eta=10.0)
    coeffs = build_polynomial(p)
    x = 24.0
    assert coeffs.aux["x"] == pytest.approx(x)
    assert coeffs.aux["z"] == pytest.approx(5.0)
    assert coeffs.c[1] == pytest.approx(x**6 * 5.0, rel=1e-15)
    assert coeffs.c[0] == pytest.approx(-100.0 * x**6, rel=1e-15)
    assert all(c == 0.0 for c in coeffs.c[2:])
    assert find_real_roots(coeffs) == pytest.approx([20.0], rel=1e-12)


def test_degeneration_g2_zero_is_cubic():
    p = make_system(g2=0.0)
    coeffs = build_polynomial(p)
    assert all(c == 0.0 for c in coeffs.c[4:])
    assert coeffs.c[3] != 0.0
    assert coeffs.degree() == 3


def test_degeneration_g1_zero_is_quintic():
    p = make_system(g1=0.0)
    coeffs = build_polynomial(p)
    assert coeffs.c[6] == 0.0 and coeffs.c[7] == 0.0
    assert coeffs.c[5] != 0.0
    assert coeffs.degree() == 5


def test_theta_mirror_coefficients_identical(rng):
    for _ in range(25):
        p = random_system(rng)
        q = make_system(**{**p.__dict__, "theta": math.pi - p.theta})
        ca = build_polynomial(p).c
        cb = build_polynomial(q).c
        np.testing.assert_allclose(ca, cb, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_constructed_cubic_roots():
    # (n-1)(n-2)(n-3) = n^3 - 6n^2 + 11n - 6
    coeffs = build_polynomial(make_system(g1=0.0, g2=0.0, eta=10.0))
    hand = coeffs.__class__(c=np.array([-6.0, 11.0, -6.0, 1.0] + [0.0] * 4),
                            aux={"n_scale": 1.0})
    assert find_real_roots(hand) == pytest.approx([1.0, 2.0, 3.0], rel=1e-10)


def test_double_root_merges():
    # (n-2)^2 (n-3) = n^3 - 7n^2 + 16n - 12
    coeffs = build_polynomial(make_system(g1=0.0, g2=0.0, eta=10.0))
    hand = coeffs.__class__(c=np.array([-12.0, 16.0, -7.0, 1.0] + [0.0] * 4),
                            aux={"n_scale": 1.0})
    roots = find_real_roots(hand)
    assert roots == pytest.approx([2.0, 3.0], rel=1e-6)


def test_zero_polynomial_raises():
    coeffs = build_polynomial(make_system())
    dead = coeffs.__class__(c=np.zeros(8), aux={"n_scale": 1.0})
    with pytest.raises(ZeroPolynomial):
        find_real_roots(dead)


def test_wide_magnitude_cubic_keeps_true_leading_term():
    # Coefficient magnitudes span ~13 decades; naive deflation against the
    # global maximum would amputate the cubic term and fabricate a root far
    # beyond the physical bound eta^2/kappa^2.
    p = make_system(g1=0.005822891483716614, g2=0.0, delta_c=3.4240367681062867,
                    omega_ex=1.1963669394158407, theta=2.1449982058339985,
                    eta=62.295550857644535)
    roots = find_real_roots(build_polynomial(p))
    assert roots == pytest.approx([305.7158786111923], rel=1e-9)
    assert all(r <= (1.01) * p.eta**2 / p.kappa**2 for r in roots)


def test_cubic_case_poly_equals_oracle(rng):
    for _ in range(30):
        p = random_system(rng, g2_zero=True)
        poly = find_real_roots(build_polynomial(p))
        orc = oracle_roots(p)
        assert len(poly) == len(orc)
        for a, b in zip(poly, orc):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# branch reconstruction
# ---------------------------------------------------------------------------

def test_decoupled_branch_fields():
    p = make_system(g1=0.0, g2=0.0, delta_c=2.0, eta=10.0)
    b = reconstruct_branch(p, 20.0)
    assert b.beta1 == 0.0 and b.beta2 == 0.0
    assert b.delta_eff == pytest.approx(2.0)
    assert b.residual <= 1e-12
    assert abs(b.alpha)**2 == pytest.approx(20.0, rel=1e-12)


def test_reconstruct_rejects_non_steady_state():
    p = make_system(g1=0.0, g2=0.0, delta_c=2.0, eta=10.0)
    with pytest.raises(ResidualTooLarge):
        reconstruct_branch(p, 12.0)


def test_branch_invariants_on_random_roots(rng):
    # every accepted root satisfies the stored-field identities
    checked = 0
    for _ in range(100):
        p = random_system(rng)
        for b in solve_branches(p):
            checked += 1
            assert abs(abs(b.alpha)**2 - b.n_p) <= 1e-9 * max(1.0, b.n_p)
            quad = (np.conj(b.beta2)**2 + b.beta2**2 + 2 * abs(b.beta2)**2).real
            recomputed = p.delta_c + 2 * p.g1 * b.beta1.real + p.g2 * quad
            assert b.delta_eff == pytest.approx(recomputed, rel=1e-10, abs=1e-12)
            assert b.residual <= 1e-6
    assert checked >= 100


def test_singular_mechanical_resonance_raises():
    # omega2 + 4 g2 n -> 0 at n = 3125 with no phonon exchange
    p = make_system(g1=0.0, g2=-0.0004, omega_ex=0.0, eta=80.0)
    with pytest.raises(SingularMechanicalSystem):
        mechanical_response(p, 3125.0)


def test_fig4a_branch_values():
    # reference: two stable branches near 347 and 3191 at this working point
    p = make_system(g2=0.0, eta=56.5, omega_ex=0.2, delta_c=3.2)
    roots = [b.n_p for b in solve_branches(p)]
    assert any(abs(r - 347.0) / 347.0 < 0.02 for r in roots)
    assert any(abs(r - 3191.0) / 3191.0 < 0.02 for r in roots)


def test_fig2d_five_solution_window():
    # frozen via high-precision roots of the corrected polynomial + bisection
    p = make_system(eta=56.5, omega_ex=0.005, delta_c=3.2)
    diags: list[Diagnostic] = []
    branches = solve_branches(p, diagnostics=diags)
    ns = [b.n_p for b in branches]
    assert len(ns) == 5
    expected = [349.9, 2857.5, 3117.0, 3133.7, 3192.2]
    for got, want in zip(ns, expected):
        assert got == pytest.approx(want, rel=5e-3)
    # the verbatim closed-form coefficients disagree here; the solve records it
    assert any(d.kind == "coefficient-mismatch" for d in diags)
    assert roots_match(ns, oracle_roots(p))


def test_oracle_matches_solve_on_window():
    p = make_system(eta=56.5, omega_ex=0.005, delta_c=5.0)
    orc = oracle_roots(p)
    assert len(orc) == 5
    defects = fixed_point_defect(p, np.array(orc))
    assert np.all(np.abs(defects) <= 1e-6 * np.maximum(1.0, np.array(orc)))


def test_theta_mirror_branches(rng):
    for _ in range(25):
        p = random_system(rng)
        q = make_system(**{**p.__dict__, "theta": math.pi - p.theta})
        a = [b.n_p for b in solve_branches(p)]
        b = [bb.n_p for bb in solve_branches(q)]
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert u == pytest.approx(v, rel=1e-10, abs=1e-10)


def test_decoupled_peak_at_zero_detuning():
    p = make_system(g1=0.0, g2=0.0, eta=30.0)
    values = []
    for dc in np.linspace(-5.0, 5.0, 41):
        q = make_system(g1=0.0, g2=0.0, eta=30.0, delta_c=dc)
        (branch,) = solve_branches(q)
        values.append((abs(dc), branch.n_p))
    best = max(values, key=lambda t: t[1])
    assert best[0] == pytest.approx(0.0, abs=1e-12)


def test_unit_rescaling_invariance(rng):
    for _ in range(15):
        p = random_system(rng)
        s = 10**rng.uniform(-3, 3)
        q = rescale_params(p, s)
        a = [b.n_p for b in solve_branches(p)]
        b = [bb.n_p for bb in solve_branches(q)]
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert u == pytest.approx(v, rel=1e-6, abs=1e-9)


def test_rescaling_preserves_verdicts_and_phonons(rng):
    from quadmech import (classify_branch_stability, cool_linearized,
                          derive_linearized)
    for _ in range(8):
        p = random_system(rng)
        p = make_system(**{**p.__dict__, "gamma1": 1e-5, "gamma2": 1e-5,
                           "nbar1": 50.0, "nbar2": 20.0})
        s = 10**rng.uniform(-2, 2)
        q = rescale_params(p, s)
        for bp, bq in zip(solve_branches(p), solve_branches(q)):
            lp = derive_linearized(bp, p)
            lq = derive_linearized(bq, q)
            vp = classify_branch_stability(lp)
            vq = classify_branch_stability(lq)
            assert vp.stable == vq.stable
            if vp.stable:
                cp = cool_linearized(lp)
                cq = cool_linearized(lq)
                assert cp.n1f == pytest.approx(cq.n1f, rel=1e-6, abs=1e-9)
                assert cp.n2f == pytest.approx(cq.n2f, rel=1e-6, abs=1e-9)


def test_eta_zero_gives_vacuum_branch():
    p = make_system(eta=0.0)
    branches = solve_branches(p)
    assert len(branches) == 1
    assert branches[0].n_p == 0.0


# ---------------------------------------------------------------------------
# rational mechanical response and the batched oracle
# ---------------------------------------------------------------------------

@st.composite
def systems(draw):
    """Parameter sets over the ranges of ``random_system`` (kappa units)."""
    return make_system(
        delta_c=draw(st.floats(0.0, 10.0)),
        omega1=draw(st.floats(3.0, 7.0)),
        omega2=draw(st.floats(3.0, 7.0)),
        g1=10**draw(st.floats(-2.3, -1.0)),
        g2=-(10**draw(st.floats(-5.0, -3.0))),
        omega_ex=10**draw(st.floats(-2.5, 0.3)),
        theta=draw(st.floats(0.0, 2.0 * math.pi)),
        eta=10**draw(st.floats(1.0, 2.0)),
    )


@settings(max_examples=100, deadline=None)
@given(p=systems(), u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_rational_detuning_matches_stacked_solve(p, u):
    # points within 1e-3 (relative) of the mechanical pole are left out:
    # both routes lose accuracy there in proportion to the conditioning
    n = 1.05 * p.eta**2 / p.kappa**2 * np.array(u)
    pole = (p.omega_ex**2 - p.omega1 * p.omega2) / (4.0 * p.g2 * p.omega1)
    n = n[np.abs(n - pole) > 1e-3 * abs(pole)]
    got = RationalResponse.of([p]).detuning(n)
    np.testing.assert_allclose(got, stacked_detuning(p, n), rtol=1e-9,
                               atol=1e-9 * (1.0 + abs(p.delta_c)))


def test_exact_pole_is_nan():
    # omega2 + 4 g2 n = 0 at n = 3125 exactly when the exchange is off
    p = make_system(g1=0.01, g2=-0.0004, omega_ex=0.0, eta=80.0)
    f = fixed_point_defect(p, [3125.0, 3000.0])
    assert np.isnan(f[0]) and np.isfinite(f[1])


@settings(max_examples=25, deadline=None)
@given(ps=st.lists(systems(), min_size=2, max_size=6), data=st.data())
def test_batched_oracle_equals_per_cell_calls(ps, data):
    alone = [oracle_roots(p) for p in ps]
    order = data.draw(st.permutations(range(len(ps))))
    batched = oracle_roots([ps[k] for k in order])
    assert [batched[order.index(k)] for k in range(len(ps))] == alone
    cut = data.draw(st.integers(1, len(ps) - 1))
    assert oracle_roots(ps[:cut]) + oracle_roots(ps[cut:]) == alone


@settings(max_examples=60, deadline=None)
@given(p=systems())
def test_root_count_is_odd(p):
    # f(0) > 0 > f(n_max) and f stays continuous through the pole (f -> -n)
    assert len(oracle_roots(p)) % 2 == 1


def test_batched_solve_keeps_per_cell_diagnostics():
    ps = [make_system(eta=56.5, omega_ex=0.005, delta_c=3.2),
          make_system(g1=0.0, g2=0.0, eta=10.0, delta_c=2.0)]
    sinks: list[list[Diagnostic]] = [[], []]
    batched = branch_lists(solve_branches(ps, diagnostics=sinks), len(ps))
    assert [[b.n_p for b in bs] for bs in batched] == \
        [[b.n_p for b in solve_branches(p)] for p in ps]
    assert any(d.kind == "coefficient-mismatch" for d in sinks[0])
    assert sinks[1] == []


# ---------------------------------------------------------------------------
# batched steady-state routes against their per-cell references
# ---------------------------------------------------------------------------

@st.composite
def any_systems(draw):
    """Parameter sets whose mechanical pole lies inside the root window,
    beyond it, or nowhere (g2 = 0, or g2 > 0), with g1 = 0 or eta = 0 at
    times (a quintic, or a root at the origin)."""
    g2 = draw(st.sampled_from([0.0, 1.0, -1.0, -1.0])) * \
        10**draw(st.floats(-6.0, -3.0))
    return make_system(
        delta_c=draw(st.floats(0.0, 10.0)),
        omega1=draw(st.floats(3.0, 7.0)),
        omega2=draw(st.floats(3.0, 7.0)),
        g1=draw(st.sampled_from([0.0, 1.0, 1.0])) * 10**draw(st.floats(-2.3, -1.0)),
        g2=g2,
        omega_ex=10**draw(st.floats(-2.5, 0.3)),
        theta=draw(st.floats(0.0, 2.0 * math.pi)),
        eta=draw(st.sampled_from([0.0, 1.0, 1.0, 1.0])) * 10**draw(st.floats(0.0, 2.5)),
    )


def _coefficient_sets(ps):
    """The sets' polynomials plus hand-made vanishing and constant ones."""
    coeffs = [build_polynomial(p) for p in ps]
    coeffs.append(PolynomialCoefficients(c=np.zeros(8), aux={"n_scale": 1.0}))
    coeffs.append(PolynomialCoefficients(c=np.array([3.0] + [0.0] * 7),
                                         aux={"n_scale": 1.0}))
    coeffs.append(PolynomialCoefficients(
        c=np.array([0.0, 0.0, -6.0, 11.0, -6.0, 1.0, 0.0, 0.0]),
        aux={"n_scale": 1.0}))                  # (n-1)(n-2)(n-3) n^2
    return coeffs


def _roots_or_error(coeffs):
    try:
        return real_roots_reference(coeffs)
    except ZeroPolynomial as exc:
        return ("ZeroPolynomial", str(exc))


def _as_comparable(roots):
    if isinstance(roots, ZeroPolynomial):
        return ("ZeroPolynomial", str(roots))
    return roots


@settings(max_examples=40, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=12), data=st.data())
def test_batched_roots_equal_numpy_roots_per_cell(ps, data):
    coeffs = _coefficient_sets(ps)
    order = data.draw(st.permutations(range(len(coeffs))))
    batched = batch_real_roots([coeffs[k] for k in order])
    got = [_as_comparable(batched[order.index(k)]) for k in range(len(coeffs))]
    want = [_roots_or_error(c) for c in coeffs]
    assert repr(got) == repr(want)
    for c, w in zip(coeffs, want):
        if isinstance(w, list):
            assert find_real_roots(c) == w
        else:
            with pytest.raises(ZeroPolynomial, match=re.escape(w[1])):
                find_real_roots(c)


def test_batched_roots_cover_every_degree():
    ps = [make_system(), make_system(g2=0.0), make_system(g1=0.0),
          make_system(eta=0.0), make_system(g1=0.0, g2=0.0)]
    degrees = [build_polynomial(p).degree() for p in ps]
    assert degrees == [7, 3, 5, 7, 1]
    assert build_polynomial(ps[3]).c[0] == 0.0          # a root at the origin
    got = batch_real_roots(_coefficient_sets(ps))
    want = [_roots_or_error(c) for c in _coefficient_sets(ps)]
    assert repr([_as_comparable(r) for r in got]) == repr(want)
    assert got[3][0] == 0.0
    assert got[-1] == pytest.approx([0.0, 1.0, 2.0, 3.0], abs=1e-9)


def _reconstructed_or_error(p, n, with_damping):
    try:
        return reconstruct_reference(p, n, with_damping)
    except (ResidualTooLarge, SingularMechanicalSystem) as exc:
        return exc


U = 2.0 ** -53      # unit roundoff


def _pow_gap_bounds(p, b):
    """The (delta_eff, alpha, residual) gaps allowed between a batched
    branch and the per-candidate reference branch ``b`` at ``p`` (LEDGER
    "Steady columns").  The reference squares with Python's ``x**2``
    (libm's pow, within one ulp of x^2), the batch with products, in the
    same order of operations: two squares lie within 2u relative of each
    other, and every rounded operation fed by a gap may round differently,
    by at most 2u of its result."""
    h2 = abs(b.beta2) ** 2
    den = p.kappa**2 + b.delta_eff**2
    pred = p.eta**2 / den
    # |b2|^2 doubled, the quadrature sum, g2 times it: 20u g2 |b2|^2; the
    # final sum: 2u |delta|
    d_delta = 2.0 * U * (10.0 * abs(p.g2) * h2 + abs(b.delta_eff))
    # the phase of alpha moves by kappa/den per unit of delta; the nine
    # rounded operations from delta to alpha, each 2u of a component whose
    # normalisation by |raw| at most doubles it: 36u, taken as 40u
    d_alpha = math.sqrt(b.n_p) * (p.kappa * d_delta / den + 40.0 * U)
    # eta^2, kappa^2 and delta^2 by pow, the sum, the quotient: 10u of the
    # Lorentzian prediction, plus delta's gap through delta^2; then the
    # difference and the scaling: 4u of the residual
    d_residual = (pred * (10.0 * U + 2.0 * abs(b.delta_eff) * d_delta / den)
                  / max(1.0, b.n_p) + 4.0 * U * b.residual)
    return d_delta, d_alpha, d_residual


def _same(p, got, want):
    """The reconstruction contract: rejections exact; n_p, beta1 and beta2
    bit-equal; delta_eff, alpha and residual within ``_pow_gap_bounds``."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        return type(got) is type(want) and str(got) == str(want)
    d_delta, d_alpha, d_residual = _pow_gap_bounds(p, want)
    return (repr((got.n_p, got.beta1, got.beta2))
            == repr((want.n_p, want.beta1, want.beta2))
            and abs(got.delta_eff - want.delta_eff) <= d_delta
            and abs(got.alpha - want.alpha) <= d_alpha
            and abs(got.residual - want.residual) <= d_residual)


def _entry(record, k):
    try:
        return record.branch(k)
    except (ResidualTooLarge, SingularMechanicalSystem) as exc:
        return exc


@settings(max_examples=30, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=6),
       with_damping=st.booleans(), data=st.data())
def test_batched_reconstruction_equals_per_candidate(ps, with_damping, data):
    ps = [make_system(**{**p.__dict__, "gamma1": 1e-4, "gamma2": 2e-4})
          for p in ps]
    # the cells' roots, a point off every branch and a negative one
    candidates = [oracle_roots(p, with_damping=with_damping)
                  + [0.5 * p.eta**2 / p.kappa**2 + 1.0, -1.0] for p in ps]
    # the exact mechanical resonance with no exchange: a singular solve;
    # a drive term beyond the float range: an overflowed one
    ps.append(make_system(g1=0.0, g2=-0.0004, omega_ex=0.0, eta=80.0))
    candidates.append([3125.0, 100.0])
    ps.append(make_system(g1=1e10, g2=0.0))
    candidates.append([1e299])
    with np.errstate(over="ignore"):
        got = reconstruct_branches(ps, candidates, with_damping)
    owners = [k for k, cands in enumerate(candidates) for _ in cands]
    assert got.owner.tolist() == owners
    kinds = set()
    for k, (owner, n) in enumerate(zip(owners, (n for c in candidates
                                                 for n in c))):
        with np.errstate(over="ignore"):
            want = _reconstructed_or_error(ps[owner], n, with_damping)
        assert _same(ps[owner], _entry(got, k), want)
        kinds.add(str(want).split(" at ")[0] if isinstance(
            want, SingularMechanicalSystem) else type(want).__name__)
    assert {"ResidualTooLarge", "mechanical system singular",
            "mechanical solve overflowed", "SteadyStateBranch"} <= kinds
    n = data.draw(st.sampled_from(candidates[0]))
    want = _reconstructed_or_error(ps[0], n, with_damping)
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=re.escape(str(want))):
            reconstruct_branch(ps[0], n, with_damping)
    else:
        assert _same(ps[0], reconstruct_branch(ps[0], n, with_damping), want)


def test_mechanical_response_is_a_batch_of_one():
    p = make_system()
    branch = reconstruct_reference(p, oracle_roots(p)[0])
    assert mechanical_response(p, branch.n_p) == (branch.beta1, branch.beta2)


def _screen_matrix(kind: str, seed: int, log_cond: float,
                   log_scale: float) -> np.ndarray:
    """A 4x4 matrix ``U diag(s) V^T`` of 2-norm condition 10**log_cond, an
    exactly singular one (a repeated row) or one with a NaN entry."""
    rng = np.random.default_rng(seed)
    u, v = (np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(2))
    s = 10.0 ** -np.sort(np.r_[0.0, rng.uniform(0.0, log_cond, 2), log_cond])
    m = 10.0 ** log_scale * (u * s) @ v.T
    if kind == "singular":
        m[3] = m[1]
    elif kind == "nan":
        m[rng.integers(4), rng.integers(4)] = np.nan
    return m


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(
    st.sampled_from(["cond"] * 8 + ["singular", "nan"]),
    st.integers(0, 2**32 - 1), st.floats(12.0, 16.0), st.floats(-3.0, 3.0)),
    min_size=1, max_size=10))
def test_condition_screen_equals_cond(rows):
    # the inv-and-norms bound settles a matrix only where cond agrees; the
    # draws straddle SINGULAR_COND = 1e14, where the bound alone would not
    m = np.stack([_screen_matrix(*row) for row in rows])
    try:
        want = ~(np.linalg.cond(m) > SINGULAR_COND)
    except np.linalg.LinAlgError:      # an SVD that does not converge (NaN)
        with pytest.raises(np.linalg.LinAlgError):
            _well_conditioned(m)
        return
    assert _well_conditioned(m).tolist() == want.tolist()


@settings(max_examples=20, deadline=None)
@given(ps=st.lists(any_systems(), min_size=2, max_size=6), data=st.data())
def test_batched_solve_equals_per_cell_solves(ps, data):
    def solve(batch):
        sinks = [[] for _ in batch]
        out = branch_lists(solve_branches(batch, diagnostics=sinks),
                           len(batch))
        return [(repr(bs), [(d.kind, d.message) for d in sink])
                for bs, sink in zip(out, sinks)]
    alone = [solve([p])[0] for p in ps]
    order = data.draw(st.permutations(range(len(ps))))
    batched = solve([ps[k] for k in order])
    assert [batched[order.index(k)] for k in range(len(ps))] == alone
    cut = data.draw(st.integers(1, len(ps) - 1))
    assert solve(ps[:cut]) + solve(ps[cut:]) == alone


def test_even_branch_count_is_reported(monkeypatch):
    import quadmech.steady_state as steady
    p = make_system(g2=0.0, eta=45.0, delta_c=2.15)     # three branches
    sinks = [[]]
    assert len(solve_branches([p], diagnostics=sinks).n_p) == 3
    assert not any(d.kind == "parity-violation" for d in sinks[0])
    real = steady.exact_roots

    def drop_one(*a, **k):
        roots, failed = real(*a, **k)
        return [r[:2] for r in roots], failed
    monkeypatch.setattr(steady, "exact_roots", drop_one)
    sinks = [[]]
    assert len(solve_branches([p], diagnostics=sinks).n_p) == 2
    # the cubic's closed-form coefficients are right, so the dropped root
    # raises the parity check alone
    assert [d.kind for d in sinks[0]] == ["parity-violation"]


# ---------------------------------------------------------------------------
# the exact degree-7 route and critical-point isolation against the exact
# rational Sturm count
# ---------------------------------------------------------------------------

def test_bisection_freezes_on_an_exact_root():
    # g1 = g2 = 0 and delta_c = 0: f(n) = 64 - n, and the first midpoint of
    # [60, 68] is the root itself, where f is exactly 0
    resp = RationalResponse.of([make_system(g1=0.0, g2=0.0, delta_c=0.0,
                                            eta=8.0)])
    lo, hi = np.array([60.0]), np.array([68.0])
    assert fixed_point_defect(resp, np.array([64.0]))[0] == 0.0
    got = _bisect(resp, lo, hi, fixed_point_defect(resp, lo))
    assert got.tolist() == [64.0]


def test_subnormal_window_solves_without_raising():
    # at eta = 5e-161 the root window eta^2/kappa^2 is subnormal, and so is
    # every coefficient of Q: deflation must not underflow to a zero
    # threshold, and bisection must not lose f's sign to a product that
    # underflows.  The cell's neighbours in a batch keep their solo branches.
    tiny = make_system(eta=5e-161)
    sinks = [[]]
    (branch,) = branch_lists(solve_branches([tiny], diagnostics=sinks), 1)[0]
    assert sinks == [[]]
    assert 0.0 <= branch.n_p < 1e-12
    column = [make_system(), tiny, make_system(eta=56.5)]
    sinks = [[] for _ in column]
    together = branch_lists(solve_branches(column, diagnostics=sinks), 3)
    for k in (0, 2):
        alone = [[]]
        assert repr(together[k]) == repr(branch_lists(
            solve_branches([column[k]], diagnostics=alone), 1)[0])
        assert sinks[k] == alone[0]


def test_exact_count_is_held_to_the_flow_and_to_known_roots(rng):
    # Q of the exact count is D^4 (n (kappa^2 + Delta^2) - eta^2) at every
    # n, with Delta the flow's own detuning (``stacked_detuning``), so it
    # vanishes exactly where f does
    from fractions import Fraction

    from conftest import _sturm_chain, _variations, exact_q
    for _ in range(10):
        p = random_system(rng)
        q, d = exact_q(p)
        assert len(q) == 8 and len(d) == 2
        n = rng.uniform(0.0, 1.05, 5) * p.eta**2 / p.kappa**2
        delta = stacked_detuning(p, n)
        for x, dx in zip(n.tolist(), delta.tolist()):
            want = (float(sum(c * Fraction(x)**k for k, c in enumerate(d)))
                    ** 4 * (x * (p.kappa**2 + dx**2) - p.eta**2))
            got = float(sum(c * Fraction(x)**k for k, c in enumerate(q)))
            scale = float(sum(abs(c) * Fraction(x)**k
                              for k, c in enumerate(q)))
            assert abs(got - want) <= 1e-8 * scale
    # n (n - 1)(n - 2)^2 (n - 3): distinct roots counted once, on (a, b]
    chain = _sturm_chain([Fraction(c) for c in (0, 12, -28, 23, -8, 1)])
    count = [_variations(chain, Fraction(a)) - _variations(chain, Fraction(b))
             for a, b in ((0, 4), (1, 2), (Fraction(3, 2), 4), (3, 9))]
    assert count == [3, 1, 2, 0]


def _assert_routes_agree(ps, with_damping=False, tol=1e-11, sturm=True):
    """Critical-point isolation (``oracle_roots``) finds as many roots as
    the exact Sturm count (when ``sturm``), f changes sign across each
    one's polish bracket, and every certified cell of the exact route has
    the same roots within ``tol`` relative.  Returns the number of
    uncertified cells."""
    exact, failed = exact_roots(RationalResponse.of(ps, with_damping))
    isolated = oracle_roots(ps, with_damping=with_damping)
    for k, (p, ex, iso, why) in enumerate(zip(ps, exact, isolated, failed)):
        if sturm:
            assert len(iso) == sturm_root_count(p, with_damping), (p, iso)
        if p.eta > 0.0 and iso:
            n = np.array(iso)
            h = POLISH_TOL * np.maximum(1.0, n)
            f = fixed_point_defect(RationalResponse.of([p] * 2 * len(n),
                                                       with_damping),
                                   np.concatenate([n - h, n + h]))
            assert np.all(f[:len(n)] * f[len(n):] < 0.0), (p, iso)
        if why is None:
            assert len(ex) == len(iso), (p, ex, iso)
            assert all(abs(a - b) <= tol * max(1.0, b)
                       for a, b in zip(ex, iso)), (p, ex, iso)
    return sum(why is not None for why in failed)


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=8),
       damping=st.sampled_from([0.0, 0.0, 1e-3, 0.05]))
def test_exact_roots_contain_the_scan_roots(ps, damping):
    # three routes agree: isolation's count is the exact rational count, and
    # certified exact roots equal isolation's within 1e-11
    ps = [make_system(**{**vars(p), "gamma1": damping, "gamma2": 2 * damping})
          for p in ps]
    _assert_routes_agree(ps, with_damping=damping > 0.0)


def _recipe_cells(tag, points):
    from quadmech.recipes import RECIPES
    _, base, axes = RECIPES[tag]
    grids = np.meshgrid(*[np.linspace(ax.lo, ax.hi, points) for ax in axes],
                        indexing="ij")
    return [make_system(**{**vars(base),
                           **{ax.name: float(g.flat[j])
                              for ax, g in zip(axes, grids)}})
            for j in range(grids[0].size)]


FIGURE_GRIDS = [("fig2a", 21), ("fig2b", 21), ("fig3a", 21), ("fig3c", 21),
                ("fig2c", 101), ("fig3b", 101), ("fig3d", 101)]


@pytest.mark.parametrize("tag,points", FIGURE_GRIDS)
def test_exact_root_counts_equal_the_scan_on_figure_grids(tag, points):
    # the exact route certifies every cell and equals isolation; fig3c's
    # omega_ex = 0 cells carry the D factors of e = 0 at the pole.  Both
    # routes bisect f to 1e-12, so polished roots agree far inside 1e-11.
    # The Sturm count is held to the roots of one plane (the next test)
    assert _assert_routes_agree(_recipe_cells(tag, points), sturm=False) == 0


def test_sturm_count_equals_the_root_sets_on_a_figure_plane():
    ps = _recipe_cells("fig2a", 21)
    roots = root_sets(ps, True, False, [[] for _ in ps])
    assert [len(r) for r in roots] == [sturm_root_count(p) for p in ps]
    assert {len(r) for r in roots} >= {1, 3, 5}


def test_fig2d_extra_roots_are_close_pairs_beside_the_pole():
    # right of delta_c ~ 6.3 the four roots beside the mechanical pole come
    # in pairs less than 0.1 photon apart, which a 4096-point scan missed at
    # delta_c = 6.96, 7.28, 7.6 and 8; the exact count holds every one
    ps = _recipe_cells("fig2d", 101)
    exact, failed = exact_roots(RationalResponse.of(ps))
    close = [k for k, roots in enumerate(exact)
             if len(roots) > 1 and np.diff(roots).min() < 0.1]
    assert len(close) >= 20 and {87, 91, 95, 100} <= set(close)
    picked = [ps[k] for k in close]
    assert _assert_routes_agree(picked) == 0
    assert {len(exact[k]) for k in close} == {5}


def test_pole_exclusion_at_theta_half_pi():
    # cos(float(pi/2)) = 6.1e-17: four exact roots of Q sit within 1e-13
    # relative of the pole on these fig3c cells.  The exact count is 7;
    # without the roots within POLE_TOL of the pole it is 3, the count every
    # route gives (LEDGER "Exact degree-7 root route")
    ps = [p for p in _recipe_cells("fig3c", 15)
          if p.theta == float(math.pi / 2) and p.omega_ex > 0.0]
    assert len(ps) == 14
    assert [sturm_root_count(p, exclude_pole=False) for p in ps] == [7] * 14
    assert [sturm_root_count(p) for p in ps] == [3] * 14
    sinks = [[] for _ in ps]
    assert [len(r) for r in root_sets(ps, True, False, sinks)] == [3] * 14
    assert [len(r) for r in oracle_roots(ps)] == [3] * 14
    assert not any(d.kind == "isolation-fallback" for s in sinks for d in s)


@settings(max_examples=25, deadline=None)
@given(ps=st.lists(any_systems(), min_size=2, max_size=8), data=st.data())
def test_exact_roots_are_batch_independent(ps, data):
    def solve(batch):
        roots, failed = exact_roots(RationalResponse.of(batch))
        return list(zip(roots, failed))
    alone = [solve([p])[0] for p in ps]
    order = data.draw(st.permutations(range(len(ps))))
    batched = solve([ps[k] for k in order])
    assert [batched[order.index(k)] for k in range(len(ps))] == alone
    cut = data.draw(st.integers(1, len(ps) - 1))
    assert solve(ps[:cut]) + solve(ps[cut:]) == alone


def test_certificate_catches_a_root_without_a_sign_change(monkeypatch):
    # two spurious companion roots in (eta^2/kappa^2, w], where f < 0 all
    # through: a pair keeps the count odd, so only the sign test across
    # their polish brackets can fail the cell, which then takes the roots of
    # critical-point isolation
    import quadmech.steady_state as steady
    p = _recipe_cells("fig2a", 5)[7]
    resp = RationalResponse.of([p])
    d0, d1 = resp.coef[3:5, 0]
    w = (1.0 + ORACLE_MARGIN) * p.eta**2 / p.kappa**2
    c = -d0 / d1 if 0.0 < -d0 / d1 < w else 0.0
    t = (np.array([[1.01, 1.03]]) * p.eta**2 / p.kappa**2 - c) / w
    isolated = oracle_roots(p)
    real = steady._companion_roots

    def spurious(hi):
        solvable, zeros, groups = real(hi)
        return solvable, zeros, groups + [(np.array([0]), t + 0j)]
    monkeypatch.setattr(steady, "_companion_roots", spurious)
    roots, failed = exact_roots(resp)
    assert failed == ["no sign change across a polished root"]
    assert len(roots[0]) == len(isolated) + 2
    assert len(isolated) == sturm_root_count(p)
    monkeypatch.setattr(steady, "_companion_roots", real)
    monkeypatch.setattr(steady, "exact_roots", lambda resp: (roots, failed))
    sinks = [[]]
    assert root_sets([p], True, False, sinks) == [isolated]
    fallback = [d.message for d in sinks[0] if d.kind == "isolation-fallback"]
    assert fallback == ["exact-root certificate failed (no sign change "
                        "across a polished root); roots from critical-point "
                        "isolation"]


def test_uncertified_cell_alone_goes_to_the_scan(monkeypatch):
    # only the uncertified cell goes to the fallback, whose roots come from
    # critical-point isolation
    import quadmech.steady_state as steady
    ps = [make_system(delta_c=dc, eta=56.5, omega_ex=0.005)
          for dc in (2.0, 3.2, 5.0)]
    real_exact, real_isolate = steady.exact_roots, steady.oracle_roots
    isolated = []

    def break_middle(resp):
        roots, failed = real_exact(resp)
        return roots, [None, "stub", None]

    def spy(sets, *a, **k):
        isolated.append(sets.delta_c.tolist())    # a column record
        return real_isolate(sets, *a, **k)
    monkeypatch.setattr(steady, "exact_roots", break_middle)
    monkeypatch.setattr(steady, "oracle_roots", spy)
    sinks = [[], [], []]
    got = root_sets(ps, True, False, sinks)
    assert isolated == [[ps[1].delta_c]]
    assert got[1] == real_isolate(ps[1])
    assert len(got[1]) == sturm_root_count(ps[1]) == 5
    assert [d.kind for d in sinks[1]].count("isolation-fallback") == 1
    assert "(stub)" in next(d.message for d in sinks[1]
                            if d.kind == "isolation-fallback")
    assert not any(d.kind == "isolation-fallback"
                   for d in sinks[0] + sinks[2])
    # without the oracle the exact roots stand, and nothing is isolated
    isolated.clear()
    assert root_sets(ps, False, False, [[], [], []]) \
        == real_exact(RationalResponse.of(ps))[0]
    assert isolated == []


def test_isolation_reports_a_non_finite_polynomial():
    # eta^2 overflows: Q is not finite, so no root is isolated and the
    # cell says why
    p = make_system(eta=1e200)
    sinks = [[], []]
    assert oracle_roots([p, make_system()], sinks)[0] == []
    assert [d.kind for d in sinks[0]] == ["non-finite-polynomial"]
    assert sinks[1] == []


def test_oracle_off_takes_the_exact_roots(rng):
    ps = [random_system(rng) for _ in range(40)]
    on_sinks, off_sinks = [[] for _ in ps], [[] for _ in ps]
    on = branch_lists(solve_branches(ps, diagnostics=on_sinks), len(ps))
    off = branch_lists(solve_branches(ps, oracle_mode=False,
                                      diagnostics=off_sinks), len(ps))
    assert any(d.kind == "coefficient-mismatch" for s in on_sinks for d in s)
    assert [len(b) for b in off] == [len(b) for b in on]
    # both take the fixed-point roots
    for a, b in zip(off, on):
        assert all(x.n_p == pytest.approx(y.n_p, rel=MATCH_TOL)
                   for x, y in zip(a, b))
    assert not any(s for s in off_sinks)


# ---------------------------------------------------------------------------
# coefficient-mismatch: closed-form coefficients against the fixed-point map
# ---------------------------------------------------------------------------

def _mismatches(ps):
    sinks = [[] for _ in ps]
    solve_branches(ps, diagnostics=sinks)
    return [[d.message for d in sink if d.kind == "coefficient-mismatch"]
            for sink in sinks]


def test_cubic_and_quintic_raise_no_mismatch(rng):
    # g2 = 0 (cubic) and g1 = 0 (quintic): the closed form is right, and its
    # coefficients agree with the fixed-point map's to roundoff
    ps = [random_system(rng, g2_zero=True) for _ in range(100)]
    ps += [make_system(**{**vars(random_system(rng)), "g1": 0.0})
           for _ in range(100)]
    assert _mismatches(ps) == [[] for _ in ps]
    assert coefficient_deviation(ps, RationalResponse.of(ps)).max() < 1e-14


@pytest.mark.parametrize("tag,point", [
    # the pole's double D factor splits into two verbatim roots
    ("fig2a", {"g1": 0.0, "delta_c": 1.0}),
    # a verbatim root near 942, beyond the physical n <= eta^2/kappa^2
    ("fig3a", {"eta": 1.0, "delta_c": 0.0})])
def test_root_set_false_positives_raise_no_mismatch(tag, point):
    from quadmech.recipes import RECIPES
    p = make_system(**{**vars(RECIPES[tag][1]), **point})
    poly, orc = find_real_roots(build_polynomial(p)), oracle_roots(p)
    assert len(poly) > len(orc) and not roots_match(poly, orc)
    assert _mismatches([p]) == [[]]


def test_mismatch_messages_equal_the_per_cell_format():
    # root_sets formats every flagged coefficient of a batch in one go; the
    # messages equal the per-cell generator's on the fig3d and fig4 cells
    from quadmech.params import param_columns
    from quadmech.recipes import RECIPES, _ratio_columns
    _, bases, (axis,) = RECIPES["fig4"]
    records = [_ratio_columns(list(bases.values()), axis.values(), way)
               for way in ("kappa", "omega1")]
    records.append(param_columns(_recipe_cells("fig3d", 101))[0])
    for q in records:
        dev = coefficient_deviation(q, RationalResponse.of(q))
        want = [[] for _ in dev]
        for k in np.flatnonzero(~(dev.max(axis=1) <= COEFF_TOL)).tolist():
            off = " ".join(f"C{m} {d:.1e}"
                           for m, d in enumerate(dev[k].tolist())
                           if not d <= COEFF_TOL)
            want[k].append(f"closed-form {off} off the fixed-point map, "
                           f"of max |C_m|")
        sinks = [[] for _ in dev]
        root_sets(q, True, False, sinks)
        assert [[d.message for d in sink if d.kind == "coefficient-mismatch"]
                for sink in sinks] == want
        assert sum(map(len, want)) > 50


@pytest.mark.parametrize("tag,points", FIGURE_GRIDS + [("fig2d", 101)])
def test_coupled_figure_cells_name_c5_and_c6(tag, points):
    ps = _recipe_cells(tag, points)
    flagged = 0
    for p, found in zip(ps, _mismatches(ps)):
        if p.g1 == 0.0 or p.g2 == 0.0:
            assert found == []
        elif found:
            (message,) = found
            assert "C5 " in message and "C6 " in message
            # the scale is fitted on C0..C4 and C7, so only C5/C6 are named
            assert re.findall(r"C\d", message) == ["C5", "C6"]
            flagged += 1
    coupled = sum(p.g1 != 0.0 and p.g2 != 0.0 for p in ps)
    # fig3a's eta = 1 row is the one coupled row whose closed form holds
    assert flagged == coupled - (points if tag == "fig3a" else 0)
