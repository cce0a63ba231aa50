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
from quadmech.steady_state import (MATCH_TOL, ORACLE_MARGIN, Diagnostic,
                                   PolynomialCoefficients,
                                   RationalResponse, ResidualTooLarge,
                                   SingularMechanicalSystem, ZeroPolynomial,
                                   _bisect, _scan_blocks, batch_real_roots,
                                   coefficient_deviation, exact_roots,
                                   fixed_point_defect, reconstruct_branches,
                                   root_sets, roots_match)

from conftest import (make_system, random_system, real_roots_reference,
                      reconstruct_reference, scan_grid_reference,
                      stacked_detuning)


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


def test_oracle_requires_scan_points():
    with pytest.raises(ValueError):
        oracle_roots(make_system(), scan_points=10)


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
    batched = solve_branches(ps, diagnostics=sinks)
    assert [[b.n_p for b in bs] for bs in batched] == \
        [[b.n_p for b in solve_branches(p)] for p in ps]
    assert any(d.kind == "coefficient-mismatch" for d in sinks[0])
    assert sinks[1] == []


# ---------------------------------------------------------------------------
# batched steady-state routes against their per-cell references
# ---------------------------------------------------------------------------

@st.composite
def any_systems(draw):
    """Parameter sets whose mechanical pole lies inside the scan window,
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


def _grids_of_blocks(ps, scan_points):
    cells, grids = [], []
    for owners, counts, grid in _scan_blocks(ps, list(range(len(ps))),
                                             scan_points):
        cells += owners
        grids += np.split(grid, np.cumsum(counts)[:-1])
    assert cells == list(range(len(ps)))
    return grids


@settings(max_examples=40, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=20),
       scan_points=st.sampled_from([1000, 4096]))
def test_scan_grids_equal_per_cell_grids(ps, scan_points):
    ps = [p for p in ps if p.eta > 0.0]
    for got, p in zip(_grids_of_blocks(ps, scan_points), ps):
        want = scan_grid_reference(p, scan_points)
        assert got.tobytes() == want.tobytes()


def test_scan_grids_cover_pole_inside_outside_and_absent():
    inside = make_system()                      # pole at 3000 < n_max
    outside = make_system(g2=-1e-5)             # pole at 120000 > n_max
    absent = make_system(g2=0.0)
    # subnormal windows: a zero linspace step, whose grid repeats points;
    # np.unique drops the repeats only when a pole lies inside the window
    tiny = make_system(eta=5e-161)
    tiny_pole = make_system(omega1=1.0, omega2=1.0,
                            omega_ex=math.sqrt(1.0000000000000004),
                            g1=0.0, g2=2e304, eta=9.3e-161)
    ps = [inside, tiny, outside, absent, tiny_pole, inside]
    grids = _grids_of_blocks(ps, 4096)
    assert [len(g) for g in grids[1:5]] == [4096, 4096, 4096, 1840]
    assert len(grids[0]) > 4096 and len(np.unique(grids[1])) < 4096
    for got, p in zip(grids, ps):
        assert got.tobytes() == scan_grid_reference(p, 4096).tobytes()


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


def _same(a, b):
    if isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return repr(a) == repr(b)


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
    kinds = set()
    for p, cands, results in zip(ps, candidates, got):
        assert len(results) == len(cands)
        for n, r in zip(cands, results):
            with np.errstate(over="ignore"):
                want = _reconstructed_or_error(p, n, with_damping)
            assert _same(r, want)
            kinds.add(str(want).split(" at ")[0] if isinstance(
                want, SingularMechanicalSystem) else type(want).__name__)
    assert {"ResidualTooLarge", "mechanical system singular",
            "mechanical solve overflowed"} <= kinds
    n = data.draw(st.sampled_from(candidates[0]))
    want = _reconstructed_or_error(ps[0], n, with_damping)
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=re.escape(str(want))):
            reconstruct_branch(ps[0], n, with_damping)
    else:
        assert repr(reconstruct_branch(ps[0], n, with_damping)) == repr(want)


def test_mechanical_response_is_a_batch_of_one():
    p = make_system()
    branch = reconstruct_reference(p, oracle_roots(p)[0])
    assert mechanical_response(p, branch.n_p) == (branch.beta1, branch.beta2)


@settings(max_examples=20, deadline=None)
@given(ps=st.lists(any_systems(), min_size=2, max_size=6), data=st.data())
def test_batched_solve_equals_per_cell_solves(ps, data):
    def solve(batch):
        sinks = [[] for _ in batch]
        out = solve_branches(batch, diagnostics=sinks)
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
    assert len(solve_branches([p], diagnostics=sinks)[0]) == 3
    assert not any(d.kind == "parity-violation" for d in sinks[0])
    real = steady.exact_roots

    def drop_one(*a, **k):
        roots, failed = real(*a, **k)
        return [r[:2] for r in roots], failed
    monkeypatch.setattr(steady, "exact_roots", drop_one)
    sinks = [[]]
    assert len(solve_branches([p], diagnostics=sinks)[0]) == 2
    # the cubic's closed-form coefficients are right, so the dropped root
    # raises the parity check alone
    assert [d.kind for d in sinks[0]] == ["parity-violation"]


# ---------------------------------------------------------------------------
# the exact degree-7 route against the scan oracle
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


def _within(root, roots, tol=1e-9):
    return any(abs(r - root) <= tol * max(1.0, root) for r in roots)


def _assert_contains_scan(ps, with_damping=False, tol=1e-9):
    """Certified exact roots hold the 4096-point scan's, root for root
    within ``tol`` relative, and every extra root is one that a
    400000-point scan finds too (within 1e-9).  Returns the
    numbers of uncertified cells and of cells whose certified exact root
    count differs from the scan's."""
    exact, failed = exact_roots(RationalResponse.of(ps, with_damping))
    scan = oracle_roots(ps, with_damping=with_damping)
    extra = []
    for k, (ex, sc, why) in enumerate(zip(exact, scan, failed)):
        if why is not None:
            continue
        assert all(_within(r, ex, tol) for r in sc), (ps[k], ex, sc)
        if len(ex) != len(sc):
            extra.append(k)
    dense = oracle_roots([ps[k] for k in extra], scan_points=400_000,
                         with_damping=with_damping)
    for k, roots in zip(extra, dense):
        assert all(_within(r, roots) for r in exact[k]), (ps[k], exact[k])
    return sum(why is not None for why in failed), len(extra)


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=8),
       damping=st.sampled_from([0.0, 0.0, 1e-3, 0.05]))
def test_exact_roots_contain_the_scan_roots(ps, damping):
    ps = [make_system(**{**vars(p), "gamma1": damping, "gamma2": 2 * damping})
          for p in ps]
    _assert_contains_scan(ps, with_damping=damping > 0.0)


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
    # fig3c's omega_ex = 0 cells carry the D factors of e = 0 at the pole.
    # Both routes bisect f to 1e-12, so polished roots agree far inside
    # 1e-11; unpolished eigenvalue roots miss that by up to 3e-10 (fig3a)
    assert _assert_contains_scan(_recipe_cells(tag, points),
                                 tol=1e-11) == (0, 0)


def test_fig2d_extra_roots_are_close_pairs_beside_the_pole():
    # the 4096-point scan misses close root pairs beside the mechanical pole
    # on part of this curve; a 400000-point scan finds every one of them
    uncertified, extra = _assert_contains_scan(_recipe_cells("fig2d", 101))
    assert uncertified == 0 and extra > 0


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
    # their polish brackets can fail the cell, which then takes the scan's
    import quadmech.steady_state as steady
    p = _recipe_cells("fig2a", 5)[7]
    resp = RationalResponse.of([p])
    d0, d1 = resp.coef[3:5, 0]
    w = (1.0 + ORACLE_MARGIN) * p.eta**2 / p.kappa**2
    c = -d0 / d1 if 0.0 < -d0 / d1 < w else 0.0
    t = (np.array([[1.01, 1.03]]) * p.eta**2 / p.kappa**2 - c) / w
    real = steady._companion_roots

    def spurious(hi):
        solvable, zeros, groups = real(hi)
        return solvable, zeros, groups + [(np.array([0]), t + 0j)]
    monkeypatch.setattr(steady, "_companion_roots", spurious)
    roots, failed = exact_roots(resp)
    assert failed == ["no sign change across a polished root"]
    assert len(roots[0]) == len(oracle_roots(p)) + 2
    sinks = [[]]
    assert root_sets([p], True, 4096, False, sinks) == [oracle_roots(p)]
    fallback = [d.message for d in sinks[0] if d.kind == "scan-fallback"]
    assert len(fallback) == 1
    assert "(no sign change across a polished root)" in fallback[0]


def test_uncertified_cell_alone_goes_to_the_scan(monkeypatch):
    import quadmech.steady_state as steady
    ps = [make_system(delta_c=dc, eta=56.5, omega_ex=0.005)
          for dc in (2.0, 3.2, 5.0)]
    real_exact, real_scan = steady.exact_roots, steady.oracle_roots
    scanned = []

    def break_middle(resp):
        roots, failed = real_exact(resp)
        return roots, [None, "stub", None]

    def spy(sets, *a, **k):
        scanned.append(list(sets))
        return real_scan(sets, *a, **k)
    monkeypatch.setattr(steady, "exact_roots", break_middle)
    monkeypatch.setattr(steady, "oracle_roots", spy)
    sinks = [[], [], []]
    got = root_sets(ps, True, 4096, False, sinks)
    assert scanned == [[ps[1]]]
    assert got[1] == real_scan(ps[1])
    assert [d.kind for d in sinks[1]].count("scan-fallback") == 1
    assert "(stub)" in next(d.message for d in sinks[1]
                            if d.kind == "scan-fallback")
    assert not any(d.kind == "scan-fallback" for d in sinks[0] + sinks[2])
    # without the oracle the exact roots stand, and nothing is scanned
    scanned.clear()
    assert root_sets(ps, False, 4096, False, [[], [], []]) \
        == real_exact(RationalResponse.of(ps))[0]
    assert scanned == []


def test_oracle_off_takes_the_exact_roots(rng):
    ps = [random_system(rng) for _ in range(40)]
    on_sinks, off_sinks = [[] for _ in ps], [[] for _ in ps]
    on = solve_branches(ps, diagnostics=on_sinks)
    off = solve_branches(ps, oracle_mode=False, diagnostics=off_sinks)
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
