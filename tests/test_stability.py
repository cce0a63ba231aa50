"""Drift matrix structure and stability classification.

The drift matrix is cross-validated against a finite-difference Jacobian of
the classical mean-field equations: the linearization must agree with the
numerical derivative of the nonlinear flow at every reconstructed branch.
The real quadrature form is checked against the complex ladder-operator
drift matrix of conftest, mapped through the quadrature transform.
"""
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import (build_drift_matrix, classify_branch_stability,
                      classify_stability, derive_linearized, solve_branches)
from quadmech.params import LinearizedParams, param_columns, take_columns
from quadmech.stability import (GAMMA_FALLBACK_FACTOR, STAB_TOL_FACTOR,
                                hurwitz_stable, spectra)

from conftest import (QUADRATURE_T, complex_drift_matrix, fd_jacobian,
                      linearized_reference, make_linearized, make_system,
                      random_linearized, record_at, table_rows)
from test_steady_state import any_systems


def test_identity_matrix_stable():
    a = -np.eye(6)
    verdict = classify_stability(a)
    a[:] = np.eye(6)    # the verdict keeps the matrix it judged
    assert verdict.stable
    assert verdict.margin == pytest.approx(1.0)
    assert verdict.eigenvalues.dtype == complex


@pytest.mark.parametrize("a", [-np.ones(s) for s in (
    (36,), (3, 12), (1, 36), (5, 5), (6, 7), (2, 2, 6, 6))]
    + [-np.eye(6) + 0j],
    ids=["36", "3x12", "1x36", "5x5", "6x7", "2x2x6x6", "complex"])
def test_classify_stability_rejects_non_drift_matrices(a):
    with pytest.raises(ValueError):
        classify_stability(a)


def test_decoupled_diagonal_entries():
    # each uncoupled mode is a damped rotation of its (x, p) pair:
    # -rate on the diagonal, +/-frequency between x_j and p_j
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         delta_eff=0.7, omega1=1.0, omega2_tilde=1.3,
                         kappa=0.2, gamma1=1e-3, gamma2=2e-3)
    a = build_drift_matrix(lp)
    assert a.dtype == float
    want = np.zeros((6, 6))
    for j, (rate, freq) in enumerate(((0.2, 0.7), (1e-3, 1.0), (2e-3, 1.3))):
        want[j, j] = want[j + 3, j + 3] = -rate
        want[j, j + 3], want[j + 3, j] = freq, -freq
    assert np.array_equal(a, want)


def test_zero_coupling_margin_is_min_rate():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         kappa=0.2, gamma1=1e-3, gamma2=2e-3)
    verdict = classify_stability(build_drift_matrix(lp))
    assert verdict.stable
    assert verdict.margin == pytest.approx(1e-3, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quadrature_block_structure_exact(data):
    draw = data.draw
    lp = make_linearized(
        delta_eff=draw(st.floats(-2, 2)),
        omega2_tilde=draw(st.floats(0.1, 3)),
        g1_eff=complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
        g2_eff=complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
        g22=complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
        omega_ex=draw(st.floats(0, 1)),
        theta=draw(st.floats(0, 2 * math.pi)),
        kappa=draw(st.floats(0.01, 2)),
        gamma1=draw(st.floats(0, 0.1)),
        gamma2=draw(st.floats(0, 0.1)),
    )
    a = build_drift_matrix(lp)
    assert a.dtype == float
    # R = T A T^dagger of the complex drift matrix, whose conjugation block
    # symmetry is what makes R real
    c = complex_drift_matrix(lp)
    assert np.array_equal(c[3:, 3:], np.conj(c[:3, :3]))
    assert np.array_equal(c[3:, :3], np.conj(c[:3, 3:]))
    mapped = QUADRATURE_T @ c @ QUADRATURE_T.conj().T
    assert np.max(np.abs(a - mapped)) <= 1e-15 * np.linalg.norm(c)
    assert a[0, 0] == a[3, 3] == -lp.kappa
    assert a[1, 1] == a[4, 4] == -lp.gamma1
    assert a[2, 2] == -lp.gamma2 + 2.0 * lp.g22.imag
    assert a[5, 5] == -lp.gamma2 - 2.0 * lp.g22.imag


def test_trace_identity(rng):
    for _ in range(100):
        lp = random_linearized(rng)
        a = build_drift_matrix(lp)
        expected = -2.0 * (lp.kappa + lp.gamma1 + lp.gamma2)
        assert np.trace(a).real == pytest.approx(expected, rel=1e-12)
        assert abs(np.trace(a).imag) <= 1e-12 * max(1.0, abs(expected))


def test_eigenvalue_conjugate_pairing(rng):
    for _ in range(50):
        lp = random_linearized(rng)
        ev = classify_stability(build_drift_matrix(lp)).eigenvalues
        scale = np.max(np.abs(ev))
        for lam in ev:
            assert np.min(np.abs(ev - np.conj(lam))) <= 1e-8 * max(1.0, scale)


def test_theta_reversal_conjugates_spectrum(rng):
    for _ in range(25):
        lp = random_linearized(rng)
        ev1 = classify_stability(build_drift_matrix(lp)).eigenvalues
        lp2 = make_linearized(**{**lp.__dict__, "theta": -lp.theta})
        ev2 = classify_stability(build_drift_matrix(lp2)).eigenvalues
        np.testing.assert_allclose(np.sort(ev1.real), np.sort(ev2.real),
                                   rtol=1e-9, atol=1e-12)
        scale = max(1.0, float(np.max(np.abs(ev1))))
        for lam in ev1:   # spectrum maps to its conjugate, pairing-free check
            assert np.min(np.abs(np.conj(ev2) - lam)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# derive_linearized
# ---------------------------------------------------------------------------

def test_derive_linearized_g2_zero():
    p = make_system(g2=0.0, eta=56.5, omega_ex=0.2, delta_c=3.2)
    branch = solve_branches(p)[0]
    lp = derive_linearized(branch, p)
    assert lp.g2_eff == 0.0
    assert lp.g22 == 0.0
    assert lp.omega2_tilde == p.omega2
    assert lp.origin == "branch-derived"
    assert abs(lp.g1_eff) == pytest.approx(p.g1 * math.sqrt(branch.n_p), rel=1e-9)
    assert lp.delta_eff == branch.delta_eff


def test_derive_linearized_decoupled():
    p = make_system(g1=0.0, g2=0.0, delta_c=2.0, eta=10.0)
    (branch,) = solve_branches(p)
    lp = derive_linearized(branch, p)
    assert lp.g1_eff == 0.0 and lp.g2_eff == 0.0 and lp.g22 == 0.0


# ---------------------------------------------------------------------------
# independent cross-check: finite-difference Jacobian of the classical flow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(g2=0.0, eta=56.5, omega_ex=0.2, delta_c=3.2),
    dict(eta=95.0, delta_c=5.0),
    dict(eta=56.5, omega_ex=0.005, delta_c=3.2),
    dict(delta_c=6.0, eta=80.0),                      # seven-branch window
])
def test_drift_matrix_matches_fd_jacobian(kw):
    p = make_system(gamma1=1e-4, gamma2=2e-4, **kw)
    for branch in solve_branches(p):
        lp = derive_linearized(branch, p)
        ev_a = np.sort(classify_stability(build_drift_matrix(lp)).eigenvalues.real)
        state = (branch.alpha, branch.beta1, branch.beta2)
        ev_j = np.sort(np.linalg.eigvals(fd_jacobian(p, state)).real)
        np.testing.assert_allclose(ev_a, ev_j, rtol=2e-5, atol=2e-5)


# ---------------------------------------------------------------------------
# branch verdicts at reference points
# ---------------------------------------------------------------------------

def test_fig2c_window_stability_split():
    p = make_system(g2=0.0, eta=45.0, delta_c=2.15)
    branches = solve_branches(p)
    assert len(branches) == 3
    verdicts = [classify_branch_stability(derive_linearized(b, p)).stable
                for b in branches]
    assert verdicts == [True, False, True]


def test_gamma_fallback_flag():
    p = make_system(g2=0.0, eta=45.0, delta_c=2.15)
    branch = solve_branches(p)[0]
    verdict = classify_branch_stability(derive_linearized(branch, p))
    assert verdict.gamma_fallback_applied
    q = make_system(g2=0.0, eta=45.0, delta_c=2.15, gamma1=1e-5, gamma2=1e-5)
    branch = solve_branches(q)[0]
    verdict = classify_branch_stability(derive_linearized(branch, q))
    assert not verdict.gamma_fallback_applied


def test_gamma_fallback_needs_both_dampings_exactly_zero():
    # the fallback replaces an exactly-zero damping; a negative one is not
    # zero, and -0.0 is
    for g1, applied in ((-1e-3, False), (1e-3, False), (-0.0, True),
                        (0.0, True)):
        lp = make_linearized(gamma1=g1, gamma2=0.0)
        assert classify_branch_stability(lp).gamma_fallback_applied is applied


def test_fig7d_point_is_stable():
    lp = make_linearized()
    assert classify_stability(build_drift_matrix(lp)).stable


def test_fig3b_upper_branches_destabilize():
    # At this drive, 7 algebraic branches coexist but only the lowest is
    # dynamically stable; the six upper branches have eigenvalues with large
    # positive real parts.  test_drift_matrix_matches_fd_jacobian checks these
    # spectra at this point against a finite-difference Jacobian of the
    # nonlinear flow.  Four of the seven roots lie on descending pieces of the
    # S-curve, so the quasi-static slope rule would call four stable; see
    # acceptance criterion 5 and LEDGER.md.
    p = make_system(delta_c=6.0, eta=80.0)
    branches = solve_branches(p)
    assert len(branches) == 7
    verdicts = [classify_branch_stability(derive_linearized(b, p))
                for b in branches]
    assert sum(v.stable for v in verdicts) == 1
    assert verdicts[0].stable
    assert all(v.max_real_part > 1.0 for v in verdicts[1:])


def _rebuilt_verdict(lp):
    """Verdict of the record rebuilt with the fallback damping."""
    eps = GAMMA_FALLBACK_FACTOR * lp.kappa
    return classify_stability(build_drift_matrix(replace(lp, gamma1=eps,
                                                         gamma2=eps)))


def _same_spectrum(x, y) -> bool:
    """Same spectral fields and verdicts, with ``x.stable`` held to the
    eigenvalue verdict of its own drift matrix."""
    return (x.eigenvalues.dtype == y.eigenvalues.dtype == complex
            and x.stable == spectra(x.drift)[2]
            and x.eigenvalues.tobytes() == y.eigenvalues.tobytes()
            and (x.max_real_part, x.stable, x.margin)
            == (y.max_real_part, y.stable, y.margin))


def test_fallback_verdict_of_complex_g22_record():
    # with a complex g22 the squeezing term adds +/-2 Im(g22) to the x_2 and
    # p_2 diagonal entries, so the fallback subtracts eps from those entries
    # rather than overwriting them with -eps: the matrix of the record
    # rebuilt with the fallback damping
    lp = make_linearized(gamma1=0.0, gamma2=0.0, g22=-0.01 + 0.004j)
    assert build_drift_matrix(lp)[2, 2] == 2.0 * 0.004
    verdict = classify_branch_stability(lp)
    assert verdict.gamma_fallback_applied
    assert _same_spectrum(verdict, _rebuilt_verdict(lp))
    stacked = record_at(classify_branch_stability([lp, make_linearized()]), 0)
    assert _same_spectrum(stacked, verdict)


@st.composite
def undamped_records(draw):
    """Undamped linearized records with complex couplings and g22, and
    dampings of 0.0 or -0.0."""
    f = st.floats(-2.0, 2.0)
    return [make_linearized(
        delta_eff=draw(f), omega1=draw(f), omega2_tilde=draw(f),
        g1_eff=complex(draw(f), draw(f)), g2_eff=complex(draw(f), draw(f)),
        g22=complex(draw(f), draw(f)), omega_ex=draw(f),
        theta=draw(st.floats(0.0, 2 * math.pi)),
        kappa=draw(st.floats(1e-3, 3.0)),
        gamma1=draw(st.sampled_from([0.0, -0.0])),
        gamma2=draw(st.sampled_from([0.0, -0.0])))
        for _ in range(draw(st.integers(1, 5)))]


def _fallback_rows_are_rebuilt(cols, verdict) -> int:
    """Assert that the verdict's fallback rows of the column record ``cols``
    are the matrices rebuilt with gamma1 = gamma2 = eps, byte for byte;
    return how many there are."""
    rows = np.flatnonzero(verdict.gamma_fallback_applied)
    sub = take_columns(cols, rows)
    eps = GAMMA_FALLBACK_FACTOR * sub.kappa
    rebuilt = build_drift_matrix(replace(sub, gamma1=eps, gamma2=eps))
    assert verdict.drift[rows].tobytes() == rebuilt.tobytes()
    return len(rows)


@functools.lru_cache(maxsize=None)
def _random_undamped_branches() -> tuple:
    """Linearized records of 60 or more branches of random undamped
    systems."""
    from conftest import random_system
    rng, lps = np.random.default_rng(20240817), []
    while len(lps) < 60:
        p = random_system(rng)
        p = make_system(**{**p.__dict__, "kappa": rng.uniform(0.2, 3.0)})
        lps += [derive_linearized(b, p) for b in solve_branches(p)]
    return tuple(lps)


@settings(max_examples=50, deadline=None)
@given(drawn=undamped_records())
def test_fallback_damping_equals_rebuilt_matrices(drawn):
    # the fallback verdicts of a stack of undamped branches and drawn records
    # are those of the records rebuilt with gamma = 1e-6*kappa: the fallback
    # rows are the undamped rows less eps on the damping diagonal, byte for
    # byte, since IEEE addition commutes (-eps + 2 Im g22 is 2 Im g22 - eps)
    # and zeros of either sign drop out
    lps = list(_random_undamped_branches()) + drawn
    assert all(lp.gamma1 == 0.0 and lp.gamma2 == 0.0 for lp in lps)
    stack = classify_branch_stability(lps)
    assert _fallback_rows_are_rebuilt(param_columns(lps)[0], stack) == len(lps)
    verdicts = [record_at(stack, k) for k in range(len(lps))]
    assert all(v.gamma_fallback_applied for v in verdicts)
    assert all(_same_spectrum(v, _rebuilt_verdict(lp))
               for v, lp in zip(verdicts, lps))
    raw = classify_branch_stability(lps, gamma_fallback=False)
    assert any(v.eigenvalues.tobytes() != r.tobytes()
               for v, r in zip(verdicts, raw.eigenvalues))


def test_figure_fallback_rows_equal_rebuilt_matrices(monkeypatch):
    # the same identity on the branch stacks of a multistable figure recipe
    import quadmech.sweep as sweep
    from quadmech import run_recipe
    rows = []

    def spy(lps, gamma_fallback=True):
        verdict = classify_branch_stability(lps, gamma_fallback)
        rows.append(_fallback_rows_are_rebuilt(lps, verdict))
        return verdict
    monkeypatch.setattr(sweep, "classify_branch_stability", spy)
    run_recipe("fig3d", points=11)
    assert rows and sum(rows) > 0


def test_branch_verdicts_build_one_drift_stack_and_cool_from_it(monkeypatch):
    # a batch of damped and undamped cells: its verdict builds one drift
    # stack, whose undamped rows take the fallback, and branch_rows solves
    # the Lyapunov system of its cooled rows from that stack
    import quadmech.stability as stability
    import quadmech.sweep as sweep
    from quadmech import Axis, SweepSpec, run_sweep
    built, verdicts, cooled = [], [], []
    build, classify = stability.build_drift_matrix, classify_branch_stability

    def built_once(lp):
        built.append(len(lp.kappa))
        return build(lp)

    def classified(lps, gamma_fallback=True):
        verdicts.append(classify(lps, gamma_fallback))
        return verdicts[-1]
    monkeypatch.setattr(stability, "build_drift_matrix", built_once)
    monkeypatch.setattr(sweep, "classify_branch_stability", classified)
    monkeypatch.setattr(sweep, "cool_linearized", lambda *a: cooled.append(a))
    result = run_sweep(SweepSpec(
        axes=(Axis("gamma1", 0.0, 2e-5, 3),), mode="root-count",
        base=make_system(delta_c=3.2, g2=0.0, omega_ex=0.2, eta=56.5)))
    (verdict,) = verdicts
    assert built == [len(verdict.stable)] and cooled == []
    assert verdict.gamma_fallback_applied.any()
    assert result.table.present["n1f"].any()


def test_spectral_fields_take_one_eigenvalue_call_when_read(monkeypatch):
    # a verdict decides by Routh's test; its eigenvalues, largest real parts
    # and margins come from one stacked call on first read, and are kept
    cells = [make_linearized(), make_linearized(gamma1=0.0, gamma2=0.0),
             make_linearized(delta_eff=-1.0)]
    a = build_drift_matrix(param_columns(cells)[0])
    sent = []
    _counting_spectra(monkeypatch, sent)
    for verdict in (classify_branch_stability(cells), classify_stability(a),
                    classify_stability(a[0])):
        assert sent == []
        fields = (verdict.eigenvalues, verdict.max_real_part, verdict.margin)
        assert len(sent) == 1 and sent.pop().tobytes() == \
            verdict.drift.tobytes()
        assert all(x is y for x, y in zip(fields, (
            verdict.eigenvalues, verdict.max_real_part, verdict.margin)))
        assert sent == []


def test_branch_cooling_sweep_honours_gamma_fallback(monkeypatch):
    # undamped, with the second mode decoupled: its eigenvalues sit on the
    # margin, so the raw verdicts are unstable where the fallback's are not
    import quadmech.sweep as sweep
    from quadmech import branch_cooling_sweep
    real = sweep.classify_branch_stability
    seen = []

    def spy(lps, gamma_fallback=True):
        seen.append((lps, gamma_fallback))
        return real(lps, gamma_fallback)
    monkeypatch.setattr(sweep, "classify_branch_stability", spy)
    rows = table_rows(branch_cooling_sweep(make_system(g2=0.0, omega_ex=0.0),
                                           np.array([0.2, 0.4]),
                                           gamma_fallback=False))
    ((lps, flag),) = seen           # one column record of every branch
    assert flag is False and len(lps.kappa) == len(rows) > 0
    assert not any(r["stable"] or r["n1f"] is not None for r in rows)
    fallback = real(lps, True)
    assert any(fallback.stable & fallback.verdict_flipped)


@st.composite
def branch_sets(draw):
    """A few parameter sets, damped and undamped, and the Branches record
    of their branches."""
    ps = [make_system(
        delta_c=draw(st.floats(0.0, 10.0)),
        g1=draw(st.sampled_from([0.0, 0.05, 0.08])),
        g2=draw(st.sampled_from([0.0, -0.0004, -0.0001])),
        omega_ex=draw(st.sampled_from([0.0, 0.2, 1.0])),
        theta=draw(st.floats(0.0, 2.0 * math.pi)),
        eta=draw(st.floats(10.0, 100.0)),
        gamma1=draw(st.sampled_from([0.0, 1e-5])),
        gamma2=draw(st.sampled_from([0.0, 2e-5])))
        for _ in range(draw(st.integers(1, 4)))]
    return ps, solve_branches(ps)


@settings(max_examples=30, deadline=None)
@given(sets=branch_sets(), gamma_fallback=st.booleans())
def test_column_linearization_equals_per_branch(sets, gamma_fallback):
    ps, record = sets
    cols = derive_linearized(record, ps)
    # the record's entries are the branches each set solved alone has
    bs = [b for p in ps for b in solve_branches(p)]
    owners = [ps[k] for k in record.owner.tolist()]
    assert repr(bs) == repr([record.branch(k)
                             for k in range(len(record.n_p))])
    ref = [linearized_reference(b, p) for b, p in zip(bs, owners)]
    for k, want in enumerate(ref):
        one = derive_linearized(bs[k], owners[k])
        for name in ("delta_eff", "omega1", "omega2_tilde", "g1_eff", "g2_eff",
                     "g22", "omega_ex", "theta", "kappa", "gamma1", "gamma2",
                     "nbar1", "nbar2"):
            assert repr(getattr(cols, name)[k].item()) == \
                repr(getattr(want, name)) == repr(getattr(one, name))
        assert one == want
    # a column record classifies as its list of scalar records does, and
    # the spectral fields, read lazily, are those of the eigenvalue call on
    # each record's drift matrix (rebuilt with the fallback damping if used)
    column = classify_branch_stability(cols, gamma_fallback)
    listed = classify_branch_stability(ref, gamma_fallback)
    assert len(column.stable) == len(listed.stable) == len(bs)
    for k, lp in enumerate(ref):
        a, b = record_at(column, k), record_at(listed, k)
        eager = (_rebuilt_verdict(lp) if a.gamma_fallback_applied
                 else classify_stability(build_drift_matrix(lp)))
        assert a.gamma_fallback_applied == (
            gamma_fallback and lp.gamma1 == lp.gamma2 == 0.0)
        assert _same_spectrum(a, eager)
        for c in (b, classify_branch_stability(lp, gamma_fallback)):
            assert a.eigenvalues.dtype == c.eigenvalues.dtype == complex
            assert a.eigenvalues.tobytes() == c.eigenvalues.tobytes()
            assert (a.max_real_part, a.stable, a.margin,
                    a.gamma_fallback_applied, a.verdict_flipped) == \
                (c.max_real_part, c.stable, c.margin,
                 c.gamma_fallback_applied, c.verdict_flipped)


def test_mixed_real_and_complex_spectra_equal_single_cells():
    # a real eigenvalue call returns a float array when every eigenvalue of
    # its stack is real; the verdicts' eigenvalues are complex either way, so
    # a cell's verdict does not depend on the stack it shares
    real_spectrum = make_linearized(delta_eff=0.0, omega1=0.0,
                                    omega2_tilde=0.0, g1_eff=0.1, g2_eff=0.0,
                                    g22=0.0, omega_ex=0.0)
    assert np.isrealobj(np.linalg.eigvals(build_drift_matrix(real_spectrum)))
    cells = [real_spectrum, make_linearized(), real_spectrum,
             make_linearized(delta_eff=-1.0)]
    single = [classify_branch_stability(lp) for lp in cells]
    for stack in (cells, cells[:1] + cells[2:3], cells[1:2]):
        got = classify_branch_stability(stack)
        want = [single[cells.index(lp)] for lp in stack]
        assert all(_same_spectrum(record_at(got, k), w)
                   for k, w in enumerate(want))
    assert [v.stable for v in single] == [True, True, True, False]


def test_branch_cooling_skips_flipped_verdicts():
    # undamped, with the second mode decoupled: the fallback calls the lowest
    # branches stable, but the undamped Lyapunov system is singular there
    from quadmech import branch_cooling_sweep
    diags = []
    rows = table_rows(branch_cooling_sweep(make_system(g2=0.0, omega_ex=0.0),
                                           np.array([0.2, 0.4]),
                                           diagnostics=diags))
    flipped = [d for d in diags if d.kind == "marginal-verdict"]
    assert len(flipped) == sum(r["stable"] for r in rows) > 0
    assert {d.cell for d in flipped} == {(0.2,), (0.4,)}
    assert all(r["n1f"] is None and r["n2f"] is None for r in rows)


# ---------------------------------------------------------------------------
# Hurwitz verdicts: Routh's test, with spectra for the cells it cannot settle
# ---------------------------------------------------------------------------

def _routh_cells(rng, n) -> np.ndarray:
    """A drift stack of n cells: complex g1_eff and g22 phases on about half,
    undamped cells on a fifth, and near-margin cells on a third, whose
    diagonal is shifted to put their largest real part within about
    +-1e-7 kappa of the threshold -STAB_TOL_FACTOR*kappa."""
    u = rng.uniform
    phase = np.exp(1j * u(0.0, 2 * math.pi, (2, n))
                   * (rng.random((2, n)) < 0.5))
    undamped = rng.random(n) < 0.2
    kappa = u(0.05, 0.5, n)
    gamma = np.where(undamped, 0.0, 10 ** u(-6.0, -3.0, (2, n)))
    a = build_drift_matrix(LinearizedParams(
        delta_eff=u(-1.5, 1.5, n), omega1=u(0.8, 1.2, n),
        omega2_tilde=u(0.8, 1.2, n), g1_eff=u(0.0, 0.2, n) * phase[0],
        g2_eff=-u(0.0, 0.2, n), g22=-u(0.0, 0.2, n) * phase[1],
        omega_ex=u(0.0, 0.2, n), theta=u(0.0, 2 * math.pi, n), kappa=kappa,
        gamma1=gamma[0], gamma2=gamma[1], nbar1=np.zeros(n),
        nbar2=np.zeros(n)))
    # R + sigma I has kappa - sigma on its cavity diagonal: solve
    # max Re + sigma = (delta - t)(kappa - sigma) for sigma
    near = np.flatnonzero(rng.random(n) < 1 / 3)
    delta, t = u(-1e-7, 1e-7, len(near)), STAB_TOL_FACTOR
    sigma = (((delta - t) * kappa[near] - spectra(a[near])[1])
             / (1.0 + delta - t))
    a[near] += sigma[:, None, None] * np.eye(6)
    return a


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120))
def test_hurwitz_verdict_equals_spectra(seed, n):
    # cell for cell, including near-margin, undamped and complex-phase cells
    # and the empty stack; a cell's verdict does not depend on its stack
    a = _routh_cells(np.random.default_rng(seed), n)
    stable = hurwitz_stable(a)
    assert stable.shape == (n,) and stable.dtype == bool
    assert np.array_equal(stable, spectra(a)[2])
    assert all(hurwitz_stable(a[k:k + 1])[0] == stable[k] for k in range(n))


def test_hurwitz_draws_reach_the_margin():
    # the draws above hold stable and unstable cells, cells within 1e-7
    # kappa of the threshold, and cells Routh's test leaves to spectra
    a = _routh_cells(np.random.default_rng(16), 600)
    _, max_re, stable = spectra(a)
    gap = np.abs(max_re - STAB_TOL_FACTOR * a[:, 0, 0]) / -a[:, 0, 0]
    assert stable.any() and (~stable).any()
    assert np.sum(gap < 1e-7) > 100
    sent = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_spectra(mp, sent)
        assert np.array_equal(hurwitz_stable(a), stable)
    assert 0 < len(sent[0]) < len(a)


def _counting_spectra(mp, sent: list) -> None:
    """Record each stack the Routh test hands to ``spectra``."""
    import quadmech.stability as stability

    def counted(a):
        sent.append(a.copy())
        return spectra(a)
    mp.setattr(stability, "spectra", counted)


def test_unsettled_routh_cells_take_the_eigenvalue_call(monkeypatch):
    # a decoupled mechanical mode damped exactly at the threshold sits on
    # the margin of the shifted matrix: its Routh entries cannot be trusted,
    # so that cell alone goes to spectra and gets its verdict
    t = STAB_TOL_FACTOR
    cells = [make_linearized(), make_linearized(delta_eff=-1.0),
             make_linearized(g1_eff=0.0, omega_ex=0.0, gamma1=t * 0.1),
             make_linearized(gamma1=0.0, gamma2=0.0)]
    a = build_drift_matrix(param_columns(cells)[0])
    sent = []
    _counting_spectra(monkeypatch, sent)
    stable = hurwitz_stable(a)
    assert len(sent) == 1 and np.array_equal(sent[0], a[2:3])
    assert list(stable) == list(spectra(a)[2]) == [True, False, True, True]


def test_figure_planes_send_few_matrices_to_the_eigenvalue_call(monkeypatch):
    # perf guard: the fig2a, fig2b and fig3c planes and the fig5-fig7 cooling
    # maps at 21x21 send at most the counts LEDGER.md records ("Hurwitz
    # verdicts on the steady side") to spectra; lazily read spectral fields
    # are never needed on the way; a cooling map classifies its cells inside
    # the Lyapunov solve
    import quadmech.cooling as cooling
    import quadmech.stability as stability
    from quadmech import run_recipe
    classified = []
    routh = stability.hurwitz_stable

    def counted(a):
        classified.append(len(a))
        return routh(a)
    monkeypatch.setattr(stability, "hurwitz_stable", counted)
    monkeypatch.setattr(cooling, "hurwitz_stable", counted)
    for tag, bound, least in (("fig2a", 49, 2501), ("fig2b", 34, 2501),
                              ("fig3c", 126, 2501), ("fig5", 0, 441),
                              ("fig6", 14, 441), ("fig7", 0, 441)):
        sent, classified[:] = [], []
        with pytest.MonkeyPatch.context() as mp:
            _counting_spectra(mp, sent)
            run_recipe(tag, points=21)
        assert sum(classified) >= least
        assert sum(len(x) for x in sent) <= bound


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(any_systems(), min_size=1, max_size=6),
       gamma_fallback=st.booleans())
def test_stable_branches_have_a_positive_drift_determinant(ps, gamma_fallback):
    # a stable real 6x6 matrix has its eigenvalues in the left half-plane,
    # the complex ones in conjugate pairs and so an even number of real
    # ones: its determinant is positive.  Rows scaled to unit norm keep the
    # determinant's sign and bound it by 1 (Hadamard); LU's backward error
    # then bounds its rounding by n^4 eps times the growth factor, at most
    # 2^(n-1), and only rows inside that bound are skipped
    verdict = classify_branch_stability(
        derive_linearized(solve_branches(ps), ps), gamma_fallback)
    a = verdict.drift[verdict.stable]
    det = np.linalg.det(a / np.linalg.norm(a, axis=2, keepdims=True))
    clear = np.abs(det) > 6**4 * 2**5 * np.finfo(float).eps
    assert (det[clear] > 0.0).all()
