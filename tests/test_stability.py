"""Drift matrix structure and stability classification.

The drift matrix is cross-validated against a finite-difference Jacobian of
the classical mean-field equations: the linearization must agree with the
numerical derivative of the nonlinear flow at every reconstructed branch.
The real quadrature form is checked against the complex ladder-operator
drift matrix of conftest, mapped through the quadrature transform.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import (DriftMatrix, build_drift_matrix,
                      classify_branch_stability, classify_stability,
                      derive_linearized, solve_branches)
from quadmech.stability import GAMMA_FALLBACK_FACTOR

from conftest import (QUADRATURE_T, complex_drift_matrix, fd_jacobian,
                      linearized_reference, make_linearized, make_system,
                      random_linearized, record_at, table_rows)


def test_identity_matrix_stable():
    verdict = classify_stability(DriftMatrix(a=-np.eye(6)))
    assert verdict.stable
    assert verdict.margin == pytest.approx(1.0)
    assert verdict.eigenvalues.dtype == complex


def test_decoupled_diagonal_entries():
    # each uncoupled mode is a damped rotation of its (x, p) pair:
    # -rate on the diagonal, +/-frequency between x_j and p_j
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         delta_eff=0.7, omega1=1.0, omega2_tilde=1.3,
                         kappa=0.2, gamma1=1e-3, gamma2=2e-3)
    a = build_drift_matrix(lp).a
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
    a = build_drift_matrix(lp).a
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
        a = build_drift_matrix(lp).a
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
    return (x.eigenvalues.dtype == y.eigenvalues.dtype == complex
            and x.eigenvalues.tobytes() == y.eigenvalues.tobytes()
            and (x.max_real_part, x.stable, x.margin)
            == (y.max_real_part, y.stable, y.margin))


def test_fallback_damping_equals_rebuilt_matrices(rng):
    # the fallback verdicts of a stack of undamped branches are those of the
    # records rebuilt with gamma = 1e-6*kappa, eigenvalue for eigenvalue
    from conftest import random_system
    lps = []
    while len(lps) < 60:
        p = random_system(rng)
        p = make_system(**{**p.__dict__, "kappa": rng.uniform(0.2, 3.0)})
        lps += [derive_linearized(b, p) for b in solve_branches(p)]
    assert all(lp.gamma1 == 0.0 and lp.gamma2 == 0.0 for lp in lps)
    stack = classify_branch_stability(lps)
    verdicts = [record_at(stack, k) for k in range(len(lps))]
    assert all(v.gamma_fallback_applied for v in verdicts)
    assert all(_same_spectrum(v, _rebuilt_verdict(lp))
               for v, lp in zip(verdicts, lps))
    raw = classify_branch_stability(lps, gamma_fallback=False)
    assert any(v.eigenvalues.tobytes() != r.tobytes()
               for v, r in zip(verdicts, raw.eigenvalues))


def test_fallback_verdict_of_complex_g22_record():
    # with a complex g22 the squeezing term adds +/-2 Im(g22) to the x_2 and
    # p_2 diagonal entries, so the fallback must rebuild the record, not
    # overwrite the damping on the diagonal
    lp = make_linearized(gamma1=0.0, gamma2=0.0, g22=-0.01 + 0.004j)
    assert build_drift_matrix(lp).a[2, 2] == 2.0 * 0.004
    verdict = classify_branch_stability(lp)
    assert verdict.gamma_fallback_applied
    assert _same_spectrum(verdict, _rebuilt_verdict(lp))
    stacked = record_at(classify_branch_stability([lp, make_linearized()]), 0)
    assert _same_spectrum(stacked, verdict)


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
    """The branches of a few parameter sets, damped and undamped, with one
    per-branch parameter set each."""
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
    bs, owners = [], []
    for p, branches in zip(ps, solve_branches(ps)):
        bs += branches
        owners += [p] * len(branches)
    return bs, owners


@settings(max_examples=30, deadline=None)
@given(sets=branch_sets(), gamma_fallback=st.booleans())
def test_column_linearization_equals_per_branch(sets, gamma_fallback):
    bs, owners = sets
    cols = derive_linearized(bs, owners)
    ref = [linearized_reference(b, p) for b, p in zip(bs, owners)]
    for k, want in enumerate(ref):
        one = derive_linearized(bs[k], owners[k])
        for name in ("delta_eff", "omega1", "omega2_tilde", "g1_eff", "g2_eff",
                     "g22", "omega_ex", "theta", "kappa", "gamma1", "gamma2",
                     "nbar1", "nbar2"):
            assert repr(getattr(cols, name)[k].item()) == \
                repr(getattr(want, name)) == repr(getattr(one, name))
        assert one == want
    # a column record classifies as its list of scalar records does
    column = classify_branch_stability(cols, gamma_fallback)
    listed = classify_branch_stability(ref, gamma_fallback)
    assert len(column.stable) == len(listed.stable) == len(bs)
    for k, lp in enumerate(ref):
        a, b = record_at(column, k), record_at(listed, k)
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
    assert np.isrealobj(np.linalg.eigvals(build_drift_matrix(real_spectrum).a))
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
