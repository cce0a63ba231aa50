"""Drift matrix structure and stability classification.

The drift matrix is cross-validated against a finite-difference Jacobian of
the classical mean-field equations: the linearization must agree with the
numerical derivative of the nonlinear flow at every reconstructed branch.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import (DriftMatrix, build_drift_matrix,
                      classify_branch_stability, classify_stability,
                      derive_linearized, solve_branches)

from conftest import (fd_jacobian, linearized_reference, make_linearized,
                      make_system, random_linearized)


def test_identity_matrix_stable():
    verdict = classify_stability(DriftMatrix(a=-np.eye(6, dtype=complex)))
    assert verdict.stable
    assert verdict.margin == pytest.approx(1.0)


def test_decoupled_diagonal_entries():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         delta_eff=0.7, omega1=1.0, omega2_tilde=1.3,
                         kappa=0.2, gamma1=1e-3, gamma2=2e-3)
    a = build_drift_matrix(lp).a
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) == 0.0
    assert a[0, 0] == -(0.2 + 0.7j)
    assert a[1, 1] == -(1e-3 + 1j)
    assert a[2, 2] == -(2e-3 + 1.3j)
    assert a[3, 3] == np.conj(a[0, 0])


def test_zero_coupling_margin_is_min_rate():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         kappa=0.2, gamma1=1e-3, gamma2=2e-3)
    verdict = classify_stability(build_drift_matrix(lp))
    assert verdict.stable
    assert verdict.margin == pytest.approx(1e-3, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_conjugation_block_symmetry_exact(data):
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
    assert np.array_equal(a[3:, 3:], np.conj(a[:3, :3]))
    assert np.array_equal(a[3:, :3], np.conj(a[:3, 3:]))
    assert a[0, 0].real == -lp.kappa
    assert a[1, 1].real == -lp.gamma1
    assert a[2, 2].real == -lp.gamma2


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


def test_fallback_damping_equals_rebuilt_matrices(rng):
    # the fallback stack is the raw stack with the mechanical damping set;
    # it must equal drift matrices rebuilt with gamma = 1e-6*kappa, bit for bit
    from dataclasses import replace

    from quadmech.stability import GAMMA_FALLBACK_FACTOR, _fallback_damped

    from conftest import random_system
    lps = []
    while len(lps) < 60:
        p = random_system(rng)
        p = make_system(**{**p.__dict__, "kappa": rng.uniform(0.2, 3.0)})
        lps += [derive_linearized(b, p) for b in solve_branches(p)]
    assert all(lp.gamma1 == 0.0 and lp.gamma2 == 0.0 for lp in lps)
    raw = np.stack([build_drift_matrix(lp).a for lp in lps])
    rebuilt = np.stack([build_drift_matrix(replace(
        lp, gamma1=GAMMA_FALLBACK_FACTOR * lp.kappa,
        gamma2=GAMMA_FALLBACK_FACTOR * lp.kappa)).a for lp in lps])
    damped = _fallback_damped(raw, [lp.kappa for lp in lps])
    assert np.array_equal(damped, rebuilt)
    assert damped.tobytes() == rebuilt.tobytes()
    assert not np.array_equal(damped, raw)


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
    rows = branch_cooling_sweep(make_system(g2=0.0, omega_ex=0.0),
                                np.array([0.2, 0.4]), gamma_fallback=False)
    ((lps, flag),) = seen           # one column record of every branch
    assert flag is False and len(lps.kappa) == len(rows) > 0
    assert not any(r["stable"] or r["n1f"] is not None for r in rows)
    assert any(v.stable and v.verdict_flipped for v in real(lps, True))


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
    assert len(column) == len(listed) == len(bs)
    for a, b in zip(column, listed):
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert (a.max_real_part, a.stable, a.margin, a.gamma_fallback_applied,
                a.verdict_flipped) == (b.max_real_part, b.stable, b.margin,
                                       b.gamma_fallback_applied,
                                       b.verdict_flipped)


def test_branch_cooling_skips_flipped_verdicts():
    # undamped, with the second mode decoupled: the fallback calls the lowest
    # branches stable, but the undamped Lyapunov system is singular there
    from quadmech import branch_cooling_sweep
    diags = []
    rows = branch_cooling_sweep(make_system(g2=0.0, omega_ex=0.0),
                                np.array([0.2, 0.4]), diagnostics=diags)
    flipped = [d for d in diags if d.kind == "marginal-verdict"]
    assert len(flipped) == sum(r["stable"] for r in rows) > 0
    assert {d.cell for d in flipped} == {(0.2,), (0.4,)}
    assert all(r["n1f"] is None and r["n2f"] is None for r in rows)
