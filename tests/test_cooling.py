"""Noise model, Lyapunov covariance, phonon extraction, dark-mode diagnostics.

Phonon numbers are cross-validated against an independent frequency-domain
quadrature of the resolvent (the stationary second moments as a spectral
integral), which never touches the Lyapunov solver, and against the complex
ladder-operator Lyapunov equation of conftest's builders, solved by
Bartels-Stewart.
"""
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadmech import (CovarianceResult, DriftMatrix, NoiseModel,
                      build_drift_matrix, build_noise_model,
                      classify_stability, cool_linearized,
                      dark_mode_diagnostics, phonon_numbers, solve_lyapunov)
from quadmech.cooling import (LYAP_BLOCK, UnphysicalResult, ZeroCoupling,
                              _lyapunov_operator)
from quadmech.params import linearized_columns

from conftest import (QUADRATURE_T, complex_drift_matrix, complex_noise,
                      make_linearized, random_linearized, record_at,
                      spectral_phonons)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_noise_entries_and_sparsity():
    lp = make_linearized(kappa=0.3, gamma1=1e-3, gamma2=2e-3,
                         nbar1=7.0, nbar2=11.0)
    nm = build_noise_model(lp)
    rates = [0.3, 1e-3 * 15.0, 2e-3 * 23.0]
    np.testing.assert_array_equal(nm.q, np.diag(rates + rates))
    # the quadrature map of the symmetrized ladder-operator bath matrix
    q = complex_noise(lp)[1]
    mapped = QUADRATURE_T @ q @ QUADRATURE_T.T
    np.testing.assert_allclose(mapped, nm.q, rtol=0, atol=1e-15 * 0.3)


def test_noise_vacuum_cavity_only():
    lp = make_linearized(kappa=1.0, gamma1=0.0, gamma2=0.0)
    nm = build_noise_model(lp)
    assert nm.q[0, 0] == 1.0 and nm.q[3, 3] == 1.0
    assert np.count_nonzero(nm.q) == 2


def test_noise_thermal_occupancy_300():
    lp = make_linearized(gamma1=2e-6, nbar1=300.0)
    nm = build_noise_model(lp)
    assert nm.q[1, 1] == nm.q[4, 4] == pytest.approx(2e-6 * 601.0,
                                                     rel=1e-15)


def test_noise_all_rates_zero():
    from quadmech import LinearizedParams
    dead = LinearizedParams(delta_eff=0, omega1=1, omega2_tilde=1, g1_eff=0,
                            g2_eff=0, g22=0, omega_ex=0, theta=0, kappa=0.0,
                            gamma1=0.0, gamma2=0.0)
    nm = build_noise_model(dead)
    assert np.count_nonzero(nm.q) == 0


# ---------------------------------------------------------------------------
# Lyapunov solve
# ---------------------------------------------------------------------------

def test_scalar_analogue_v_equals_q(rng):
    a = DriftMatrix(a=-0.5 * np.eye(6))
    sym = rng.normal(size=(6, 6))
    sym = 0.5 * (sym + sym.T)
    cov = solve_lyapunov(a, NoiseModel(q=sym))
    np.testing.assert_allclose(cov.v, sym, rtol=1e-12, atol=1e-12)
    assert cov.physical


def test_thermal_equilibrium_limit(rng):
    for _ in range(50):
        lp = random_linearized(rng, couplings_zero=True)
        cov = cool_linearized(lp)
        assert cov.physical
        assert cov.n1f == pytest.approx(lp.nbar1, rel=1e-10, abs=1e-10)
        assert cov.n2f == pytest.approx(lp.nbar2, rel=1e-10, abs=1e-10)


def test_lyapunov_residual_small(rng):
    solved = 0
    while solved < 60:
        lp = random_linearized(rng)
        cov = cool_linearized(lp)
        if not cov.physical:
            continue
        solved += 1
        assert cov.lyap_residual < 1e-10


def test_lyap_residual_above_bound_is_reported():
    from quadmech.cooling import LYAP_RESIDUAL_TOL, flag_residuals
    cov = cool_linearized([make_linearized(), make_linearized(kappa=0.2)])
    sinks = [[], []]
    flag_residuals(cov.lyap_residual, sinks)
    assert sinks == [[], []]
    loose = cov.lyap_residual.copy()
    loose[1] = 100.0 * LYAP_RESIDUAL_TOL
    flag_residuals(loose, sinks)
    assert sinks[0] == [] and [d.kind for d in sinks[1]] == ["lyap-residual"]


def test_lyap_residual_diagnostic_on_every_cooled_row(monkeypatch, tmp_path):
    # with the bound below any residual, every row built from a Lyapunov
    # solve carries a lyap-residual diagnostic: sweeps, recipes and the CLI
    import quadmech.cooling as cooling
    from quadmech import Axis, SweepSpec, branch_cooling_sweep, run_sweep
    from quadmech.cli import main

    from conftest import make_system, table_rows
    monkeypatch.setattr(cooling, "LYAP_RESIDUAL_TOL", -1.0)
    res = run_sweep(SweepSpec(axes=(Axis("kappa", 0.05, 0.5, 3),),
                              base=make_linearized(), mode="cooling"))
    assert [d.cell for d in res.diagnostics
            if d.kind == "lyap-residual"] == [(0,), (1,), (2,)]

    diags = []
    rows = table_rows(branch_cooling_sweep(
        make_system(g2=0.0, eta=56.5, omega_ex=0.2, delta_c=3.2,
                    gamma1=1e-5, gamma2=1e-5, nbar1=300.0, nbar2=300.0),
        np.array([0.2, 0.3]), diagnostics=diags))
    cooled = [r for r in rows if r["n1f"] is not None]
    assert cooled
    assert sum(d.kind == "lyap-residual" for d in diags) == len(cooled)

    cfg = tmp_path / "cool.ini"
    cfg.write_text("[linearized]\n" + "".join(
        f"{k} = {v}\n" for k, v in make_linearized().__dict__.items()))
    out = tmp_path / "cool.csv"
    assert main(["cool", "--config", str(cfg), "--out", str(out)]) == 0
    side = out.with_suffix(".csv.diagnostics.txt").read_text()
    assert side.startswith("lyap-residual")


def test_hermitian_consistency(rng):
    # V is real symmetric; mapped back to the ladder operators, the
    # symmetrized <b+ b + b b+>/2 is V_u[4,1] = V_u[1,4]*
    t = QUADRATURE_T
    solved = 0
    while solved < 30:
        lp = random_linearized(rng)
        cov = cool_linearized(lp)
        if not cov.physical:
            continue
        solved += 1
        assert cov.v.dtype == float and np.array_equal(cov.v, cov.v.T)
        v = t.conj().T @ cov.v @ t.conj()
        scale = max(1.0, np.max(np.abs(v)))
        assert abs(v[4, 1] - np.conj(v[1, 4])) <= 1e-8 * scale
        assert abs(v[5, 2] - np.conj(v[2, 5])) <= 1e-8 * scale


def test_phonon_extraction_from_quadratures():
    # n = (V_xx + V_pp - 1)/2, exactly the occupations of the solve
    lp = make_linearized()
    cov = cool_linearized(lp)
    assert phonon_numbers(cov) == (cov.n1f, cov.n2f)
    v = np.diag([0.5, 3.5, 0.5, 0.5, 1.5, 0.75])
    doctored = CovarianceResult(v=v, n1f=0.0, n2f=0.0, lyap_residual=0.0,
                                physical=True)
    assert phonon_numbers(doctored) == (2.0, 0.125)


def test_unphysical_result_guard():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         gamma1=1e-3, gamma2=1e-3, nbar1=5.0, nbar2=5.0)
    nm = build_noise_model(lp)
    # a bath-shaped diffusion with an impossible rate, gamma1 (2 nbar1 + 1)
    # below the vacuum's gamma1 (emission weaker than vacuum), drives n1f
    # negative
    q = nm.q.copy()
    q[1, 1] = q[4, 4] = 0.2 * 1e-3
    with pytest.raises(UnphysicalResult):
        solve_lyapunov(build_drift_matrix(lp), NoiseModel(q=q))
    # the guard is for physical baths only: unequal x and p halves (or an
    # off-diagonal entry) make a synthetic Q, solved without it
    for i, j in ((4, 4), (1, 4)):
        synthetic = q.copy()
        synthetic[i, j] = synthetic[j, i] = 0.3 * 1e-3
        cov = solve_lyapunov(build_drift_matrix(lp), NoiseModel(q=synthetic))
        assert cov.physical and cov.n1f < -1e-6


@pytest.fixture(scope="module")
def batch():
    """Random and figure-like cells, stable and unstable, more than two
    blocks' worth (some take one, two or three refinement steps), with
    their covariances solved one call per cell."""
    rng = np.random.default_rng(5)
    lps = [random_linearized(rng) for _ in range(90)]
    lps += [make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=g22, omega_ex=om)
            for g22 in np.linspace(-0.4, -0.0005, 7)
            for om in np.linspace(0.0, 0.3, 7)]
    lps += [make_linearized(delta_eff=-1.0, kappa=k)    # blue side: unstable
            for k in np.linspace(0.02, 0.2, 5)]
    return lps, [cool_linearized(lp) for lp in lps]


def _same(x: CovarianceResult, y: CovarianceResult) -> bool:
    return (np.array_equal(x.v, y.v) and x.n1f == y.n1f and x.n2f == y.n2f
            and x.lyap_residual == y.lyap_residual
            and x.physical == y.physical)


def test_batch_cells_cover_blocks_and_refinement(batch, monkeypatch):
    cells, alone = batch
    assert len(cells) > 2 * LYAP_BLOCK
    assert any(not c.physical for c in alone)
    solve = np.linalg.solve
    calls = []

    def counted(*args):
        calls[-1] += 1
        return solve(*args)
    monkeypatch.setattr(np.linalg, "solve", counted)
    for lp in cells:
        calls.append(0)
        cool_linearized(lp)
    # one solve, then one per refinement step
    assert {2, 3, 4} <= set(calls) <= {1, 2, 3, 4}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_lyapunov_equals_per_cell_calls(batch, data):
    cells, alone = batch
    order = data.draw(st.permutations(range(len(cells))))
    batched = cool_linearized([cells[k] for k in order])
    assert all(_same(record_at(batched, order.index(k)), alone[k])
               for k in range(len(cells)))
    cut = data.draw(st.sampled_from([1, LYAP_BLOCK - 1, LYAP_BLOCK,
                                     LYAP_BLOCK + 1, 2 * LYAP_BLOCK])
                    | st.integers(1, len(cells) - 1))
    split = [record_at(part, k)
             for part in (cool_linearized(cells[:cut]),
                          cool_linearized(cells[cut:]))
             for k in range(len(part.n1f))]
    assert all(_same(x, y) for x, y in zip(split, alone))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_column_builders_equal_scalar_records(batch, data):
    # drift, noise and dark-overlap stacks of a column record equal the
    # scalar records' results bit for bit, in any order and any split
    cells = batch[0] + [
        make_linearized(g1_eff=0.0, g2_eff=0.0),           # dark overlap NaN
        make_linearized(g1_eff=0.1 + 0.05j, g2_eff=-0.02j, g22=-0.01 + 0.002j)]
    order = data.draw(st.permutations(range(len(cells))))
    cut = data.draw(st.integers(0, len(cells)))
    for part in ([cells[k] for k in order[:cut]],
                 [cells[k] for k in order[cut:]]):
        cols, _ = linearized_columns(part)
        drift, noise = build_drift_matrix(cols).a, build_noise_model(cols)
        dark = dark_mode_diagnostics(cols).dark_overlap
        assert drift.shape == noise.q.shape == (len(part), 6, 6)
        for k, lp in enumerate(part):
            assert _bits(drift[k]) == _bits(build_drift_matrix(lp).a)
            assert _bits(noise.q[k]) == _bits(build_noise_model(lp).q)
            if lp.g1_eff == lp.g2_eff == 0:
                assert math.isnan(dark[k])
            else:
                assert dark[k] == dark_mode_diagnostics(lp).dark_overlap
    # a sweep-style record: one array field, the rest shared scalars
    from dataclasses import replace
    kappas = np.linspace(0.05, 0.5, 7)
    drift = build_drift_matrix(replace(cells[0], kappa=kappas)).a
    assert all(_bits(d) == _bits(build_drift_matrix(replace(cells[0],
                                                             kappa=k)).a)
               for d, k in zip(drift, kappas.tolist()))


def test_single_matrix_is_a_batch_of_one():
    lp = make_linearized()
    a, nm = build_drift_matrix(lp), build_noise_model(lp)
    one = record_at(solve_lyapunov(DriftMatrix(a=a.a[None]), [nm]), 0)
    assert _same(solve_lyapunov(a, nm), one)
    none = solve_lyapunov(DriftMatrix(a=np.empty((0, 6, 6))), [])
    assert none.v.shape == (0, 6, 6) and len(none.n1f) == 0


def test_symmetric_operator_equals_kron(rng):
    # the 21x21 operator applied to the upper triangle of a symmetric V is
    # that triangle of A V + V A^T, here from the 36x36 Kronecker sum
    a = np.stack([build_drift_matrix(random_linearized(rng)).a
                  for _ in range(20)]
                 + [rng.normal(size=(6, 6)) for _ in range(20)])
    ident = np.eye(6)
    upper = np.triu_indices(6)
    ops = _lyapunov_operator(a)
    assert ops.shape == (40, 21, 21) and ops.dtype == float
    for m, ak in zip(ops, a):
        v = rng.normal(size=(6, 6))
        v = v + v.T
        kron = np.kron(ident, ak) + np.kron(ak, ident)
        want = (kron @ v.reshape(36)).reshape(6, 6)[upper]
        np.testing.assert_allclose(m @ v[upper], want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))


def test_returned_iterate_has_the_reported_residual(batch):
    # the residual is that of the V which comes back, last correction included
    cells, alone = batch
    for lp, cov in zip(cells, alone):
        a, q = build_drift_matrix(lp).a, build_noise_model(lp).q
        r = a @ cov.v + cov.v @ a.T + q
        res = (np.linalg.norm(r.reshape(1, 36), axis=1)
               / np.linalg.norm(q.reshape(1, 36), axis=1))
        assert res[0] == cov.lyap_residual


def test_asymmetric_q_rejected():
    lp = make_linearized()
    nm = build_noise_model(lp)
    skew = nm.q.copy()
    skew[1, 4] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(build_drift_matrix(lp), NoiseModel(q=skew))
    a = build_drift_matrix(linearized_columns([lp, lp])[0]).a
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(DriftMatrix(a=a), [nm, NoiseModel(q=skew)])


def test_nonfinite_input_rejected():
    lp = make_linearized()
    a = build_drift_matrix(lp).a.copy()
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_lyapunov(DriftMatrix(a=a), build_noise_model(lp))
    nm = build_noise_model(lp)
    q = nm.q.copy()
    q[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_lyapunov(build_drift_matrix(lp), NoiseModel(q=q))


def test_complex_input_rejected():
    # the ladder-operator matrices are not the quadrature forms the solve
    # takes; casting them to real would drop their imaginary parts
    lp = make_linearized()
    a, nm = build_drift_matrix(lp), build_noise_model(lp)
    for drift, noise in ((DriftMatrix(a=complex_drift_matrix(lp)), nm),
                         (DriftMatrix(a=a.a.astype(complex)), nm),
                         (a, NoiseModel(q=nm.q.astype(complex)))):
        with pytest.raises(ValueError, match="real"):
            solve_lyapunov(drift, noise)


def test_singular_kronecker_system_raises():
    from quadmech.cooling import SingularLyapunov
    # undamped, uncoupled mechanics: lambda + conj(lambda) = 0 exactly
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         gamma1=0.0, gamma2=0.0)
    with pytest.raises(SingularLyapunov):
        cool_linearized(lp)
    with pytest.raises(SingularLyapunov):
        cool_linearized([make_linearized(), lp])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lyapunov_matches_bartels_stewart(data):
    draw = data.draw
    lp = make_linearized(
        delta_eff=draw(st.floats(0.2, 2.0)),
        omega2_tilde=draw(st.floats(0.5, 1.5)),
        g1_eff=draw(st.floats(0.0, 0.2)),
        g2_eff=draw(st.floats(-0.2, 0.0)),
        g22=draw(st.floats(-0.4, 0.0)),
        omega_ex=draw(st.floats(0.0, 0.3)),
        theta=draw(st.floats(0.0, 2 * math.pi)),
        kappa=draw(st.floats(0.05, 1.0)),
        gamma1=10**draw(st.floats(-5.0, -2.0)),
        gamma2=10**draw(st.floats(-5.0, -2.0)),
        nbar1=draw(st.floats(0.0, 1000.0)),
        nbar2=draw(st.floats(0.0, 1000.0)))
    a, nm = build_drift_matrix(lp), build_noise_model(lp)
    # well inside the stable region, where both solvers are well conditioned
    assume(classify_stability(a).margin > 1e-6)
    cov = solve_lyapunov(a, nm)
    # the complex ladder-operator equation, mapped to the quadratures
    ref = scipy.linalg.solve_sylvester(complex_drift_matrix(lp),
                                       complex_drift_matrix(lp).T,
                                       -complex_noise(lp)[1])
    assert cov.physical
    scale = np.max(np.abs(ref))
    mapped = QUADRATURE_T @ ref @ QUADRATURE_T.T
    assert np.max(np.abs(cov.v - mapped)) <= 1e-9 * scale
    # n = V - 1/2 cancels near n = 0, where V's own tolerance is the floor
    assert cov.n1f == pytest.approx(ref[4, 1].real - 0.5, rel=1e-9,
                                    abs=1e-9 * scale)
    assert cov.n2f == pytest.approx(ref[5, 2].real - 0.5, rel=1e-9,
                                    abs=1e-9 * scale)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_real_route_matches_complex_oracle(seed):
    # the quadrature route against the complex ladder-operator route of
    # conftest: drift matrix, verdict and occupations
    from quadmech.stability import STAB_TOL_FACTOR
    lp = random_linearized(np.random.default_rng(seed))
    a = complex_drift_matrix(lp)
    r = build_drift_matrix(lp)
    mapped = QUADRATURE_T @ a @ QUADRATURE_T.conj().T
    assert np.max(np.abs(r.a - mapped)) <= 1e-15 * np.linalg.norm(a)
    stable = np.linalg.eigvals(a).real.max() < -STAB_TOL_FACTOR * lp.kappa
    assert classify_stability(r).stable == stable
    cov = cool_linearized(lp)
    assert cov.physical == stable
    if stable:
        ref = scipy.linalg.solve_sylvester(a, a.T, -complex_noise(lp)[1])
        assert cov.n1f == pytest.approx(ref[4, 1].real - 0.5, rel=1e-9)
        assert cov.n2f == pytest.approx(ref[5, 2].real - 0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# independent spectral-integral oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(),                                               # reference point
    dict(g1_eff=0.05, g2_eff=-0.02, g22=-0.05, omega_ex=0.05, kappa=0.2),
    dict(g1_eff=0.12, g2_eff=-0.08, g22=-0.15, omega_ex=0.0, nbar1=50.0),
])
def test_phonons_match_spectral_integral(kw):
    lp = make_linearized(**kw)
    cov = cool_linearized(lp)
    assert cov.physical
    s1, s2 = spectral_phonons(lp)
    assert cov.n1f == pytest.approx(s1, rel=1e-6, abs=1e-9)
    assert cov.n2f == pytest.approx(s2, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# reference cooling values
# ---------------------------------------------------------------------------

def test_reference_optimum_values():
    # exact model values at the optimal-cooling reference point; the source
    # quotes (0.045, 0.035) read off its plots, see the acceptance suite
    cov = cool_linearized(make_linearized())
    assert cov.n1f == pytest.approx(0.0405377, rel=1e-4)
    assert cov.n2f == pytest.approx(0.0292589, rel=1e-4)


def test_red_sideband_cooling_inequality(rng):
    cooled = 0
    while cooled < 25:
        lp = random_linearized(rng)
        lp = make_linearized(**{**lp.__dict__, "delta_eff": 1.0,
                                "omega2_tilde": 1.0, "nbar1": 300.0,
                                "nbar2": 300.0})
        dark = dark_mode_diagnostics(lp)
        cov = cool_linearized(lp)
        if not cov.physical or dark.dark_flag:
            continue
        cooled += 1
        assert cov.n1f < 300.0
        assert cov.n2f < 300.0


def test_dark_mode_suppression_scan():
    # matched couplings with no mixing: the decoupled collective mode pins
    # both oscillators near nbar/2
    hot = []
    for g in np.linspace(0.02, 0.2, 10):
        lp = make_linearized(g1_eff=g, g2_eff=-g, g22=0.0, omega_ex=0.0)
        cov = cool_linearized(lp)
        assert cov.physical
        hot.append(max(cov.n1f, cov.n2f))
        assert max(cov.n1f, cov.n2f) > 150.0
    assert min(hot) > 1.0


def test_g22_dip_restores_cooling():
    # minimum of n2f over the quadratic frequency shift at zero exchange
    best = (np.inf, None)
    for g22 in np.linspace(-0.4, 0.0, 81):
        lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=g22, omega_ex=0.0)
        cov = cool_linearized(lp)
        if cov.physical and cov.n2f < best[0]:
            best = (cov.n2f, g22)
    assert best[0] == pytest.approx(0.11, rel=0.15)
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=-0.2, omega_ex=0.0)
    cov = cool_linearized(lp)
    assert cov.n1f < 1.0 and cov.n2f < 1.0


def test_theta_sweep_peak_at_dark_alignment():
    # n_f is continuous in theta and peaks where |g1 + g2 e^{i theta}| -> 0
    thetas = np.linspace(0.0, 2 * math.pi, 81)
    nf = []
    overlap = []
    for th in thetas:
        lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=-0.01,
                             omega_ex=0.1, theta=th)
        cov = cool_linearized(lp)
        assert cov.physical
        nf.append(max(cov.n1f, cov.n2f))
        overlap.append(dark_mode_diagnostics(lp).dark_overlap)
    nf = np.array(nf)
    overlap = np.array(overlap)
    k_peak = int(np.argmax(nf))
    k_zero = int(np.argmin(overlap))
    assert abs(k_peak - k_zero) <= 1 or abs(abs(k_peak - k_zero) - 80) <= 1
    # continuity: no jumps beyond a factor few between neighbors off the peaks
    ratios = nf[1:] / nf[:-1]
    assert np.all(ratios < 50.0) and np.all(ratios > 1 / 50.0)


# ---------------------------------------------------------------------------
# dark-mode diagnostics
# ---------------------------------------------------------------------------

def test_dark_flag_on_matched_couplings():
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=0.0, omega_ex=0.0)
    d = dark_mode_diagnostics(lp)
    assert d.dark_flag
    assert d.dark_overlap == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert d.dark_overlap_min == pytest.approx(0.0, abs=1e-12)
    assert d.bright_coupling == pytest.approx(math.hypot(0.1, 0.1))


def test_dark_overlap_with_single_channel():
    lp = make_linearized(g2_eff=0.0, g22=0.0, omega_ex=0.0)
    d = dark_mode_diagnostics(lp)
    assert d.dark_overlap == pytest.approx(1.0)
    assert not d.dark_flag


def test_dark_flag_cleared_by_g22():
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=-0.2, omega_ex=0.0)
    d = dark_mode_diagnostics(lp)
    assert not d.dark_flag
    cov = cool_linearized(lp)
    assert cov.n1f < 1.0 and cov.n2f < 1.0


def test_dark_overlap_range(rng):
    for _ in range(100):
        lp = random_linearized(rng)
        if lp.g1_eff == 0 and lp.g2_eff == 0:
            continue
        d = dark_mode_diagnostics(lp)
        assert 0.0 <= d.dark_overlap <= math.sqrt(2.0) + 1e-12
        assert 0.0 <= d.dark_overlap_min <= 1.0 + 1e-12


def test_zero_coupling_raises():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0)
    with pytest.raises(ZeroCoupling):
        dark_mode_diagnostics(lp)
