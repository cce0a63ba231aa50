"""Noise model, Lyapunov covariance, phonon extraction, dark-mode diagnostics.

Phonon numbers are cross-validated against an independent frequency-domain
quadrature of the resolvent (the stationary second moments as a spectral
integral), which never touches the Lyapunov solver, and against the complex
ladder-operator Lyapunov equation of conftest's builders, solved by
Bartels-Stewart.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadmech import (CovarianceResult, LinearizedParams,
                      build_drift_matrix, build_noise_model,
                      classify_stability, cool_linearized,
                      dark_mode_diagnostics, phonon_numbers, solve_lyapunov)
from quadmech.cooling import (LYAP_BLOCK, UnphysicalResult, ZeroCoupling,
                              _lyapunov_operator)
from quadmech.params import param_columns
from quadmech.stability import spectra

from conftest import (QUADRATURE_T, complex_drift_matrix, complex_noise,
                      make_linearized, random_linearized, record_at,
                      spectral_phonons, table_rows)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_noise_entries_and_sparsity():
    lp = make_linearized(kappa=0.3, gamma1=1e-3, gamma2=2e-3,
                         nbar1=7.0, nbar2=11.0)
    nm = build_noise_model(lp)
    rates = [0.3, 1e-3 * 15.0, 2e-3 * 23.0]
    np.testing.assert_array_equal(nm, np.diag(rates + rates))
    # the quadrature map of the symmetrized ladder-operator bath matrix
    q = complex_noise(lp)[1]
    mapped = QUADRATURE_T @ q @ QUADRATURE_T.T
    np.testing.assert_allclose(mapped, nm, rtol=0, atol=1e-15 * 0.3)


def test_noise_vacuum_cavity_only():
    lp = make_linearized(kappa=1.0, gamma1=0.0, gamma2=0.0)
    nm = build_noise_model(lp)
    assert nm[0, 0] == 1.0 and nm[3, 3] == 1.0
    assert np.count_nonzero(nm) == 2


def test_noise_thermal_occupancy_300():
    lp = make_linearized(gamma1=2e-6, nbar1=300.0)
    nm = build_noise_model(lp)
    assert nm[1, 1] == nm[4, 4] == pytest.approx(2e-6 * 601.0, rel=1e-15)


def test_noise_all_rates_zero():
    from quadmech import LinearizedParams
    dead = LinearizedParams(delta_eff=0, omega1=1, omega2_tilde=1, g1_eff=0,
                            g2_eff=0, g22=0, omega_ex=0, theta=0, kappa=0.0,
                            gamma1=0.0, gamma2=0.0)
    nm = build_noise_model(dead)
    assert np.count_nonzero(nm) == 0


# ---------------------------------------------------------------------------
# Lyapunov solve
# ---------------------------------------------------------------------------

def test_scalar_analogue_v_equals_q(rng):
    a = -0.5 * np.eye(6)
    sym = rng.normal(size=(6, 6))
    sym = 0.5 * (sym + sym.T)
    cov = solve_lyapunov(a, sym)
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
    # one solve, no refinement, stays within the bound, also on stiff draws:
    # mechanical damping down to 1e-9 and thermal baths up to 1e4 quanta
    for stiff in (False, True):
        solved = 0
        while solved < 60:
            lp = random_linearized(rng)
            if stiff:
                lp = replace(lp, gamma1=10**rng.uniform(-9.0, -6.0),
                             gamma2=10**rng.uniform(-9.0, -6.0),
                             nbar1=rng.uniform(0.0, 1e4),
                             nbar2=rng.uniform(0.0, 1e4))
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


@pytest.mark.parametrize("convention", ["kappa", "omega1"])
@pytest.mark.parametrize("gamma_fallback", [True, False])
def test_one_batch_of_cases_equals_a_batch_per_case(monkeypatch, convention,
                                                    gamma_fallback):
    # fig4's cases solved as one batch give each case the table and the
    # diagnostics of its own batch; with the residual bound below any
    # residual, every cooled row adds a lyap-residual to its ratio's
    # coefficient-mismatch, so each sink holds diagnostics of two kinds
    import quadmech.cooling as cooling
    from quadmech import branch_cooling_sweep
    from quadmech.recipes import RECIPES
    monkeypatch.setattr(cooling, "LYAP_RESIDUAL_TOL", -1.0)
    bases = RECIPES["fig4"][1]
    ratios = np.linspace(0.05, 0.62, 20)
    kw = dict(convention=convention, gamma_fallback=gamma_fallback)
    diags = []
    tables = branch_cooling_sweep(bases, ratios, diagnostics=diags, **kw)
    assert list(tables) == list(bases)
    alone = []
    for case, base in bases.items():
        table = branch_cooling_sweep(base, ratios, diagnostics=alone, **kw)
        assert list(tables[case].cols) == list(table.cols)
        assert list(tables[case].present) == list(table.present)
        for name, col in table.cols.items():
            got = tables[case].cols[name]
            assert got.dtype == col.dtype
            assert np.array_equal(got, col, equal_nan=col.dtype.kind == "f")
        for name, keep in table.present.items():
            assert np.array_equal(tables[case].present[name], keep)
    assert len({d.kind for d in alone}) == 2
    assert [(d.kind, d.message, d.cell) for d in diags] == \
        [(d.kind, d.message, d.cell) for d in alone]


def test_fig4_solves_both_cases_in_one_batch(monkeypatch):
    # a perf guard: one steady solve and one branch_rows call (one Routh
    # stack, one Lyapunov stack) per fig4 call, whatever its case count
    import collections

    import quadmech.recipes as recipes
    import quadmech.sweep as sweep
    calls = collections.Counter()
    for name in ("solve_branches", "branch_rows"):
        def counted(*args, _fn=getattr(sweep, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(sweep, name, counted)
    result = recipes.run_recipe("fig4", points=5)
    assert list(result.tables) == ["linear", "quadratic"]
    assert calls == {"solve_branches": 1, "branch_rows": 1}


def _fig4_rows(table, ratio=None):
    """A fig4 table's rows without their labels, all but those at ``ratio``."""
    return [{k: v for k, v in row.items() if k != "branch_index"}
            for row in table_rows(table) if row["kappa_over_omega1"] != ratio]


def test_fig4_cell_error_fails_only_its_ratio(monkeypatch):
    # one ratio of fig4's linear case whose solve raises gets one cell-error
    # and no rows; every other ratio keeps the rows (labels aside, as the
    # continuation runs across the gap) and the diagnostics of an unforced
    # run, case by case
    import quadmech.sweep as sweep
    from quadmech import branch_cooling_sweep
    from quadmech.cooling import SingularLyapunov
    from quadmech.recipes import RECIPES
    _, bases, (axis,) = RECIPES["fig4"]
    ratios = replace(axis, points=7).values()
    alone = {case: [] for case in bases}
    want = {case: branch_cooling_sweep(base, ratios, diagnostics=alone[case])
            for case, base in bases.items()}
    r, solve = ratios[3], sweep.solve_branches

    def failing(q, **kw):          # the linear case's cell at ratio r
        if np.any((q.g2 == 0.0) & (q.omega1 == q.kappa / r)):
            raise SingularLyapunov("forced")
        return solve(q, **kw)
    monkeypatch.setattr(sweep, "solve_branches", failing)
    diags = []
    got = branch_cooling_sweep(bases, ratios, diagnostics=diags)
    assert r not in got["linear"].cols["kappa_over_omega1"]
    assert _fig4_rows(got["linear"]) == _fig4_rows(want["linear"], r)
    assert table_rows(got["quadratic"]) == table_rows(want["quadratic"])
    linear = [(d.kind, d.message, d.cell) for d in alone["linear"]]
    assert [(d.kind, d.message, d.cell) for d in diags] == (
        [x for x in linear if x[2][0] < r]
        + [("cell-error", "SingularLyapunov: forced", (r,))]
        + [x for x in linear if x[2][0] > r]
        + [(d.kind, d.message, d.cell) for d in alone["quadratic"]])


def test_fig4_with_every_cell_failing_writes_empty_tables(monkeypatch):
    # a batch whose every cell raises still has the row columns, so fig4's
    # split and labelling go through: two empty tables, a cell-error a cell
    import quadmech.sweep as sweep
    from quadmech.recipes import run_recipe

    def failing(*args, **kwargs):
        raise RuntimeError("forced")
    monkeypatch.setattr(sweep, "solve_branches", failing)
    result = run_recipe("fig4", points=3)
    for table, _ in result.tables.values():
        assert len(table) == 0 and "kappa_over_omega1" in table.cols
    assert [d.kind for d in result.diagnostics] == ["cell-error"] * 6


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
    q = nm.copy()
    q[1, 1] = q[4, 4] = 0.2 * 1e-3
    with pytest.raises(UnphysicalResult):
        solve_lyapunov(build_drift_matrix(lp), q)
    # the guard is for physical baths only: unequal x and p halves (or an
    # off-diagonal entry) make a synthetic Q, solved without it
    for i, j in ((4, 4), (1, 4)):
        synthetic = q.copy()
        synthetic[i, j] = synthetic[j, i] = 0.3 * 1e-3
        cov = solve_lyapunov(build_drift_matrix(lp), synthetic)
        assert cov.physical and cov.n1f < -1e-6


@pytest.fixture(scope="module")
def batch():
    """Random and figure-like cells, stable and unstable, more than two
    blocks' worth, with their covariances solved one call per cell."""
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


def test_batch_cells_cover_blocks(batch, monkeypatch):
    # one stacked solve per LYAP_BLOCK cells, and no second solve of a cell
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
    assert set(calls) == {1}
    for k in (1, LYAP_BLOCK - 1, LYAP_BLOCK, LYAP_BLOCK + 1, len(cells)):
        calls.append(0)
        cool_linearized(cells[:k])
        assert calls[-1] == math.ceil(k / LYAP_BLOCK)


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
        cols, _ = param_columns(part, LinearizedParams)
        drift, noise = build_drift_matrix(cols), build_noise_model(cols)
        dark = dark_mode_diagnostics(cols).dark_overlap
        assert drift.shape == noise.shape == (len(part), 6, 6)
        for k, lp in enumerate(part):
            assert _bits(drift[k]) == _bits(build_drift_matrix(lp))
            assert _bits(noise[k]) == _bits(build_noise_model(lp))
            if lp.g1_eff == lp.g2_eff == 0:
                assert math.isnan(dark[k])
            else:
                assert dark[k] == dark_mode_diagnostics(lp).dark_overlap
    # a sweep-style record: one array field, the rest shared scalars
    kappas = np.linspace(0.05, 0.5, 7)
    drift = build_drift_matrix(replace(cells[0], kappa=kappas))
    assert all(_bits(d) == _bits(build_drift_matrix(replace(cells[0],
                                                             kappa=k)))
               for d, k in zip(drift, kappas.tolist()))


def test_single_matrix_is_a_batch_of_one():
    lp = make_linearized()
    a, nm = build_drift_matrix(lp), build_noise_model(lp)
    one = record_at(solve_lyapunov(a[None], nm[None]), 0)
    assert _same(solve_lyapunov(a, nm), one)
    none = solve_lyapunov(np.empty((0, 6, 6)), np.empty((0, 6, 6)))
    assert none.v.shape == (0, 6, 6) and len(none.n1f) == 0


def test_symmetric_operator_equals_kron(rng):
    # the 21x21 operator applied to the upper triangle of a symmetric V is
    # that triangle of A V + V A^T, here from the 36x36 Kronecker sum
    a = np.stack([build_drift_matrix(random_linearized(rng))
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
    # the residual is that of the V which comes back, on the full 6x6 equation
    cells, alone = batch
    for lp, cov in zip(cells, alone):
        a, q = build_drift_matrix(lp), build_noise_model(lp)
        r = a @ cov.v + cov.v @ a.T + q
        res = (np.linalg.norm(r.reshape(1, 36), axis=1)
               / np.linalg.norm(q.reshape(1, 36), axis=1))
        assert res[0] == cov.lyap_residual


def test_asymmetric_q_rejected():
    lp = make_linearized()
    nm = build_noise_model(lp)
    skew = nm.copy()
    skew[1, 4] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(build_drift_matrix(lp), skew)
    a = build_drift_matrix(param_columns([lp, lp])[0])
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(a, np.stack([nm, skew]))


def test_nonfinite_input_rejected():
    lp = make_linearized()
    a = build_drift_matrix(lp).copy()
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_lyapunov(a, build_noise_model(lp))
    nm = build_noise_model(lp)
    q = nm.copy()
    q[0, 0] = np.inf
    with pytest.raises(ValueError):
        solve_lyapunov(build_drift_matrix(lp), q)


def test_complex_input_rejected():
    # the ladder-operator matrices are not the quadrature forms the solve
    # takes; casting them to real would drop their imaginary parts
    lp = make_linearized()
    a, nm = build_drift_matrix(lp), build_noise_model(lp)
    for drift, noise in ((complex_drift_matrix(lp), nm),
                         (a.astype(complex), nm),
                         (a, nm.astype(complex))):
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
    assert np.max(np.abs(r - mapped)) <= 1e-15 * np.linalg.norm(a)
    stable = np.linalg.eigvals(a).real.max() < -STAB_TOL_FACTOR * lp.kappa
    assert classify_stability(r).stable == stable
    cov = cool_linearized(lp)
    assert cov.physical == stable
    if stable:
        ref = scipy.linalg.solve_sylvester(a, a.T, -complex_noise(lp)[1])
        assert cov.n1f == pytest.approx(ref[4, 1].real - 0.5, rel=1e-9)
        assert cov.n2f == pytest.approx(ref[5, 2].real - 0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# the cooling verdict: Routh's test, as for the branches
# ---------------------------------------------------------------------------

def _mixed_cells(rng, n) -> LinearizedParams:
    """n cells, half of them near the margin (gamma down to 1e-11 kappa,
    couplings down to 1e-6), on both sides of the cavity resonance, with
    complex g1_eff and g22 phases on about half of them."""
    u = rng.uniform
    near = rng.random(n) < 0.5
    kappa = u(0.05, 0.5, n)
    size = np.where(near, 10 ** u(-6.0, -1.0, (3, n)), u(0.0, 0.3, (3, n)))
    phase = np.exp(1j * u(0.0, 2 * math.pi, (2, n))
                   * (rng.random((2, n)) < 0.5))
    gamma = np.where(near, kappa * 10 ** u(-11.0, -6.0, (2, n)),
                     10 ** u(-6.0, -3.0, (2, n)))
    return LinearizedParams(
        delta_eff=u(-1.5, 1.5, n), omega1=u(0.8, 1.2, n),
        omega2_tilde=u(0.8, 1.2, n), g1_eff=size[0] * phase[0],
        g2_eff=-size[1], g22=-size[2] * phase[1], omega_ex=u(0.0, 0.2, n),
        theta=u(0.0, 2 * math.pi, n), kappa=kappa, gamma1=gamma[0],
        gamma2=gamma[1], nbar1=u(0.0, 1000.0, n), nbar2=u(0.0, 1000.0, n))


def _counting_spectra(mp, sent: list) -> None:
    """Record each stack Routh's test hands to ``spectra``."""
    import quadmech.stability as stability

    def counted(a):
        sent.append(a.copy())
        return spectra(a)
    mp.setattr(stability, "spectra", counted)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 150), data=st.data())
def test_certified_verdict_equals_spectra(seed, n, data):
    # physical from Routh's test equals the eigenvalue verdict cell for cell,
    # also for an undamped cell (Q singular) and a symmetric non-diagonal Q
    # (not a bath): the verdict reads R alone.  The cells Routh cannot
    # settle go to spectra in one stacked call.
    lp = _mixed_cells(np.random.default_rng(seed), n)
    a, q = build_drift_matrix(lp), build_noise_model(lp)
    undamped = make_linearized(gamma1=0.0, gamma2=0.0, delta_eff=-1.0,
                               g1_eff=0.1j, g22=-0.05 * np.exp(0.3j))
    mixed = build_noise_model(make_linearized())
    mixed[1, 2] = mixed[2, 1] = 0.5 * mixed[1, 1]
    forced = sorted(data.draw(st.lists(st.integers(0, n), min_size=2,
                                       max_size=2, unique=True)))
    for k, (drift, noise) in zip(forced, (
            (build_drift_matrix(undamped), build_noise_model(undamped)),
            (build_drift_matrix(make_linearized()), mixed))):
        a, q = np.insert(a, k, drift, axis=0), np.insert(q, k, noise, axis=0)
    sent = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_spectra(mp, sent)
        cov = solve_lyapunov(a, q)
    assert np.array_equal(cov.physical, spectra(a)[2])
    assert len(sent) <= 1
    assert all(np.any(np.all(a == m, axis=(1, 2))) for s in sent for m in s)
    assert np.array_equal(classify_stability(a).stable, spectra(a)[2])


def test_certificate_covers_stable_unstable_and_marginal_draws():
    # the draws of the property above hold stable and unstable cells Routh
    # settles and near-margin cells it leaves to the eigenvalues
    lp = _mixed_cells(np.random.default_rng(15), 400)
    a = build_drift_matrix(lp)
    sent = []
    with pytest.MonkeyPatch.context() as mp:
        _counting_spectra(mp, sent)
        cov = solve_lyapunov(a, build_noise_model(lp))
    _, max_re, stable = spectra(a)
    assert np.array_equal(cov.physical, stable)
    settled = ~np.any(np.all(a[:, None] == sent[0][None], axis=(2, 3)), axis=1)
    assert np.any(settled & stable) and np.any(settled & ~stable)
    assert 0 < len(sent[0]) < len(a)
    assert np.any(np.abs(max_re) < 1e-7 * lp.kappa)


def test_figure_maps_send_no_cell_to_the_eigenvalue_call(monkeypatch):
    # Routh settles every cell of the fig5 and fig7 maps inside the Lyapunov
    # solve (fig6's near-margin cells are bounded in test_stability); an
    # undamped cell (gamma = 0, so Q is singular) needs no eigenvalue call
    # either, since the verdict reads R alone
    import quadmech.cooling as cooling
    from quadmech import run_recipe
    sent, solved = [], []
    solve = cooling.solve_lyapunov

    def counted(a, nm):
        solved.append(len(a))
        return solve(a, nm)
    monkeypatch.setattr(cooling, "solve_lyapunov", counted)
    _counting_spectra(monkeypatch, sent)
    for tag in ("fig5", "fig7"):
        run_recipe(tag, points=21)
    assert sum(solved) == 2 * 21 * 21 and sent == []
    lp = param_columns([make_linearized(),
                        make_linearized(gamma1=0.0, gamma2=0.0),
                        make_linearized(kappa=0.2)])[0]
    a = build_drift_matrix(lp)
    cov = cool_linearized(lp)
    assert sent == []
    assert np.array_equal(cov.physical, spectra(a)[2])


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
# weak-coupling sideband limit (Marquardt, Chen, Clerk & Girvin, PRL 99,
# 093902 (2007)); the constant of the bound is in LEDGER.md
# ---------------------------------------------------------------------------

def _sideband_occupation(g, kappa, delta, gamma, nbar, omega=1.0):
    """n_f = (2 gamma nbar + A+)/(2 gamma + A- - A+) with
    A-+ = 2 kappa g^2/(kappa^2 + (delta -+ omega)^2), in the drift's units:
    -kappa and -gamma on its diagonal, x_c coupled to x_j with 2 g."""
    a_minus, a_plus = (2.0 * kappa * g**2 / (kappa**2 + (delta - s * omega)**2)
                       for s in (1.0, -1.0))
    return (2.0 * gamma * nbar + a_plus) / (2.0 * gamma + a_minus - a_plus)


@settings(max_examples=100, deadline=None)
@given(g=st.floats(1e-3, 0.02), kappa=st.floats(0.05, 0.2),
       delta=st.floats(0.8, 1.2), log_gamma=st.floats(-6.0, -4.0),
       nbar=st.floats(100.0, 1000.0), phi=st.floats(0.0, math.pi / 2))
def test_weak_coupling_matches_the_sideband_limit(g, kappa, delta, log_gamma,
                                                 nbar, phi):
    # one mode: the sideband rate formula; two degenerate modes (omega_ex =
    # g22 = 0): the bright combination cools as one mode of coupling
    # hypot(g1, g2), the dark one keeps nbar, and each oscillator holds
    # their mix.  Both within 2 (g/kappa)^2 relative.
    gamma = 10.0 ** log_gamma
    rates = dict(g22=0.0, omega_ex=0.0, theta=0.0, omega2_tilde=1.0,
                 kappa=kappa, delta_eff=delta, gamma1=gamma, gamma2=gamma,
                 nbar1=nbar, nbar2=nbar)
    bound = 2.0 * (g / kappa) ** 2
    n_b = _sideband_occupation(g, kappa, delta, gamma, nbar)
    one = cool_linearized(make_linearized(g1_eff=g, g2_eff=0.0, **rates))
    assert one.physical
    assert abs(one.n1f - n_b) <= bound * n_b
    g1, g2 = g * math.cos(phi), g * math.sin(phi)
    two = cool_linearized(make_linearized(g1_eff=g1, g2_eff=-g2, **rates))
    assert two.physical
    for n, bright in ((two.n1f, g1**2), (two.n2f, g2**2)):
        split = (bright * n_b + (g**2 - bright) * nbar) / g**2
        assert abs(n - split) <= bound * split


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
