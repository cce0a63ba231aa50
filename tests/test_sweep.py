"""Sweep engine: validation, determinism, symmetry, counting."""
import math
import pickle

import numpy as np
import pytest

from quadmech import Axis, SweepSpec, run_sweep
from quadmech.sweep import InvalidSpec, validate_spec

from conftest import make_linearized, make_system


def _spec(base, axes, mode, **kw):
    return SweepSpec(axes=axes, base=base, mode=mode, **kw)


def test_rejects_bad_specs():
    p = make_system()
    lp = make_linearized()
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("nonsense", 0, 1, 5),), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 1, 0, 5),), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 1),), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5, "log"),), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5),), "bogus"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5),), "cooling"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(lp, (Axis("kappa", 0.1, 1, 5),), "root-count"))
    with pytest.raises(InvalidSpec):
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5),
                                Axis("g1", 0, 0.1, 5)), "branch-curve"))
    with pytest.raises(InvalidSpec):   # coarser than the oracle accepts
        validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5),), "root-count",
                            scan_points=999))
    # the scan grid is unused without the oracle and in cooling sweeps
    validate_spec(_spec(p, (Axis("delta_c", 0, 1, 5),), "root-count",
                        scan_points=999, oracle_mode=False))
    validate_spec(_spec(lp, (Axis("kappa", 0.1, 1, 5),), "cooling",
                        scan_points=999))


def test_decoupled_root_count_all_one():
    p = make_system(g1=0.0, g2=0.0, eta=30.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 0.0, 6.0, 31),), "root-count"))
    assert len(res.cells) == 31
    assert all(c.root_count == 1 for c in res.cells)
    assert all(c.stable_count <= c.root_count for c in res.cells)


def test_row_major_cell_order():
    p = make_system(g1=0.0, g2=0.0, eta=10.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 0.0, 1.0, 3),
                              Axis("eta", 5.0, 10.0, 2)), "root-count"))
    assert [c.index for c in res.cells] == [(0, 0), (0, 1), (1, 0), (1, 1),
                                            (2, 0), (2, 1)]


def test_determinism_across_workers():
    p = make_system(eta=56.5, omega_ex=0.005)
    axes = (Axis("delta_c", 2.5, 4.5, 9),)
    serial = run_sweep(_spec(p, axes, "root-count", threads=1))
    parallel = run_sweep(_spec(p, axes, "root-count", threads=2))
    assert pickle.dumps([(c.index, c.values, c.root_count, c.stable_count,
                          [(b.branch_index, b.n_p, b.stable, b.residual)
                           for b in c.branches]) for c in serial.cells]) == \
        pickle.dumps([(c.index, c.values, c.root_count, c.stable_count,
                       [(b.branch_index, b.n_p, b.stable, b.residual)
                        for b in c.branches]) for c in parallel.cells])


def test_theta_mirror_counts_on_symmetric_grid():
    p = make_system(delta_c=5.0)
    res = run_sweep(_spec(p, (Axis("theta", 0.0, math.pi, 21),), "root-count"))
    counts = [c.root_count for c in res.cells]
    assert counts == counts[::-1]


def test_branch_curve_labels_follow_branches():
    p = make_system(g2=0.0, eta=45.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 2.05, 2.25, 21),), "branch-curve"))
    by_label = {}
    for cell in res.cells:
        for row in cell.branches:
            by_label.setdefault(row.branch_index, []).append(
                (cell.values[0], row.n_p))
    # one label per continuous branch: the lowest-photon branch moves smoothly
    for label, pts in by_label.items():
        if len(pts) < 3:
            continue
        ns = np.array([v for _, v in pts])
        rel_jump = np.abs(np.diff(ns)) / np.maximum(1.0, ns[:-1])
        assert np.all(rel_jump < 0.5)


def test_continuation_labels_follow_nearest_n_p():
    from quadmech.sweep import continuation_labels
    curve = [[1.0, 5.0], [1.1, 3.0, 4.9], [], [2.0], [1.2, 4.0]]
    # a new branch gets a fresh label; after an empty cell every label is
    # fresh; a tie goes to the lower previous label
    assert continuation_labels(curve) == [[0, 1], [0, 2, 1], [], [3], [3, 4]]
    assert continuation_labels([[1.0, 3.0], [2.0]]) == [[0, 1], [0]]


def test_cooling_map_thermal_cells():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         gamma1=1e-4, gamma2=1e-4, nbar1=9.0, nbar2=4.0)
    res = run_sweep(_spec(lp, (Axis("kappa", 0.05, 0.5, 7),), "cooling"))
    for cell in res.cells:
        (row,) = cell.branches
        assert row.stable
        assert row.n1f == pytest.approx(9.0, rel=1e-10)
        assert row.n2f == pytest.approx(4.0, rel=1e-10)
        assert row.dark_overlap is None


def test_cooling_map_marks_unstable_cells():
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.01, g22=-0.01, omega_ex=0.1,
                         delta_eff=-1.0)   # blue-detuned: amplification
    res = run_sweep(_spec(lp, (Axis("kappa", 0.02, 0.2, 5),), "cooling"))
    rows = [c.branches[0] for c in res.cells]
    assert any(not r.stable for r in rows)
    for r in rows:
        if not r.stable:
            assert r.n1f is None and r.n2f is None
    assert any(d.kind == "unstable-cell" for d in res.diagnostics)


def test_mismatch_diagnostics_carry_cell_index():
    p = make_system(eta=95.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 4.0, 6.0, 5),), "root-count"))
    mism = [d for d in res.diagnostics if d.kind == "coefficient-mismatch"]
    assert mism
    assert all(d.cell is not None for d in mism)


def test_dark_overlap_reported_in_cooling_cells():
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=-0.2, omega_ex=0.0)
    res = run_sweep(_spec(lp, (Axis("g22", -0.3, -0.1, 5),), "cooling"))
    for cell in res.cells:
        (row,) = cell.branches
        assert row.dark_overlap == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_single_branch_cells_usually_stable(rng):
    # Spot check: with finite damping and finite drive, 1-count cells are
    # usually stable; violations (blue-detuned amplification regions) are
    # physical and reported as findings rather than failures.
    from conftest import random_system
    findings = []
    checked = 0
    while checked < 100:
        p = random_system(rng)
        p = make_system(**{**p.__dict__, "gamma1": 1e-5, "gamma2": 1e-5})
        from quadmech import classify_branch_stability, derive_linearized, solve_branches
        branches = solve_branches(p)
        if len(branches) != 1:
            continue
        checked += 1
        verdict = classify_branch_stability(derive_linearized(branches[0], p))
        if not verdict.stable:
            findings.append((p.delta_c, branches[0].n_p,
                             verdict.max_real_part))
    if findings:
        print(f"\n{len(findings)}/100 single-branch cells unstable "
              f"(amplification side), e.g. {findings[0]}")
    # the stable majority is still expected
    assert len(findings) < 60


def test_dark_diagonal_cells_stay_hot():
    # cells with vanishing one-sign overlap and no mixing cannot cool both
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.1, g22=0.0, omega_ex=0.0,
                         theta=0.0)
    res = run_sweep(_spec(lp, (Axis("g2_eff", -0.12, -0.08, 9),), "cooling"))
    hit = 0
    for cell in res.cells:
        (row,) = cell.branches
        if row.dark_overlap is not None and row.dark_overlap < 0.02:
            hit += 1
            if row.stable:
                assert max(row.n1f, row.n2f) > 1.0
    assert hit >= 1


def test_fig2a_plane_tables_identical_across_workers(tmp_path):
    # each chunk of the two-worker run is its own batch; a cell's roots and
    # verdicts must not depend on which cells share its batch
    from quadmech.cli import main
    paths = []
    for threads in (1, 2):
        out = tmp_path / f"fig2a_{threads}.csv"
        assert main(["reproduce", "fig2a", "--out", str(out), "--set",
                     "points=9", "--threads", str(threads)]) in (0, 2)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    side = [p.with_suffix(".csv.diagnostics.txt").read_text() for p in paths]
    assert side[0] == side[1]


def test_failing_cell_does_not_fail_its_batch(monkeypatch):
    # a cell whose solve raises gets a cell-error; its batch-mates still solve
    import quadmech.steady_state as ss
    real = ss.build_polynomial

    def broken(p):
        if p.delta_c == 3.0:
            raise RuntimeError("boom")
        return real(p)
    monkeypatch.setattr(ss, "build_polynomial", broken)
    p = make_system(g1=0.0, g2=0.0, eta=10.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 1.0, 5.0, 5),), "root-count"))
    counts = [c.root_count for c in res.cells]
    assert counts == [1, 1, 0, 1, 1]
    errors = [d for d in res.diagnostics if d.kind == "cell-error"]
    assert [d.cell for d in errors] == [(2,)]


def test_failing_cooling_cells_do_not_fail_their_batch(monkeypatch):
    # a NaN entry, a singular Lyapunov system and an UnphysicalResult each
    # fail only their own cell; the batch-mates keep their values
    from dataclasses import replace

    import quadmech.cooling as cooling
    base = make_linearized()
    spec = _spec(base, (Axis("kappa", 0.05, 0.35, 7),), "cooling")
    clean = run_sweep(spec)
    kappas = [c.values[0] for c in clean.cells]
    real_drift, real_noise = cooling.build_drift_matrix, cooling.build_noise_model
    hostile = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                              gamma1=1e-3, gamma2=1e-3, nbar1=5.0, nbar2=5.0)
    singular = replace(base, g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                       gamma1=0.0, gamma2=0.0)   # undamped, uncoupled
    q = real_noise(hostile).q.copy()
    q[1, 1] = q[4, 4] = 0.2 * 1e-3   # emission weaker than vacuum: n < 0

    # the builders get column records; the stubs edit the faulty cells' rows
    def drift(lp):
        a = real_drift(lp).a.copy()
        kappa = np.atleast_1d(lp.kappa)
        a[kappa == kappas[1], 2, 2] = np.nan
        a[kappa == kappas[3]] = real_drift(singular).a
        a[kappa == kappas[5]] = real_drift(hostile).a
        return cooling.DriftMatrix(a=a)

    def noise(lp):
        nm = real_noise(lp)
        at = np.atleast_1d(lp.kappa) == kappas[5]
        nm.q[at] = q
        return nm
    monkeypatch.setattr(cooling, "build_drift_matrix", drift)
    monkeypatch.setattr(cooling, "build_noise_model", noise)
    res = run_sweep(spec)
    errors = [d for d in res.diagnostics if d.kind == "cell-error"]
    assert [d.cell for d in errors] == [(1,), (3,), (5,)]
    assert [d.message.split(":")[0] for d in errors] == \
        ["ValueError", "SingularLyapunov", "UnphysicalResult"]
    for k, (got, want) in enumerate(zip(res.cells, clean.cells)):
        (row,) = got.branches
        if k in (1, 3, 5):
            assert not row.stable and row.n1f is None and row.residual is None
            assert row.dark_overlap == want.branches[0].dark_overlap
        else:
            assert got == want


def test_cooling_map_tables_identical_across_workers(tmp_path):
    # the two-worker run solves other batches than the one-worker run
    from quadmech.cli import main
    paths = []
    for threads in (1, 2):
        out = tmp_path / f"fig6_{threads}.csv"
        assert main(["reproduce", "fig6", "--out", str(out), "--set",
                     "points=9", "--threads", str(threads)]) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
