"""Sweep engine: validation, determinism, symmetry, counting."""
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import Axis, SweepSpec, run_sweep
from quadmech.cli import write_table
from quadmech.sweep import (COLUMNS, InvalidSpec, Table, continuation_labels,
                            validate_spec)

from conftest import (make_linearized, make_system, per_cell, root_counts,
                      table_rows)


def _spec(base, axes, mode, **kw):
    return SweepSpec(axes=axes, base=base, mode=mode, **kw)


def _written(res, path) -> list[list[str]]:
    """The fields of the CSV table of ``res``, row by row."""
    names = tuple(ax.name for ax in res.spec.axes)
    write_table(str(path), "csv", names + COLUMNS, res.table, {})
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _cell_rows(res) -> list[list[dict]]:
    """Each cell's rows as dicts, the rows of its branches only."""
    rows = table_rows(res.table)
    return [[r for r in rows[lo:hi] if r["branch_index"] is not None]
            for lo, hi in zip(res.offsets[:-1], res.offsets[1:])]


def _on_the_pool(monkeypatch) -> list[int]:
    """Send the next multi-worker sweeps to a real process pool: batches
    of 4 cells give a small grid more than one batch (forked workers
    inherit the cut).  Returns the worker counts of the pools started, as
    they start."""
    import concurrent.futures

    import quadmech.sweep as sweep
    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(sweep, "BATCH_CELLS", 4)
    return started


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


def test_axes_take_numeric_fields_only(tmp_path):
    # unit_label and origin are metadata, which no computed quantity reads:
    # a sweep over either would write identical rows
    from quadmech.cli import main
    with pytest.raises(InvalidSpec, match="numeric field"):
        validate_spec(_spec(make_system(), (Axis("unit_label", 0, 1, 3),),
                            "root-count"))
    with pytest.raises(InvalidSpec, match="numeric field"):
        validate_spec(_spec(make_linearized(), (Axis("origin", 0, 1, 3),),
                            "cooling"))
    cfgfile = tmp_path / "c.ini"
    for section, axis in (
            ("[system]\ndelta_c = 5\nomega1 = 5\nomega2 = 5\ng1 = 0.05\n"
             "g2 = -0.0004\nomega_ex = 1\ntheta = 3.14\neta = 95\n"
             "kappa = 1\n", "unit_label 0 1 3"),
            ("[linearized]\ndelta_eff = 1\nomega1 = 1\nomega2_tilde = 1\n"
             "g1_eff = 0.1\ng2_eff = -0.01\ng22 = -0.01\nomega_ex = 0.1\n"
             "theta = 3.14\nkappa = 0.1\n", "origin 0 1 3")):
        cfgfile.write_text(section + f"[sweep]\naxis1 = {axis}\n")
        out = tmp_path / "out.csv"
        assert main(["sweep1d", "--config", str(cfgfile), "--out",
                     str(out)]) == 1
        assert not out.exists()


def test_invalid_cells_fail_alone_in_their_batch():
    # validation runs on the batch's column record: exactly the eta < 0
    # cells get a cell-error, with the scalar validator's message, and the
    # other cells' rows and diagnostics are those of a sweep over them alone
    p = make_system(gamma1=1e-5, gamma2=1e-5, nbar1=300.0, nbar2=300.0)
    res = run_sweep(_spec(p, (Axis("eta", -20.0, 20.0, 5),), "root-count"))
    errors = [(d.cell, d.message) for d in res.diagnostics
              if d.kind == "cell-error"]
    assert errors == [((0,), "NegativeValue: eta = -20.0 must be >= 0"),
                      ((1,), "NegativeValue: eta = -10.0 must be >= 0")]
    alone = run_sweep(_spec(p, (Axis("eta", 0.0, 20.0, 3),), "root-count"))
    assert table_rows(res.table)[2:] == table_rows(alone.table)
    assert root_counts(res) == [0, 0] + root_counts(alone)
    assert [(d.cell[0], d.kind, d.message) for d in res.diagnostics
            if d.kind != "cell-error"] == \
        [(d.cell[0] + 2, d.kind, d.message) for d in alone.diagnostics]


def test_invalid_cooling_cells_fail_alone_in_their_batch():
    # cooling sweeps validate their batch as steady ones do: the nbar1 < 0
    # cells get a cell-error with the scalar validator's message and no
    # occupations, and the other cells' rows are those of a sweep over them
    # alone
    lp = make_linearized()
    res = run_sweep(_spec(lp, (Axis("nbar1", -2.0, 2.0, 5),), "cooling"))
    errors = [(d.cell, d.message) for d in res.diagnostics
              if d.kind == "cell-error"]
    assert errors == [((0,), "NegativeValue: nbar1 = -2.0 must be >= 0"),
                      ((1,), "NegativeValue: nbar1 = -1.0 must be >= 0")]
    for (row,) in _cell_rows(res)[:2]:
        assert (not row["stable"] and row["n1f"] is None
                and row["residual"] is None)
    alone = run_sweep(_spec(lp, (Axis("nbar1", 0.0, 2.0, 3),), "cooling"))
    assert table_rows(res.table)[2:] == table_rows(alone.table)
    # a kappa axis through 0: the cells at and below it fail
    res = run_sweep(_spec(lp, (Axis("kappa", -0.1, 0.1, 3),), "cooling"))
    assert [(d.cell, d.message) for d in res.diagnostics
            if d.kind == "cell-error"] == [
        ((0,), "NonPositiveRate: kappa = -0.1 must be > 0"),
        ((1,), "NonPositiveRate: kappa = 0.0 must be > 0")]


def test_steady_sweep_builds_no_per_cell_objects(monkeypatch):
    # a perf guard: a steady batch is one column record from parameters to
    # branch rows, so a one-worker 23x23 fig2a sweep constructs no
    # SteadyStateBranch and calls validate_params and dataclasses.replace a
    # fixed number of times per batch, not per cell or per branch
    import collections
    import dataclasses
    import sys

    from quadmech import validate_params
    from quadmech.recipes import RECIPES
    from quadmech.steady_state import SteadyStateBranch
    from quadmech.sweep import BATCH_CELLS
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name, fn in (("replace", dataclasses.replace),
                     ("validate_params", validate_params)):
        wrapper = counted(name, fn)
        for module in [m for n, m in sys.modules.items()
                       if n == "quadmech" or n.startswith("quadmech.")]:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(SteadyStateBranch, "__init__", counted(
        "SteadyStateBranch", SteadyStateBranch.__init__))
    _, base, axes = RECIPES["fig2a"]
    axes = tuple(dataclasses.replace(ax, points=23) for ax in axes)
    res = run_sweep(_spec(base, axes, "root-count"))
    batches = math.ceil(len(res.cells) / BATCH_CELLS)
    assert batches == 2 and len(res.table) > 1000
    assert calls["SteadyStateBranch"] == 0
    assert calls["validate_params"] == batches
    assert 0 < calls["replace"] <= 20 * batches


def test_decoupled_root_count_all_one():
    p = make_system(g1=0.0, g2=0.0, eta=30.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 0.0, 6.0, 31),), "root-count"))
    assert len(res.cells) == 31
    counts = root_counts(res)
    stable_counts = per_cell(res, res.table.cols["stable"]
                             & res.table.present["stable"]).tolist()
    assert all(c == 1 for c in counts)
    assert all(s <= c for s, c in zip(stable_counts, counts))


def test_row_major_cell_order():
    p = make_system(g1=0.0, g2=0.0, eta=10.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 0.0, 1.0, 3),
                              Axis("eta", 5.0, 10.0, 2)), "root-count"))
    assert [tuple(c) for c in res.cells.tolist()] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_determinism_across_workers(monkeypatch):
    p = make_system(eta=56.5, omega_ex=0.005)
    axes = (Axis("delta_c", 2.5, 4.5, 9),)
    serial = run_sweep(_spec(p, axes, "root-count", threads=1))
    started = _on_the_pool(monkeypatch)
    parallel = run_sweep(_spec(p, axes, "root-count", threads=2))
    assert started == [2]
    assert pickle.dumps((serial.cells, serial.offsets, serial.table)) == \
        pickle.dumps((parallel.cells, parallel.offsets, parallel.table))


def test_theta_mirror_counts_on_symmetric_grid():
    p = make_system(delta_c=5.0)
    res = run_sweep(_spec(p, (Axis("theta", 0.0, math.pi, 21),), "root-count"))
    counts = root_counts(res)
    assert counts == counts[::-1]


def test_branch_curve_labels_follow_branches():
    p = make_system(g2=0.0, eta=45.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 2.05, 2.25, 21),), "branch-curve"))
    by_label = {}
    for cell in _cell_rows(res):
        for row in cell:
            by_label.setdefault(row["branch_index"], []).append(
                (row["delta_c"], row["n_p"]))
    # one label per continuous branch: the lowest-photon branch moves smoothly
    for label, pts in by_label.items():
        if len(pts) < 3:
            continue
        ns = np.array([v for _, v in pts])
        rel_jump = np.abs(np.diff(ns)) / np.maximum(1.0, ns[:-1])
        assert np.all(rel_jump < 0.5)


def test_continuation_labels_follow_nearest_n_p():
    # cells [1.0, 5.0], [1.1, 3.0, 4.9], [], [2.0], [1.2, 4.0]: a new branch
    # gets a fresh label; after an empty cell every label is fresh; a tie
    # goes to the lower previous label
    n_p = np.array([1.0, 5.0, 1.1, 3.0, 4.9, 2.0, 1.2, 4.0])
    assert continuation_labels(n_p, [0, 2, 5, 5, 6, 8]).tolist() == \
        [0, 1, 0, 2, 1, 3, 3, 4]
    assert continuation_labels(np.array([1.0, 3.0, 2.0]),
                               [0, 2, 3]).tolist() == [0, 1, 0]


def _greedy_labels(n_p, offsets):
    """The labeller as a plain greedy matching of every cell's pairs in the
    order (distance, label, branch): the reference of continuation_labels."""
    prev = {}
    next_label = 0
    out = np.empty(len(n_p), dtype=np.int64)
    every = np.asarray(n_p, dtype=float).tolist()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        nps = every[lo:hi]
        assignment = {}
        for _, label, k in sorted((abs(n - n_prev), label, k)
                                  for k, n in enumerate(nps)
                                  for label, n_prev in prev.items()):
            if label not in assignment.values() and k not in assignment:
                assignment[k] = label
        for k in range(len(nps)):
            if k not in assignment:
                assignment[k], next_label = next_label, next_label + 1
        labels = [assignment[k] for k in range(len(nps))]
        prev = dict(zip(labels, nps))
        out[lo:hi] = labels
    return out


@st.composite
def labelled_curves(draw):
    """A curve of 1-40 cells of 0-7 branches each, with n_p on a coarse
    grid, so that repeated values and exact distance ties occur, and in
    ascending order within a cell when the draw says so, as the solver
    gives them."""
    counts = draw(st.lists(st.integers(0, 7), min_size=1, max_size=40))
    step = draw(st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    n_p = [step * draw(st.integers(0, 12)) for _ in range(sum(counts))]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    if draw(st.booleans()):
        n_p = [x for lo, hi in zip(offsets[:-1], offsets[1:])
               for x in sorted(n_p[lo:hi])]
    return np.array(n_p, dtype=float), offsets


@settings(max_examples=400, deadline=None, derandomize=True)
@given(curve=labelled_curves())
def test_continuation_labels_equal_the_greedy_reference(curve):
    n_p, offsets = curve
    assert continuation_labels(n_p, offsets).tolist() == \
        _greedy_labels(n_p, offsets).tolist()
    assert continuation_labels(n_p, offsets.tolist()).tolist() == \
        _greedy_labels(n_p, offsets).tolist()


def test_continuation_labels_on_figure_curves():
    # the fig3d curve and the fig4 cases: the cells that take their
    # nearest antecedents' labels and those matched greedily give the
    # reference labels
    from quadmech.recipes import RECIPES, branch_cooling_sweep
    res = run_sweep(_spec(RECIPES["fig3d"][1], (Axis("theta", 0.0, math.pi,
                                                     201),), "branch-curve"))
    held = res.table.present["branch_index"]
    counts = per_cell(res, held)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    n_p = res.table.cols["n_p"][held]
    assert len(set(counts.tolist())) > 1
    assert continuation_labels(n_p, offsets).tolist() == \
        _greedy_labels(n_p, offsets).tolist()
    ratios = np.linspace(0.05, 0.62, 58)
    for convention in ("kappa", "omega1"):
        for table in branch_cooling_sweep(RECIPES["fig4"][1], ratios,
                                          convention).values():
            ratio = table.cols["kappa_over_omega1"]
            counts = np.array([np.count_nonzero(ratio == r) for r in ratios])
            offsets = np.concatenate([[0], np.cumsum(counts)])
            assert table.cols["branch_index"].tolist() == \
                _greedy_labels(table.cols["n_p"], offsets).tolist()


def test_table_split_gives_each_case_its_rows():
    # per-cell row counts with zeros (a cell without rows, and a whole case
    # without rows), cut case by case as branch_cooling_sweep cuts its batch
    counts = np.array([[2, 0, 1], [0, 0, 0], [3, 1, 0]])
    n = int(counts.sum())
    table = Table({"n_p": np.arange(n, dtype=float),
                   "stable": np.arange(n) % 2 == 0},
                  {"n1f": np.arange(n) % 3 == 0})
    parts = table.split(counts.sum(axis=1))
    assert [len(t) for t in parts] == [3, 0, 4]
    cell_rows = np.split(np.arange(n), np.cumsum(counts.ravel())[:-1])
    for case, part in enumerate(parts):
        rows = np.concatenate(cell_rows[3 * case:3 * case + 3])
        assert list(part.cols) == ["n_p", "stable"]
        assert list(part.present) == ["n1f"]
        for name, col in table.cols.items():
            assert part.cols[name].dtype == col.dtype
            assert part.cols[name].tolist() == col[rows].tolist()
        assert part.present["n1f"].tolist() == \
            table.present["n1f"][rows].tolist()
    whole = Table.concat(parts)
    assert {k: v.tolist() for k, v in whole.cols.items()} == \
        {k: v.tolist() for k, v in table.cols.items()}
    assert whole.present["n1f"].tolist() == table.present["n1f"].tolist()
    assert [len(t) for t in Table({"n_p": np.zeros(0)}).split([0, 0])] == \
        [0, 0]


def test_cooling_map_thermal_cells():
    lp = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                         gamma1=1e-4, gamma2=1e-4, nbar1=9.0, nbar2=4.0)
    res = run_sweep(_spec(lp, (Axis("kappa", 0.05, 0.5, 7),), "cooling"))
    for (row,) in _cell_rows(res):
        assert row["stable"]
        assert row["n1f"] == pytest.approx(9.0, rel=1e-10)
        assert row["n2f"] == pytest.approx(4.0, rel=1e-10)
        assert row["dark_overlap"] is None


def test_cooling_map_marks_unstable_cells():
    lp = make_linearized(g1_eff=0.1, g2_eff=-0.01, g22=-0.01, omega_ex=0.1,
                         delta_eff=-1.0)   # blue-detuned: amplification
    res = run_sweep(_spec(lp, (Axis("kappa", 0.02, 0.2, 5),), "cooling"))
    rows = [cell[0] for cell in _cell_rows(res)]
    assert any(not r["stable"] for r in rows)
    for r in rows:
        if not r["stable"]:
            assert r["n1f"] is None and r["n2f"] is None
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
    for (row,) in _cell_rows(res):
        assert row["dark_overlap"] == pytest.approx(math.sqrt(2.0), rel=1e-12)


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
    for (row,) in _cell_rows(res):
        if row["dark_overlap"] is not None and row["dark_overlap"] < 0.02:
            hit += 1
            if row["stable"]:
                assert max(row["n1f"], row["n2f"]) > 1.0
    assert hit >= 1


def test_fig2a_plane_tables_identical_across_workers(monkeypatch, tmp_path):
    # the two-worker run solves 4-cell batches, the one-worker run one
    # batch; a cell's roots and verdicts must not depend on which cells
    # share its batch
    from quadmech.cli import main
    paths, started = [], []
    for threads in (1, 2):
        if threads == 2:
            started = _on_the_pool(monkeypatch)
        out = tmp_path / f"fig2a_{threads}.csv"
        assert main(["reproduce", "fig2a", "--out", str(out), "--set",
                     "points=9", "--threads", str(threads)]) in (0, 2)
        paths.append(out)
    assert started == [2]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    side = [p.with_suffix(".csv.diagnostics.txt").read_text() for p in paths]
    assert side[0] == side[1]


def test_failing_cell_does_not_fail_its_batch(monkeypatch, tmp_path):
    # a cell whose solve raises gets a cell-error; its batch-mates still solve
    import quadmech.steady_state as ss
    real = ss.build_polynomial

    def broken(p):       # a batch's column record
        if np.any(np.asarray(p.delta_c) == 3.0):
            raise RuntimeError("boom")
        return real(p)
    monkeypatch.setattr(ss, "build_polynomial", broken)
    p = make_system(g1=0.0, g2=0.0, eta=10.0)
    res = run_sweep(_spec(p, (Axis("delta_c", 1.0, 5.0, 5),), "root-count"))
    counts = root_counts(res)
    assert counts == [1, 1, 0, 1, 1]
    errors = [d for d in res.diagnostics if d.kind == "cell-error"]
    assert [d.cell for d in errors] == [(2,)]
    # the failed cell writes one row: its axis value, every other field empty
    rows = _written(res, tmp_path / "five.csv")
    assert [r for r in rows if r[1:] == [""] * 7] == [["3"] + [""] * 7]
    assert len(rows) == 5
    # on the pool, in 4-cell batches: the same table from 1 and 2 workers
    nine = (Axis("delta_c", 1.0, 5.0, 9),)
    tables = [_written(run_sweep(_spec(p, nine, "root-count")),
                       tmp_path / "nine_1.csv")]
    started = _on_the_pool(monkeypatch)
    tables.append(_written(run_sweep(_spec(p, nine, "root-count", threads=2)),
                           tmp_path / "nine_2.csv"))
    assert started == [2]
    assert tables[0] == tables[1]
    assert [r for r in tables[0] if r[1] == ""] == [["3"] + [""] * 7]


def test_failing_cooling_cells_do_not_fail_their_batch(monkeypatch, tmp_path):
    # a NaN entry, a singular Lyapunov system and an UnphysicalResult each
    # fail only their own cell; the batch-mates keep their values
    from dataclasses import replace

    import quadmech.cooling as cooling
    base = make_linearized()
    spec = _spec(base, (Axis("kappa", 0.05, 0.35, 7),), "cooling")
    clean = run_sweep(spec)
    kappas = clean.table.cols["kappa"].tolist()
    real_drift, real_noise = cooling.build_drift_matrix, cooling.build_noise_model
    hostile = make_linearized(g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                              gamma1=1e-3, gamma2=1e-3, nbar1=5.0, nbar2=5.0)
    singular = replace(base, g1_eff=0.0, g2_eff=0.0, g22=0.0, omega_ex=0.0,
                       gamma1=0.0, gamma2=0.0)   # undamped, uncoupled
    q = real_noise(hostile).copy()
    q[1, 1] = q[4, 4] = 0.2 * 1e-3   # emission weaker than vacuum: n < 0

    # the builders get column records; the stubs edit the faulty cells' rows
    def drift(lp):
        a = real_drift(lp).copy()
        kappa = np.atleast_1d(lp.kappa)
        a[kappa == kappas[1], 2, 2] = np.nan
        a[kappa == kappas[3]] = real_drift(singular)
        a[kappa == kappas[5]] = real_drift(hostile)
        return a

    def noise(lp):
        nm = real_noise(lp)
        at = np.atleast_1d(lp.kappa) == kappas[5]
        nm[at] = q
        return nm
    monkeypatch.setattr(cooling, "build_drift_matrix", drift)
    monkeypatch.setattr(cooling, "build_noise_model", noise)
    res = run_sweep(spec)
    errors = [d for d in res.diagnostics if d.kind == "cell-error"]
    assert [d.cell for d in errors] == [(1,), (3,), (5,)]
    assert [d.message.split(":")[0] for d in errors] == \
        ["ValueError", "SingularLyapunov", "UnphysicalResult"]
    for k, ((row,), (want,)) in enumerate(zip(_cell_rows(res),
                                              _cell_rows(clean))):
        if k in (1, 3, 5):
            assert (not row["stable"] and row["n1f"] is None
                    and row["residual"] is None)
            assert row["dark_overlap"] == want["dark_overlap"]
        else:
            assert row == want
    # written: stable 0, empty occupations and residual, the dark overlap
    header = ("kappa",) + COLUMNS
    written = [dict(zip(header, r)) for r in _written(res, tmp_path / "f.csv")]
    clean_rows = _written(clean, tmp_path / "clean.csv")
    for k in (1, 3, 5):
        row = written[k]
        assert row["stable"] == "0"
        assert row["n1f"] == row["n2f"] == row["residual"] == ""
        assert row["dark_overlap"] == dict(zip(header, clean_rows[k]))[
            "dark_overlap"] != ""


def test_cooling_map_tables_identical_across_workers(monkeypatch, tmp_path):
    # the two-worker run solves other batches than the one-worker run
    from quadmech.cli import main
    paths, started = [], []
    for threads in (1, 2):
        if threads == 2:
            started = _on_the_pool(monkeypatch)
        out = tmp_path / f"fig6_{threads}.csv"
        assert main(["reproduce", "fig6", "--out", str(out), "--set",
                     "points=9", "--threads", str(threads)]) == 0
        paths.append(out)
    assert started == [2]
    assert paths[0].read_bytes() == paths[1].read_bytes()



class _Chunked(Exception):
    """Raised by the serial pool once it has recorded the chunks."""


class _SerialPool:
    """A serial stand-in for ProcessPoolExecutor that records the length of
    each chunk it is handed; with ``solve`` off it raises instead."""

    chunks: list = []
    workers = 0
    solve = True

    def __init__(self, max_workers):
        type(self).workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, specs, cells, values):
        cells = list(cells)
        type(self).chunks = [len(c) for c in cells]
        if not self.solve:
            raise _Chunked
        return map(fn, specs, cells, values)


@pytest.mark.parametrize("points, axes, want", [
    (21, 2, []),                    # one batch: no pool
    (201, 2, [5051] * 7 + [5044]),  # a large plane: four chunks a worker
    (9, 1, []),                     # fewer cells than a batch: no pool
    (23, 2, [265, 264]),            # two batches: whole batches
])
def test_pool_chunks_of_whole_batches(monkeypatch, points, axes, want):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "solve", points < 100)
    monkeypatch.setattr(_SerialPool, "chunks", [])
    grid = (Axis("delta_eff", 0.5, 1.5, points),
            Axis("kappa", 0.05, 0.5, points))[:axes]
    spec = _spec(make_linearized(), grid, "cooling", threads=2)
    if _SerialPool.solve:   # the chunks assemble the one-worker table
        serial = run_sweep(_spec(make_linearized(), grid, "cooling"))
        assert pickle.dumps(run_sweep(spec).table) == \
            pickle.dumps(serial.table)
    else:
        with pytest.raises(_Chunked):
            run_sweep(spec)
    assert _SerialPool.chunks == want


@pytest.mark.parametrize("points, want", [
    (21, []),                       # one batch: no pool on any count
    (23, [265, 264]),               # two batches: two of eight workers
])
def test_pool_rule_ignores_the_worker_count(monkeypatch, points, want):
    # the serial crossover was measured on two workers; more workers must
    # not send larger grids to one core
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "chunks", [])
    monkeypatch.setattr(_SerialPool, "workers", 0)
    grid = (Axis("delta_eff", 0.5, 1.5, points),
            Axis("kappa", 0.05, 0.5, points))
    serial = run_sweep(_spec(make_linearized(), grid, "cooling"))
    spec = _spec(make_linearized(), grid, "cooling", threads=8)
    assert pickle.dumps(run_sweep(spec).table) == pickle.dumps(serial.table)
    assert _SerialPool.chunks == want
    assert _SerialPool.workers == len(want)


def test_steady_sweep_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs a cold pool worker about 12 ms to import; no steady
    # batch needs it
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from quadmech.cli import main\n"
            f"main(['reproduce', 'fig2a', '--set', 'points=9', "
            f"'--out', {str(tmp_path / 'fig2a.csv')!r}])\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert (tmp_path / "fig2a.csv").stat().st_size > 0
    assert out.stdout.strip() == "False"
