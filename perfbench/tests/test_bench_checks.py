"""The benchmark's checks reject tables corrupted on purpose.

    python3 -m pytest -q perfbench/tests

Tables come from the program at tiny grid sizes; each test corrupts one
property and asserts the matching check reports it, after asserting that the
clean table passes the same check.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402
from workloads import Call, Workload  # noqa: E402
from quadmech.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    for tag, pts, conv in (("fig2a", 7, "kappa"), ("fig3d", 15, "kappa"),
                           ("fig4", 5, "omega1"), ("fig5", 6, "kappa")):
        stem = out / (f"{tag}_{conv}.csv" if tag == "fig4" else f"{tag}.csv")
        assert main(["reproduce", tag, "--out", str(stem), "--set",
                     f"points={pts}", "--convention", conv]) in (0, 2)
    return {p.stem: (p.read_text()) for p in out.glob("*.csv")}


def table(tables, name, edit=None) -> checks.Table:
    t = checks.parse_table(tables[name])
    if edit is not None:
        for row in t.rows:
            edit(row)
    return t


def errors(reports, kind) -> list[str]:
    return [e for r in reports if r.name.startswith(kind) for e in r.errors]


def branch_reports(t, name="t"):
    return [checks.check_parity(name, t)] + checks.check_branches(
        name, t, np.random.default_rng(0), size=10**6)


def cooling_reports(t, name="t"):
    return checks.check_cooling_map(name, t, np.random.default_rng(0),
                                    size=10**6)


@pytest.mark.parametrize("name", ["fig2a", "fig3d", "fig4_omega1_linear",
                                  "fig4_omega1_quadratic"])
def test_clean_branch_tables_pass(tables, name):
    reports = branch_reports(table(tables, name))
    assert not [e for r in reports for e in r.errors]
    assert all(r.checked > 0 for r in reports if r.name.split(":")[0]
               in ("parity", "residual", "stability"))


def test_clean_cooling_map_passes(tables):
    reports = cooling_reports(table(tables, "fig5"))
    assert not [e for r in reports for e in r.errors]
    assert all(r.checked > 0 for r in reports)


@pytest.mark.parametrize("name", ["fig2a", "fig4_omega1_quadratic"])
def test_shifted_np_fails_residual(tables, name):
    def shift(row):
        if row["n_p"]:
            row["n_p"] = repr(float(row["n_p"]) * (1.0 + 1e-4))
    assert errors(branch_reports(table(tables, name, shift)), "residual")


@pytest.mark.parametrize("name", ["fig2a", "fig3d", "fig4_omega1_linear"])
def test_flipped_stable_fails_stability(tables, name):
    def flip(row):
        if row["stable"]:
            row["stable"] = "0" if row["stable"] == "1" else "1"
    assert errors(branch_reports(table(tables, name, flip)), "stability")


def test_flipped_stable_fails_on_cooling_map(tables):
    def flip(row):
        row["stable"] = "0" if row["stable"] == "1" else "1"
    assert errors(cooling_reports(table(tables, "fig5", flip)), "stability")


@pytest.mark.parametrize("name", ["fig2a", "fig5"])
def test_all_marginal_sample_fails_stability(tables, name, monkeypatch):
    """A stability check that skips its whole sample does not pass."""
    monkeypatch.setattr(checks, "MARGIN_FLOOR", 1e30)
    t = table(tables, name)
    reports = cooling_reports(t) if name == "fig5" else branch_reports(t)
    assert errors(reports, "stability")


@pytest.mark.parametrize("name", ["fig5", "fig4_omega1_linear"])
def test_scaled_n1f_fails_cooling(tables, name):
    def scale(row):
        if row["n1f"]:
            row["n1f"] = repr(float(row["n1f"]) * (1.0 + 1e-5))
    t = table(tables, name, scale)
    reports = (cooling_reports(t) if name == "fig5" else branch_reports(t))
    assert errors(reports, "cooling")


def test_negative_occupation_fails_cooling(tables):
    t = table(tables, "fig5")
    t.rows[3]["n2f"] = "-1e-3"
    reps = checks.check_cooling_map("t", t, np.random.default_rng(0), size=1)
    assert errors(reps, "cooling")


@pytest.mark.parametrize("name", ["fig2a", "fig3d"])
def test_dropped_branch_fails_parity(tables, name):
    t = table(tables, name)
    multi = next(k for k in range(1, len(t.rows))
                 if t.rows[k][t.axes[-1]] == t.rows[k - 1][t.axes[-1]]
                 and t.rows[k][t.axes[0]] == t.rows[k - 1][t.axes[0]])
    del t.rows[multi]
    assert errors([checks.check_parity("t", t)], "parity")


def test_missing_count_fails_coverage(tables):
    t = table(tables, "fig2a")
    seen = {count for _, count in checks.branch_counts(t)}
    assert not checks.check_coverage("t", t, wanted=seen).errors
    top = max(seen)
    keep = {key for key, count in checks.branch_counts(t) if count != top}
    t.rows = [r for r in t.rows if tuple(r[a] for a in t.axes) in keep]
    assert checks.check_coverage("t", t, wanted=seen).errors


def test_changed_table_bytes_are_reported(tmp_path):
    """A round whose tables differ from the first round's is a problem, as
    is a worker count whose tables differ."""
    class Program:
        calls = 0

        def main(self, argv):
            self.calls += 1
            out = Path(argv[argv.index("--out") + 1])
            out.write_text("n_p\n1\n" if self.calls < 3 else "n_p\n2\n")
            return 0

    w = Workload("fake", (Call("fig5", 3),), parallel=False)
    run = bench.Run(Program(), w)
    run.round(tmp_path / "a", 1)
    run.round(tmp_path / "a", 1)
    assert not run.problems
    run.round(tmp_path / "b", 2)
    assert run.problems and "2-worker" in run.problems[0]


def test_benchmark_json_lists_the_reported_metrics():
    import json
    from spans import PER_LAYER
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert ({(m["name"], m["unit"]) for m in spec["end_to_end"]}
            == set(bench.END_TO_END))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
