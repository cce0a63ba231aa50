"""quadmech benchmark: canned ``reproduce`` recipes, run the way a user runs
them, timed end to end, with a traced run for per-layer figures.

    python3 perfbench/run.py --workload multistab_planes --seed 1 \\
        --seconds 20 --trace 0

Run it from the repository root; it imports quadmech from ./src.  One run
repeats whole rounds of the workload's recipes (``workloads.py``) until
``--seconds`` have passed, writing every table to .perfbench_out/, then
checks the last round's tables with ``checks.py``.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh processes of start to ready-to-run (the
               import of quadmech/NumPy/SciPy and the round's command lines)
  wall_s       median round time: first recipe call to last table, plot stub
               and diagnostics sidecar written, worker-pool start-up included
  cells_per_s  parameter-grid cells per second of wall_s
  peak_rss_mb  highest resident set of this process and its sweep workers
--trace 1 alternates untraced and traced one-worker rounds and prints the
per-layer metrics of ``spans.PER_LAYER``; spans of the last traced round go
to .perfbench_out/<workload>-trace1/spans.csv.

``--workload all`` runs every workload in its own process.  The last line of
standard output is one JSON object: correct, attempted and failed grid
cells, and the metrics.  The seed picks the branches and rows that the
sampled checks recompute; the recipes pin every input of the program.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, argv_lists, nproc

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SRC = ROOT / "src"
SETUP_PROBES = 5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cells_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
_CELL_ERROR = re.compile(r"^cell-error cell=(\(.*?\)) ")


def import_program():
    """Import quadmech from ./src; exit with status 1 when it is not there."""
    if not (SRC / "quadmech" / "__init__.py").is_file():
        sys.exit(f"error: no quadmech sources under {SRC}; "
                 f"run the benchmark from the repository root")
    sys.path.insert(0, str(SRC))
    import quadmech.cli
    if not Path(quadmech.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: quadmech was imported from {quadmech.cli.__file__}, "
                 f"not from {SRC}")
    return quadmech


def run_round(cli, w: Workload, out_dir: Path, threads: int):
    """One round of the workload; returns (wall seconds, exit codes, errors)."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    commands = argv_lists(w, out_dir, threads)
    codes, errors = [], []
    t0 = time.perf_counter()
    for argv in commands:
        try:
            codes.append(cli.main(argv))
        except Exception as exc:   # a crashed recipe fails all its cells
            codes.append(None)
            errors.append(f"{argv[1]}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, codes, errors


def failed_cells(w: Workload, out_dir: Path, codes) -> int:
    """Cells with a cell-error diagnostic; every cell of a recipe that
    exited with 1 or raised.  Exit status 2 only flags mismatch diagnostics."""
    failed = 0
    for call, rc in zip(w.calls, codes):
        if rc not in (0, 2):
            failed += call.cells()
            continue
        side = out_dir / f"{call.stem}.csv.diagnostics.txt"
        if side.exists():
            failed += len({m.group(1) for line in side.read_text().splitlines()
                           if (m := _CELL_ERROR.match(line))})
    return failed


def table_digest(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def setup_seconds(w: Workload) -> float:
    """Median time from process start to the probe's ``ready`` line."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(probe), w.name],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (status {proc.returncode})")
    return statistics.median(times)


def fmt_list(xs) -> str:
    return " ".join(f"{x:.3f}" for x in xs)


def peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process and of its waited-for
    children, which are the sweep workers at the point this is read."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


class Run:
    """Rounds of one workload: cells attempted and failed, and problems
    seen (recipes that raised, tables that differ from the first round's)."""

    def __init__(self, cli, w: Workload):
        self.cli, self.w = cli, w
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[str, str] | None = None

    def round(self, out_dir: Path, threads: int, trace=None) -> float:
        if trace is None:
            wall, codes, errors = run_round(self.cli, self.w, out_dir, threads)
        else:
            with trace.install():
                wall, codes, errors = run_round(self.cli, self.w, out_dir,
                                                threads)
        self.problems += errors
        self.attempted += self.w.cells()
        self.failed += failed_cells(self.w, out_dir, codes)
        tables = table_digest(out_dir)
        if self.first_digest is None:
            self.first_digest = tables
        elif tables != self.first_digest:
            changed = sorted(k for k in tables.keys() | self.first_digest.keys()
                             if tables.get(k) != self.first_digest.get(k))
            self.problems.append(f"tables of a {threads}-worker round differ "
                                 f"from the first round's: {changed}")
        return wall


def run_checks(w: Workload, out_dir: Path, seed: int):
    import numpy as np
    import checks
    rng = np.random.default_rng(seed)
    reports = []
    for call in w.calls:
        for name in call.tables():
            try:
                table = checks.read_table(out_dir / name)
            except (OSError, ValueError) as exc:
                reports.append(checks.Report(f"read:{name}", errors=[str(exc)]))
                continue
            cells = checks.Report(f"cells:{name}", checked=1)
            want = call.cells() // len(call.tables())
            if len(table.cells()) != want:
                cells.fail(f"{name}: {len(table.cells())} cells, want {want}")
            reports.append(cells)
            if table.meta.get("recipe.mode") == "cooling":
                reports += checks.check_cooling_map(name, table, rng)
                continue
            reports.append(checks.check_parity(name, table))
            reports += checks.check_branches(name, table, rng)
            if table.meta.get("recipe.mode") == "root-count":
                reports.append(checks.check_coverage(name, table))
    return reports


def plain_rounds(run: Run, base: Path, deadline: float):
    """End-to-end metrics; returns them and the directory of the tables of
    the last nproc-worker round.  A parallel workload also runs one round
    with one worker, whose tables must be byte-identical."""
    w = run.w
    tables = base / "tables"
    walls = []
    while True:
        walls.append(run.round(tables, w.threads()))
        if time.perf_counter() >= deadline:
            break
    print(f"round walls {fmt_list(walls)} s")
    rss = peak_rss_mb()
    if w.parallel:
        run.round(base / "one_worker", 1)
    wall = statistics.median(walls)
    values = {"wall_s": wall, "cells_per_s": w.cells() / wall,
              "peak_rss_mb": rss, "setup_s": setup_seconds(w)}
    return {name: (values[name], unit) for name, unit in END_TO_END}, tables


def traced_rounds(qm, run: Run, base: Path, deadline: float):
    """Per-layer metrics from traced one-worker rounds, paired with untraced
    ones for the overhead; a parallel workload then runs one nproc-worker
    round, whose tables must be byte-identical to the traced ones."""
    from spans import PER_LAYER, Tracer
    w = run.w
    tracer = Tracer()
    tables = base / "tables"
    plain, traced, layers = [], [], []
    while True:   # pairs, alternating which side runs first
        for traced_turn in (len(plain) % 2 == 1, len(plain) % 2 == 0):
            if traced_turn:
                tracer.reset()
                traced.append(run.round(tables, 1, trace=tracer))
                layers.append(tracer.layer_metrics(qm.steady_state.roots_match))
            else:
                plain.append(run.round(base / "plain", 1))
        if time.perf_counter() >= deadline:
            break
    print(f"round walls untraced {fmt_list(plain)} s, "
          f"traced {fmt_list(traced)} s")
    tracer.write(base / "spans.csv")
    if w.parallel:
        run.round(base / "workers", w.threads())
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead":
            value = statistics.median(traced) / statistics.median(plain)
        elif unit in ("count", "B"):    # the same in every round
            value = statistics.median_low(m[name] for m in layers)
        else:
            value = statistics.median(m[name] for m in layers)
        metrics[name] = (value, unit)
    return metrics, tables


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    qm = import_program()
    run = Run(qm.cli, w)
    base = OUT / f"{w.name}-trace{int(trace)}"
    if base.exists():
        shutil.rmtree(base)
    deadline = time.perf_counter() + seconds
    if trace:
        metrics, tables = traced_rounds(qm, run, base, deadline)
    else:
        metrics, tables = plain_rounds(run, base, deadline)
    reports = run_checks(w, tables, seed)
    for r in reports:
        print(f"check {r.name}: {r.checked} checked, {r.skipped} skipped"
              + (f", FAILED: {'; '.join(r.errors)}" if r.errors else ""))
    for p in run.problems:
        print(f"problem: {p}")
    correct = not run.problems and not any(r.errors for r in reports)
    return {"correct": correct, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        w = WORKLOADS[args.workload]
        print(f"machine: nproc={nproc()} python={platform.python_version()} "
              f"workload={w.name} threads={w.threads()} cells/round={w.cells()}")
        result = measure(w, args.seed, args.seconds, bool(args.trace))
    for k, v in result["metrics"].items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    print(f"cells attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
