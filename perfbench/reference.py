"""Reference figures recorded in perfbench/README.md.

    python3 perfbench/reference.py           # serial baseline only
    python3 perfbench/reference.py --full    # and the 201 x 201 planes

Times the multistab_planes round with one worker (the plain serial baseline
of the nproc-worker benchmark) and, with --full, the two root-count planes at
the 201 x 201 size of acceptance criterion 4 with nproc workers, checked by
the same parity and coverage checks as the benchmark.  Compare the full
figure with the runtime criterion 4 prints:

    python3 -m pytest -q -s tests/test_acceptance.py -k criterion_04
"""
import argparse
import statistics
from dataclasses import replace

import run as bench
from workloads import WORKLOADS

REPEATS = 5


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true")
    args = ap.parse_args()
    qm = bench.import_program()
    w = WORKLOADS["multistab_planes"]
    serial = replace(w, parallel=False)
    walls = [bench.run_round(qm.cli, serial, bench.OUT / "reference", 1)[0]
             for _ in range(REPEATS)]
    print(f"multistab_planes {w.calls[0].points}x{w.calls[0].points}, one "
          f"worker: median {statistics.median(walls):.3f} s over "
          f"{REPEATS} rounds ({bench.fmt_list(walls)} s)")
    if not args.full:
        return
    full = replace(w, calls=tuple(replace(c, points=201) for c in w.calls))
    out = bench.OUT / "reference-full"
    wall, codes, errors = bench.run_round(qm.cli, full, out, w.threads())
    reports = bench.run_checks(full, out, seed=0)
    bad = errors + [e for r in reports for e in r.errors]
    print(f"multistab_planes 201x201, {w.threads()} workers: {wall:.1f} s, "
          f"exit codes {codes}, checks {'FAILED: ' + '; '.join(bad) if bad else 'passed'}")


if __name__ == "__main__":
    main()
