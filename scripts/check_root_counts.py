"""Root counts of every root-count figure grid against the exact Sturm count.

    python3 scripts/check_root_counts.py [--plane-points 61] [--curve-points 801]

For each cell of the ``fig2a``, ``fig2b``, ``fig3a`` and ``fig3c`` planes
and of the ``fig2c``, ``fig2d``, ``fig3b`` and ``fig3d`` curves, compares
the root count of ``root_sets`` (the exact degree-7 route with its fallback)
and of ``oracle_roots`` (critical-point isolation) with the exact rational
Sturm count of ``tests/conftest.py``, and counts the cells whose exact-route
certificate failed.  Prints one line per grid and exits 1 when any count
differs.  Run it from the repository root; it imports quadmech from ./src.
At the default sizes it checks 18088 cells, in about 85 s on one core of a
2-vCPU host.
"""
from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import sturm_root_count  # noqa: E402
from quadmech.params import param_columns, validate_params  # noqa: E402
from quadmech.recipes import RECIPES  # noqa: E402
from quadmech.steady_state import oracle_roots, root_sets  # noqa: E402

PLANES = ("fig2a", "fig2b", "fig3a", "fig3c")
CURVES = ("fig2c", "fig2d", "fig3b", "fig3d")


def cells(tag: str, points: int) -> list:
    """The parameter sets of a recipe's grid at ``points`` per axis, in
    row-major order."""
    _, base, axes = RECIPES[tag]
    values = [replace(ax, points=points).values() for ax in axes]
    grid = np.meshgrid(*values, indexing="ij")
    return [validate_params(replace(base, **{
        ax.name: float(g.flat[j]) for ax, g in zip(axes, grid)}))
        for j in range(grid[0].size)]


def check(tag: str, points: int) -> int:
    """Print one grid's line; return its number of count differences."""
    t0 = time.perf_counter()
    ps = cells(tag, points)
    sinks = [[] for _ in ps]
    q = param_columns(ps)[0]
    counts = [len(r) for r in root_sets(q, True, False, sinks)]
    isolated = [len(r) for r in oracle_roots(q)]
    exact = [sturm_root_count(p) for p in ps]
    uncertified = sum(d.kind == "isolation-fallback"
                      for sink in sinks for d in sink)
    off = sum(a != b for a, b in zip(counts, exact))
    off_iso = sum(a != b for a, b in zip(isolated, exact))
    histogram = " ".join(f"{k}:{v}" for k, v in sorted(Counter(exact).items()))
    print(f"{tag} {len(ps)} cells: root_sets differs on {off}, isolation "
          f"on {off_iso}; {uncertified} uncertified; Sturm counts "
          f"{histogram}; {time.perf_counter() - t0:.1f} s", flush=True)
    return off + off_iso


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--plane-points", type=int, default=61)
    ap.add_argument("--curve-points", type=int, default=801)
    args = ap.parse_args(argv)
    off = sum(check(tag, args.plane_points) for tag in PLANES)
    off += sum(check(tag, args.curve_points) for tag in CURVES)
    print(f"count differences: {off}")
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
