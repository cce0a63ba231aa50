"""Workload definitions: which ``quadmech reproduce`` calls make up one round.

Kept free of NumPy and quadmech imports so that the set-up probe measures
the program's import, not the benchmark's.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Call:
    tag: str
    points: int
    convention: str = "kappa"

    @property
    def stem(self) -> str:
        return self.tag if self.tag != "fig4" else f"fig4_{self.convention}"

    def cells(self) -> int:
        """Parameter-grid cells the call evaluates: fig4 runs two cases of
        ``points`` ratios, 1D recipes ``points`` cells, 2D recipes
        ``points`` squared (the points override applies to every axis)."""
        if self.tag == "fig4":
            return 2 * self.points
        if self.tag in ONE_D:
            return self.points
        return self.points**2

    def tables(self) -> list[str]:
        if self.tag == "fig4":
            return [f"{self.stem}_linear.csv", f"{self.stem}_quadratic.csv"]
        return [f"{self.stem}.csv"]


ONE_D = {"fig3d"}            # the one-axis recipes the workloads run


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    parallel: bool          # run with nproc sweep workers, else one

    def threads(self) -> int:
        return nproc() if self.parallel else 1

    def cells(self) -> int:
        return sum(c.cells() for c in self.calls)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    # The two root-count planes of acceptance criterion 4 (g1 x delta_c and
    # g2 x delta_c), at 21 x 21: the smallest grid on which both planes
    # still show 1, 3, 5 and 7 branches.
    "multistab_planes": Workload("multistab_planes", (
        Call("fig2a", 21), Call("fig2b", 21)), parallel=True),
    # A theta branch curve and the branch-resolved cooling of fig4 (both
    # cases, both conventions) at its own 58 ratios.
    "branch_curves": Workload("branch_curves", (
        Call("fig3d", 201), Call("fig4", 58, "kappa"),
        Call("fig4", 58, "omega1")), parallel=False),
    # Three direct cooling maps, 61 x 61 each.
    "cooling_maps": Workload("cooling_maps", (
        Call("fig5", 61), Call("fig6", 61), Call("fig7", 61)), parallel=False),
}


def argv_lists(w: Workload, out_dir: Path, threads: int) -> list[list[str]]:
    """The command lines of one round, as a user would type them."""
    return [["reproduce", c.tag, "--out", str(out_dir / f"{c.stem}.csv"),
             "--set", f"points={c.points}", "--threads", str(threads),
             "--convention", c.convention] for c in w.calls]
