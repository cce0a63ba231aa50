"""Deterministic 1D/2D parameter sweeps.

Cells are independent pure computations; their rows form one column ``Table``
in row-major cell order whatever the worker count, so identical specs produce
identical tables.  Cells are solved in batches, each one column record of
parameters: per batch of steady-state cells one exact-root call
(critical-point isolation runs only for cells whose roots it cannot
certify), one stacked
reconstruction of every candidate and two stacked Routh tests; per batch of
cooling cells one batched Lyapunov solve.  Both modes validate each batch
as part of its solve, so an invalid cell fails alone.  A cell's result
depends only on the cell, never on the batch it shares.  A sweep on N > 1
workers starts a process pool only when its grid holds more than one
batch, and then cuts it
into min(4N, batches) chunks of whole batches for at most that many
workers; a one-batch grid is solved in the calling process, as on one
worker.  Supported modes:

* ``root-count`` / ``stable-count`` — steady-state branches with stability
  verdicts per cell (SystemParams base), rows from ``branch_rows``,
* ``branch-curve``  — 1D branch list with continuation-consistent labels,
* ``cooling``       — phonon numbers and dark-mode overlap per cell
  (LinearizedParams base).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .cooling import cool_linearized, dark_mode_diagnostics, flag_residuals
from .params import (LINEARIZED_NUMERIC, SYSTEM_NUMERIC, LinearizedParams,
                     SystemParams, param_columns, take_columns,
                     validate_linearized, validate_params)
from .stability import classify_branch_stability, derive_linearized
from .steady_state import Branches, Diagnostic, solve_branches

MODES = ("root-count", "stable-count", "branch-curve", "cooling")
# Cells solved as one batch: enough to amortise the fixed per-batch cost of
# the oracle, the Routh and eigenvalue stacks and the Lyapunov stacks, so a
# 21x21 plane is one batch, few enough to keep their arrays and branch
# records small.  Results do not depend on it.  A grid of one batch is
# solved in the calling process whatever the worker count: on two workers
# the pool's start-up costs more than the second core saves there (LEDGER
# "Sweep routing").  The crossover was measured on two workers only, so it
# does not scale with N.
BATCH_CELLS = 512


class InvalidSpec(ValueError):
    """Malformed sweep specification."""


@dataclass(frozen=True)
class Axis:
    """One sweep axis; a malformed one raises InvalidSpec when it is made."""

    name: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"        # or "log"

    def __post_init__(self) -> None:
        if self.points < 2:
            raise InvalidSpec("each axis needs at least 2 points")
        if not (self.lo < self.hi):
            raise InvalidSpec("axis requires lo < hi")
        if self.scale not in ("linear", "log"):
            raise InvalidSpec(f"unknown axis scale {self.scale!r}")
        if self.scale == "log" and self.lo <= 0.0:
            raise InvalidSpec("log axis requires lo > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[Axis, ...]
    base: Union[SystemParams, LinearizedParams]
    mode: str
    oracle_mode: bool = True
    gamma_fallback: bool = True
    with_damping: bool = False
    threads: int = 1


# The value columns of a row table, after its axis columns, and their dtypes.
ROW_DTYPES = dict(branch_index=np.int64, n_p=float, stable=bool, n1f=float,
                  n2f=float, dark_overlap=float, residual=float)
COLUMNS = tuple(ROW_DTYPES)


@dataclass
class Table:
    """A row table as columns: one 1-D array per column, and for each column
    that can be empty a boolean mask of the rows where it is present.  A
    column the table lacks is empty on every row."""

    cols: dict[str, np.ndarray]
    present: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(next(iter(self.cols.values()), ()))

    @staticmethod
    def concat(parts: list[Table]) -> Table:
        """The parts' rows in order; the parts share their columns."""
        first = parts[0] if parts else Table({})
        return Table({name: np.concatenate([t.cols[name] for t in parts])
                      for name in first.cols},
                     {name: np.concatenate([t.present[name] for t in parts])
                      for name in first.present})

    def split(self, sizes) -> list[Table]:
        """The table cut into consecutive parts of ``sizes`` rows, as views;
        ``concat`` of the parts gives it back."""
        ends = np.cumsum(sizes).tolist()
        return [Table({name: col[lo:hi] for name, col in self.cols.items()},
                      {name: keep[lo:hi]
                       for name, keep in self.present.items()})
                for lo, hi in zip([0] + ends[:-1], ends)]


@dataclass
class SweepResult:
    """The table of a sweep: cell c (grid index ``cells[c]``, row-major)
    owns the rows ``offsets[c]:offsets[c + 1]``, at least one each."""

    spec: SweepSpec
    cells: np.ndarray            # (n_cells, n_axes) grid indices
    table: Table
    offsets: np.ndarray          # (n_cells + 1,) row offsets
    diagnostics: list[Diagnostic]


def validate_spec(spec: SweepSpec) -> SweepSpec:
    if spec.mode not in MODES:
        raise InvalidSpec(f"unknown mode {spec.mode!r}")
    if not 1 <= len(spec.axes) <= 2:
        raise InvalidSpec("a sweep needs 1 or 2 axes")
    if spec.mode == "branch-curve" and len(spec.axes) != 1:
        raise InvalidSpec("branch-curve sweeps are 1D")
    if spec.mode == "cooling" and not isinstance(spec.base, LinearizedParams):
        raise InvalidSpec("cooling sweeps take a LinearizedParams base")
    if spec.mode != "cooling" and not isinstance(spec.base, SystemParams):
        raise InvalidSpec(f"{spec.mode} sweeps take a SystemParams base")
    numeric = (SYSTEM_NUMERIC if isinstance(spec.base, SystemParams)
               else LINEARIZED_NUMERIC)
    for ax in spec.axes:
        if ax.name not in numeric:
            raise InvalidSpec(f"axis parameter {ax.name!r} is not a numeric "
                              f"field of {type(spec.base).__name__}")
    return spec


def _cell_error(exc: Exception) -> Diagnostic:
    return Diagnostic("cell-error", f"{type(exc).__name__}: {exc}")


def _each_cell(solve, cells: list, sinks: list[list[Diagnostic]]):
    """``solve(cells, sinks)`` in one batch, as ``[(cells, result)]``.  If
    the batch raises, each half is solved the same way, down to single
    cells, so an error fails only its own cell, which gets a cell-error and
    no part of the list, while its batch-mates stay in batches."""
    try:
        return [(cells, solve(cells, sinks))]
    except Exception as exc:   # per-cell failures never abort the sweep
        if len(cells) == 1:
            sinks[0].append(_cell_error(exc))
            return []
        for sink in sinks:
            sink.clear()
        half = len(cells) // 2
        return (_each_cell(solve, cells[:half], sinks[:half])
                + _each_cell(solve, cells[half:], sinks[half:]))


def branch_rows(p: SystemParams, solved: Branches,
                sinks: list[list[Diagnostic]],
                gamma_fallback: bool = True) -> Table:
    """Output rows of each set's steady-state branches, labelled in order.

    ``solved`` holds the branches of the sets of the column record (or
    sequence) ``p``, one sink each.  All branches get one linearized column
    record and one stacked stability classification; a branch whose
    verdict flips under the gamma fallback gets a marginal-verdict
    diagnostic in its set's sink.  The cooling rule:
    rows of a damped set (gamma1 > 0 or gamma2 > 0) carry their dark
    overlap, and those that are also stable with an unflipped verdict carry
    their occupations, from one batched Lyapunov solve whose diagnostics go
    to their set's sink.  An undamped set's modes are not coupled to their
    baths, so it has no stationary occupations, and a flipped verdict puts
    the system on the margin, where the Lyapunov system is singular.  (A set
    is damped or not as a whole, so its sink gets the one kind or the other.)
    """
    owner, n_p, residual = solved.owner, solved.n_p, solved.residual
    counts = np.bincount(owner, minlength=len(sinks))
    lin = derive_linearized(solved, p)
    verdict = classify_branch_stability(lin, gamma_fallback)
    damped = (lin.gamma1 > 0.0) | (lin.gamma2 > 0.0)
    cooled = damped & verdict.stable & ~verdict.verdict_flipped
    dark, n1f, n2f = np.full((3, len(owner)), np.nan)
    if damped.any():
        dark[damped] = dark_mode_diagnostics(
            take_columns(lin, damped)).dark_overlap
    for k in np.flatnonzero(verdict.verdict_flipped).tolist():
        sinks[owner[k]].append(Diagnostic(
            "marginal-verdict",
            f"stability verdict at n_p={n_p[k]:.6g} flips between "
            f"gamma=0 and the fallback damping"))
    if cooled.any():
        cov = cool_linearized(take_columns(lin, cooled))
        n1f[cooled], n2f[cooled] = cov.n1f, cov.n2f
        flag_residuals(cov.lyap_residual,
                       [sinks[k] for k in owner[cooled].tolist()])
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return Table({"branch_index": np.arange(len(owner)) - first, "n_p": n_p,
                  "stable": verdict.stable, "n1f": n1f, "n2f": n2f,
                  "dark_overlap": dark, "residual": residual},
                 {"n1f": cooled, "n2f": cooled,
                  "dark_overlap": damped & ~np.isnan(dark)})


def _eval_steady_batch(spec: SweepSpec, p: SystemParams, sinks):
    """One batched solve for the cells of the column record ``p``, then
    ``branch_rows`` of all their branches: (the rows, each cell's branch
    count).  Validation is part of the batch, so an invalid cell fails
    alone (``_each_cell``)."""
    cells = list(range(len(sinks)))

    def solve(ks, ks_sinks):
        q = validate_params(p if ks is cells else take_columns(p, ks))
        solved = solve_branches(
            q, oracle_mode=spec.oracle_mode, with_damping=spec.with_damping,
            diagnostics=ks_sinks)
        return (branch_rows(q, solved, ks_sinks, spec.gamma_fallback),
                np.bincount(solved.owner, minlength=len(ks)))
    counts = np.zeros(len(cells), dtype=np.int64)
    parts = _each_cell(solve, cells, sinks)
    for ks, (_, n) in parts:
        counts[ks] = n
    return Table.concat([rows for _, (rows, _) in parts]), counts


def cooling_rows(lp: LinearizedParams,
                 sinks: list[list[Diagnostic]]) -> Table:
    """One direct-cooling row per cell of ``lp`` (a column record, or a
    scalar record as one cell), each cell's diagnostics going to its sink.
    The cells share one validation and one Lyapunov solve (``_each_cell``):
    an invalid or singular cell gets a cell-error, and its row, like an
    unstable cell's, keeps the occupations empty."""
    lp, _ = param_columns(lp, LinearizedParams)
    cells = list(range(len(sinks)))
    # the whole record, or a cell's own column when the batch is retried
    parts = _each_cell(lambda ks, _: cool_linearized(validate_linearized(
        lp if ks is cells else take_columns(lp, ks))), cells, sinks)
    solved, physical = np.zeros((2, len(cells)), dtype=bool)
    n1f, n2f, residual = np.full((3, len(cells)), np.nan)
    for ks, cov in parts:
        solved[ks], physical[ks] = True, cov.physical
        n1f[ks], n2f[ks], residual[ks] = cov.n1f, cov.n2f, cov.lyap_residual
    flag_residuals(residual, sinks)
    for k in np.flatnonzero(solved & ~physical).tolist():
        sinks[k].append(Diagnostic(
            "unstable-cell", "drift matrix unstable; no stationary state, "
            "so n1f and n2f are left empty"))
    dark = dark_mode_diagnostics(lp).dark_overlap
    return Table({"branch_index": np.zeros(len(cells), dtype=np.int64),
                  "stable": physical, "n1f": n1f, "n2f": n2f,
                  "dark_overlap": dark, "residual": residual},
                 {"n1f": physical, "n2f": physical,
                  "dark_overlap": ~np.isnan(dark), "residual": solved})


def _cell_table(names, values: np.ndarray, counts: np.ndarray,
                rows: Table) -> Table:
    """Each cell's axis values beside its ``counts`` rows of ``rows``, or
    alone on one row for a cell without rows."""
    per_cell = np.maximum(counts, 1)
    held = np.repeat(counts > 0, per_cell)
    table = Table({name: np.repeat(col, per_cell)
                   for name, col in zip(names, values.T)})
    for name, dtype in ROW_DTYPES.items():
        col, keep = np.zeros(len(held), dtype=dtype), held & False
        col[held] = rows.cols.get(name, 0)
        keep[held] = rows.present.get(name, name in rows.cols)
        table.cols[name], table.present[name] = col, keep
    return table


def _eval_chunk(spec: SweepSpec, cells: np.ndarray, values: np.ndarray):
    """The cells' table and branch counts, solved in batches, and their
    diagnostics, each stamped with its cell.  A batch is one column record:
    the base with each axis field an array of the batch cells' values."""
    names = [ax.name for ax in spec.axes]
    sinks: list[list[Diagnostic]] = [[] for _ in cells]
    parts = []
    for i in range(0, len(cells), BATCH_CELLS):
        p, _ = param_columns(replace(spec.base, **dict(zip(
            names, values[i:i + BATCH_CELLS].T))), type(spec.base))
        batch = sinks[i:i + BATCH_CELLS]
        parts.append((cooling_rows(p, batch), np.ones(len(batch), np.int64))
                     if spec.mode == "cooling"
                     else _eval_steady_batch(spec, p, batch))
    for index, sink in zip(cells.tolist(), sinks):
        for d in sink:
            d.cell = tuple(index)
    counts = np.concatenate([n for _, n in parts])
    return (_cell_table(names, values, counts,
                        Table.concat([rows for rows, _ in parts])),
            counts, [d for sink in sinks for d in sink])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid; deterministic row-major assembly."""
    spec = validate_spec(spec)
    axes_vals = [ax.values() for ax in spec.axes]
    cells = np.argwhere(np.ones([len(v) for v in axes_vals], dtype=bool))
    values = np.stack([v[i] for v, i in zip(axes_vals, cells.T)], axis=1)
    batches = math.ceil(len(cells) / BATCH_CELLS)
    if spec.threads > 1 and batches > 1:
        from concurrent.futures import ProcessPoolExecutor
        # whole batches, at most four chunks a worker
        size = math.ceil(len(cells) / min(spec.threads * 4, batches))
        starts = range(0, len(cells), size)
        with ProcessPoolExecutor(
                max_workers=min(spec.threads, len(starts))) as pool:
            parts = list(pool.map(_eval_chunk, [spec] * len(starts),
                                  [cells[i:i + size] for i in starts],
                                  [values[i:i + size] for i in starts]))
    else:
        parts = [_eval_chunk(spec, cells, values)]
    table = Table.concat([t for t, _, _ in parts])
    counts = np.concatenate([n for _, n, _ in parts])
    offsets = np.concatenate([[0], np.cumsum(np.maximum(counts, 1))])
    if spec.mode == "branch-curve":
        held = table.present["branch_index"]
        table.cols["branch_index"][held] = continuation_labels(
            table.cols["n_p"][held], np.concatenate([[0], np.cumsum(counts)]))
    return SweepResult(spec=spec, cells=cells, table=table, offsets=offsets,
                       diagnostics=[d for _, _, ds in parts for d in ds])


def _antecedents(n_p: np.ndarray, counts: np.ndarray):
    """(near, taken) of consecutive cells of ``counts`` entries of ``n_p``:
    for each entry of a cell after the first, the index of the nearest entry
    of the cell before it; and for each cell, whether it takes the labels of
    those nearest entries without a greedy matching.  A cell does when each
    of its entries is strictly nearest (a finite distance, no tie) to a
    different entry of the cell before, so it has no more entries than that
    cell."""
    cell = np.repeat(np.arange(len(counts)), counts)
    before = np.maximum(cell - 1, 0)
    n_prev = np.where(cell > 0, counts[before], 0)
    first = np.cumsum(n_prev) - n_prev          # each entry's first pair
    entry = np.repeat(np.arange(len(cell)), n_prev)
    prev = (np.repeat((np.cumsum(counts) - counts)[before] - first, n_prev)
            + np.arange(len(entry)))
    dist = np.abs(n_p[entry] - n_p[prev])
    near = np.arange(len(cell))
    clear = np.zeros(len(cell), dtype=bool)
    has = np.flatnonzero(n_prev > 0)
    if len(has):
        lead = first[has]
        least = np.minimum.reduceat(dist, lead)
        hit = dist == np.repeat(least, n_prev[has])
        near[has] = prev[np.maximum.reduceat(
            np.where(hit, np.arange(len(hit)), -1), lead)]
        clear[has] = (np.add.reduceat(hit, lead) == 1) & np.isfinite(least)
    shared = np.bincount(near[clear], minlength=len(cell))[near] > 1
    return near, np.bincount(cell[~clear | shared], minlength=len(counts)) == 0


def continuation_labels(n_p: np.ndarray, offsets) -> np.ndarray:
    """Branch labels along a 1D curve by nearest-n_p continuation.

    Cell c's branch photon numbers are ``n_p[offsets[c]:offsets[c + 1]]``.
    Pairs of a branch and a previous label are matched greedily in the order
    (distance, label, branch).  Ties break toward the lower previous label;
    branches with no antecedent get fresh labels.  Labels stay unique within
    each cell.  A cell whose branches are each strictly nearest to a
    different branch of the cell before takes those branches' labels: that
    is what the greedy matching gives, so only the other cells sort pairs.
    """
    out = np.empty(len(n_p), dtype=np.int64)
    if len(offsets) < 2:
        return out
    offsets = np.asarray(offsets, dtype=np.int64)
    n_p = np.asarray(n_p, dtype=float)[offsets[0]:offsets[-1]]
    counts = np.diff(offsets)
    near, taken = _antecedents(n_p, counts)
    # each entry's root: the first entry up its chain of taken labels
    root = np.where(np.repeat(taken, counts), near, np.arange(len(near)))
    while not np.array_equal(root[root], root):
        root = root[root]
    labels = np.zeros(len(n_p), dtype=np.int64)
    every = n_p.tolist()
    bounds = (offsets - offsets[0]).tolist()
    next_label = 0
    for c in np.flatnonzero(~taken & (counts > 0)).tolist():
        lo, hi = bounds[c], bounds[c + 1]
        start = bounds[c - 1] if c else lo
        prev = labels[root[start:lo]].tolist()
        nps = every[lo:hi]
        assignment: dict[int, int] = {}
        used: set[int] = set()
        matches = min(len(nps), len(prev))
        for _, label, k in sorted(
                (abs(n - n_prev), label, k) for k, n in enumerate(nps)
                for label, n_prev in zip(prev, every[start:lo])):
            if label not in used and k not in assignment:
                assignment[k] = label
                used.add(label)
                if len(used) == matches:
                    break
        for k in range(len(nps)):
            if k not in assignment:
                assignment[k], next_label = next_label, next_label + 1
        labels[lo:hi] = [assignment[k] for k in range(len(nps))]
    out[offsets[0]:offsets[-1]] = labels[root]
    return out
