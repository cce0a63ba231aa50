"""Deterministic 1D/2D parameter sweeps.

Cells are independent pure computations; their rows form one column ``Table``
in row-major cell order whatever the worker count, so identical specs produce
identical tables.  Cells are solved in batches: one oracle call and two stacked
eigenvalue calls per batch of steady-state cells, one batched Lyapunov solve
per batch of cooling cells; a cell's result depends only on the cell, never
on the batch it shares.  Supported modes:

* ``root-count`` / ``stable-count`` — steady-state branches with stability
  verdicts per cell (SystemParams base), rows from ``branch_rows``,
* ``branch-curve``  — 1D branch list with continuation-consistent labels,
* ``cooling``       — phonon numbers and dark-mode overlap per cell
  (LinearizedParams base).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Union

import numpy as np

from .cooling import cool_linearized, dark_mode_diagnostics, flag_residuals
from .params import (LinearizedParams, SystemParams, linearized_columns,
                     take_columns, validate_params)
from .stability import classify_branch_stability, derive_linearized
from .steady_state import MIN_SCAN_POINTS, Diagnostic, solve_branches

MODES = ("root-count", "stable-count", "branch-curve", "cooling")
# Cells solved as one batch: enough to amortise the per-call NumPy overhead
# of the oracle, the eigenvalue stacks and the Lyapunov stacks, few enough to
# keep their arrays and branch records small.  Results do not depend on it.
BATCH_CELLS = 256


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
    scan_points: int = 4096
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
    if (spec.mode != "cooling" and spec.oracle_mode
            and spec.scan_points < MIN_SCAN_POINTS):
        raise InvalidSpec(f"scan_points must be >= {MIN_SCAN_POINTS}")
    names = {f.name for f in fields(spec.base)}
    for ax in spec.axes:
        if ax.name not in names:
            raise InvalidSpec(f"axis parameter {ax.name!r} is not a field "
                              f"of {type(spec.base).__name__}")
    return spec


def _cell_error(exc: Exception) -> Diagnostic:
    return Diagnostic("cell-error", f"{type(exc).__name__}: {exc}")


def _each_cell(solve, cells: list, sinks: list[list[Diagnostic]]):
    """``solve(cells, sinks)`` in one batch, as ``[(cells, result)]``.  If
    the batch raises, each cell is solved alone, so an error fails only its
    own cell, which gets a cell-error and no part of the list."""
    try:
        return [(cells, solve(cells, sinks))]
    except Exception as exc:   # per-cell failures never abort the sweep
        if len(cells) == 1:
            sinks[0].append(_cell_error(exc))
            return []
        for sink in sinks:
            sink.clear()
        return [part for c, s in zip(cells, sinks)
                for part in _each_cell(solve, [c], [s])]


def branch_rows(ps: list[SystemParams], solved: list[list],
                sinks: list[list[Diagnostic]],
                gamma_fallback: bool = True) -> Table:
    """Output rows of each set's steady-state branches, labelled in order.

    All branches get one column record and one stacked stability
    classification; a branch whose verdict flips under the gamma fallback
    gets a marginal-verdict diagnostic in its set's sink.  The cooling rule:
    rows of a damped set (gamma1 > 0 or gamma2 > 0) carry their dark
    overlap, and those that are also stable with an unflipped verdict carry
    their occupations, from one batched Lyapunov solve whose diagnostics go
    to their set's sink.  An undamped set's modes are not coupled to their
    baths, so it has no stationary occupations, and a flipped verdict puts
    the system on the margin, where the Lyapunov system is singular.  (A set
    is damped or not as a whole, so its sink gets the one kind or the other.)
    """
    counts = [len(bs) for bs in solved]
    owner = np.repeat(np.arange(len(ps)), counts)
    branches = [b for bs in solved for b in bs]
    lin = derive_linearized(branches, [ps[k] for k in owner.tolist()])
    verdict = classify_branch_stability(lin, gamma_fallback)
    n_p, residual = np.array([(b.n_p, b.residual) for b in branches],
                             dtype=float).reshape(-1, 2).T
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


def _eval_steady_batch(spec: SweepSpec, values: np.ndarray, sinks):
    """One batched solve for the cells, then ``branch_rows`` of all their
    branches: (the rows, each cell's branch count)."""
    params: dict[int, SystemParams] = {}
    for k, (cell, sink) in enumerate(zip(values.tolist(), sinks)):
        try:   # one parameter set per cell; SystemParams fields are real
            params[k] = validate_params(replace(
                spec.base, **{ax.name: v for ax, v in zip(spec.axes, cell)}))
        except Exception as exc:
            sink.append(_cell_error(exc))

    def solve(ks, ks_sinks):
        ps = [params[k] for k in ks]
        solved = solve_branches(
            ps, oracle_mode=spec.oracle_mode, scan_points=spec.scan_points,
            with_damping=spec.with_damping, diagnostics=ks_sinks)
        return (branch_rows(ps, solved, ks_sinks, spec.gamma_fallback),
                [len(bs) for bs in solved])
    counts = np.zeros(len(values), dtype=np.int64)
    parts = _each_cell(solve, list(params), [sinks[k] for k in params])
    for ks, (_, n) in parts:
        counts[ks] = n
    return Table.concat([rows for _, (rows, _) in parts]), counts


def cooling_rows(lp: LinearizedParams,
                 sinks: list[list[Diagnostic]]) -> Table:
    """One direct-cooling row per cell of ``lp`` (a column record, or a
    scalar record as one cell), each cell's diagnostics going to its sink.
    The cells share one Lyapunov solve (``_each_cell``): a singular cell
    gets a cell-error, and its row, like an unstable cell's, keeps the
    occupations empty."""
    lp, _ = linearized_columns(lp)
    cells = list(range(len(sinks)))
    # the whole record, or a cell's own column when the batch is retried
    parts = _each_cell(lambda ks, _: cool_linearized(
        lp if ks is cells else take_columns(lp, ks)), cells, sinks)
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


def _eval_cooling_batch(spec: SweepSpec, values: np.ndarray, sinks):
    """``cooling_rows`` of the cells, one row per cell, from one column
    record: the base with each axis field an array of the cells' values
    (complex when the base field is complex)."""
    lp = replace(spec.base, **{ax.name: col.astype(
        complex if isinstance(getattr(spec.base, ax.name), complex) else float)
        for ax, col in zip(spec.axes, values.T)})
    return cooling_rows(lp, sinks), np.ones(len(values), dtype=np.int64)


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
    diagnostics, each stamped with its cell."""
    evaluate = (_eval_cooling_batch if spec.mode == "cooling"
                else _eval_steady_batch)
    sinks: list[list[Diagnostic]] = [[] for _ in cells]
    parts = [evaluate(spec, values[i:i + BATCH_CELLS],
                      sinks[i:i + BATCH_CELLS])
             for i in range(0, len(cells), BATCH_CELLS)]
    for index, sink in zip(cells.tolist(), sinks):
        for d in sink:
            d.cell = tuple(index)
    counts = np.concatenate([n for _, n in parts])
    return (_cell_table([ax.name for ax in spec.axes], values, counts,
                        Table.concat([rows for rows, _ in parts])),
            counts, [d for sink in sinks for d in sink])


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid; deterministic row-major assembly."""
    spec = validate_spec(spec)
    axes_vals = [ax.values() for ax in spec.axes]
    cells = np.argwhere(np.ones([len(v) for v in axes_vals], dtype=bool))
    values = np.stack([v[i] for v, i in zip(axes_vals, cells.T)], axis=1)
    if spec.threads > 1 and len(cells) > 8:
        # only a multi-worker sweep pays for importing the process pool
        from concurrent.futures import ProcessPoolExecutor
        size = max(8, math.ceil(len(cells) / (spec.threads * 4)))
        starts = range(0, len(cells), size)
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
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


def continuation_labels(n_p: np.ndarray, offsets) -> np.ndarray:
    """Branch labels along a 1D curve by nearest-n_p continuation.

    Cell c's branch photon numbers are ``n_p[offsets[c]:offsets[c + 1]]``.
    Ties break toward the lower previous label; branches with no antecedent
    get fresh labels.  Labels stay unique within each cell.
    """
    prev: dict[int, float] = {}
    next_label = 0
    out = np.empty(len(n_p), dtype=np.int64)
    every = np.asarray(n_p, dtype=float).tolist()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        nps = every[lo:hi]
        assignment: dict[int, int] = {}
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
