"""Deterministic 1D/2D parameter sweeps.

Cells are independent pure computations; results are assembled in row-major
cell order regardless of worker count, so identical specs produce identical
tables.  Cells are solved in batches: one oracle call and two stacked
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
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np

from .cooling import cool_linearized, dark_mode_diagnostics, row_occupations
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


@dataclass
class BranchRow:
    """One (cell, branch) record; cooling cells carry a single row."""

    branch_index: int
    n_p: Optional[float]
    stable: Optional[bool]
    n1f: Optional[float] = None
    n2f: Optional[float] = None
    dark_overlap: Optional[float] = None
    residual: Optional[float] = None


@dataclass
class CellResult:
    index: tuple[int, ...]
    values: tuple[float, ...]
    root_count: int
    stable_count: int
    branches: list[BranchRow]


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list[CellResult]
    diagnostics: list[Diagnostic]


def _field_names(record) -> set[str]:
    return {f.name for f in fields(record)}


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
    names = _field_names(spec.base)
    for ax in spec.axes:
        if ax.name not in names:
            raise InvalidSpec(f"axis parameter {ax.name!r} is not a field "
                              f"of {type(spec.base).__name__}")
    return spec


def _cell_params(spec: SweepSpec, values: tuple[float, ...]) -> SystemParams:
    """A steady-state cell's parameters (SystemParams fields are real)."""
    return replace(spec.base, **{ax.name: float(v)
                                 for ax, v in zip(spec.axes, values)})


def _cell_error(exc: Exception) -> Diagnostic:
    return Diagnostic("cell-error", f"{type(exc).__name__}: {exc}")


def _each_cell(solve, cells: list, sinks: list[list[Diagnostic]], failed):
    """``solve(cells, sinks)`` in one batch.  If the batch raises, each cell
    is solved alone, so an error fails only its own cell, whose result is
    then ``failed``."""
    try:
        return solve(cells, sinks)
    except Exception as exc:   # per-cell failures never abort the sweep
        if len(cells) == 1:
            sinks[0].append(_cell_error(exc))
            return [failed]
        for sink in sinks:
            sink.clear()
        return [_each_cell(solve, [c], [s], failed)[0]
                for c, s in zip(cells, sinks)]


def branch_rows(ps: list[SystemParams], solved: list[list],
                sinks: list[list[Diagnostic]],
                gamma_fallback: bool = True) -> list[list[BranchRow]]:
    """Output rows of each set's steady-state branches, labelled in order.

    All branches get one column record and one stacked stability
    classification; a branch whose verdict flips under the gamma fallback
    gets a marginal-verdict diagnostic in its set's sink.  The cooling rule:
    rows of a damped set (gamma1 > 0 or gamma2 > 0) carry their dark
    overlap, and those that are also stable with an unflipped verdict carry
    their occupations, from one batched Lyapunov solve whose diagnostics go
    to their set's sink.  An undamped set's modes are not coupled to their
    baths, so it has no stationary occupations, and a flipped verdict puts
    the system on the margin, where the Lyapunov system is singular.
    """
    owners = [p for p, bs in zip(ps, solved) for _ in bs]
    lin = derive_linearized([b for bs in solved for b in bs], owners)
    verdicts = classify_branch_stability(lin, gamma_fallback)
    damped = np.array([p.gamma1 > 0.0 or p.gamma2 > 0.0 for p in owners],
                      dtype=bool)
    cooled = damped & np.array([v.stable and not v.verdict_flipped
                                for v in verdicts], dtype=bool)
    darks = iter(dark_mode_diagnostics(take_columns(lin, damped))
                 .dark_overlap.tolist() if damped.any() else ())
    covs = iter(cool_linearized(take_columns(lin, cooled))
                if cooled.any() else ())
    per_row = iter(zip(verdicts, damped.tolist(), cooled.tolist()))
    out = []
    for bs, diags in zip(solved, sinks):
        rows = []
        for k, b in enumerate(bs):
            verdict, damped_row, cooled_row = next(per_row)
            row = BranchRow(branch_index=k, n_p=b.n_p, stable=verdict.stable,
                            residual=b.residual)
            if verdict.verdict_flipped:
                diags.append(Diagnostic(
                    "marginal-verdict",
                    f"stability verdict at n_p={b.n_p:.6g} flips between "
                    f"gamma=0 and the fallback damping"))
            if damped_row:
                dark = next(darks)
                row.dark_overlap = None if math.isnan(dark) else dark
            if cooled_row:
                row.n1f, row.n2f = row_occupations(next(covs), diags)
            rows.append(row)
        out.append(rows)
    return out


def _eval_steady_batch(spec: SweepSpec, chunk):
    """One batched solve for the cells, then ``branch_rows`` of all their
    branches: (each cell's rows, each cell's diagnostics)."""
    diags: list[list[Diagnostic]] = [[] for _ in chunk]
    params: list[Optional[SystemParams]] = []
    for (_, values), sink in zip(chunk, diags):
        try:
            params.append(validate_params(_cell_params(spec, values)))
        except Exception as exc:
            sink.append(_cell_error(exc))
            params.append(None)
    solved = iter(_each_cell(
        lambda ps, sinks: branch_rows(ps, solve_branches(
            ps, oracle_mode=spec.oracle_mode, scan_points=spec.scan_points,
            with_damping=spec.with_damping, diagnostics=sinks),
            sinks, spec.gamma_fallback),
        [p for p in params if p is not None],
        [sink for p, sink in zip(params, diags) if p is not None], []))
    return [next(solved) if p is not None else [] for p in params], diags


def _column_params(spec: SweepSpec, values: list[tuple[float, ...]]):
    """One column record for the cells: the base with each axis field an
    array of the cells' values (complex when the base field is complex)."""
    updates = {}
    for ax, col in zip(spec.axes, np.array(values, dtype=float).T):
        cur = getattr(spec.base, ax.name)
        updates[ax.name] = col.astype(complex) if isinstance(cur, complex) else col
    return replace(spec.base, **updates)


def cooling_rows(lp: LinearizedParams,
                 sinks: list[list[Diagnostic]]) -> list[BranchRow]:
    """One direct-cooling row per cell of ``lp`` (a column record, or a
    scalar record as one cell), each cell's diagnostics going to its sink.
    The cells share one Lyapunov solve (``_each_cell``): a singular cell
    gets a cell-error, and its row, like an unstable cell's, keeps the
    occupations empty."""
    lp, _ = linearized_columns(lp)
    cells = list(range(len(sinks)))
    # the whole record, or a cell's own column when the batch is retried
    covs = _each_cell(lambda ks, _: cool_linearized(
        lp if ks is cells else take_columns(lp, ks)), cells, sinks, None)
    darks = dark_mode_diagnostics(lp).dark_overlap.tolist()
    rows = []
    for dark, cov, sink in zip(darks, covs, sinks):
        row = BranchRow(branch_index=0, n_p=None, stable=False,
                        dark_overlap=None if math.isnan(dark) else dark)
        if cov is not None:
            try:
                row.n1f, row.n2f = row_occupations(cov, sink, cov.physical)
                row.stable, row.residual = cov.physical, cov.lyap_residual
                if not row.stable:
                    sink.append(Diagnostic(
                        "unstable-cell", "drift matrix unstable; no "
                        "stationary state, so n1f and n2f are left empty"))
            except Exception as exc:
                sink.append(_cell_error(exc))
        rows.append(row)
    return rows


def _eval_cooling_batch(spec: SweepSpec, chunk):
    """``cooling_rows`` of the cells' column record, one row per cell."""
    diags: list[list[Diagnostic]] = [[] for _ in chunk]
    rows = cooling_rows(_column_params(spec, [v for _, v in chunk]), diags)
    return [[row] for row in rows], diags


def _eval_chunk(spec: SweepSpec, chunk: list[tuple[tuple, tuple]]):
    """The cells' results in batches, each diagnostic stamped with its cell."""
    evaluate = (_eval_cooling_batch if spec.mode == "cooling"
                else _eval_steady_batch)
    out = []
    for i in range(0, len(chunk), BATCH_CELLS):
        batch = chunk[i:i + BATCH_CELLS]
        for (index, values), rows, sink in zip(batch, *evaluate(spec, batch)):
            for d in sink:
                d.cell = tuple(index)
            out.append((CellResult(index=tuple(index), values=tuple(values),
                                   root_count=len(rows),
                                   stable_count=sum(r.stable for r in rows),
                                   branches=rows), sink))
    return out


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep grid; deterministic row-major assembly."""
    spec = validate_spec(spec)
    axes_vals = [ax.values() for ax in spec.axes]
    if len(axes_vals) == 1:
        cells_iter = [((i,), (float(a),)) for i, a in enumerate(axes_vals[0])]
    else:
        cells_iter = [((i, j), (float(a), float(b)))
                      for i, a in enumerate(axes_vals[0])
                      for j, b in enumerate(axes_vals[1])]
    results: list[tuple[CellResult, list[Diagnostic]]]
    if spec.threads > 1 and len(cells_iter) > 8:
        # only a multi-worker sweep pays for importing the process pool
        from concurrent.futures import ProcessPoolExecutor
        chunk_size = max(8, math.ceil(len(cells_iter) / (spec.threads * 4)))
        chunks = [cells_iter[i:i + chunk_size]
                  for i in range(0, len(cells_iter), chunk_size)]
        results = []
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            for part in pool.map(_eval_chunk, [spec] * len(chunks), chunks):
                results.extend(part)
    else:
        results = _eval_chunk(spec, cells_iter)
    cells = [r[0] for r in results]
    diagnostics = [d for r in results for d in r[1]]
    result = SweepResult(spec=spec, cells=cells, diagnostics=diagnostics)
    if spec.mode == "branch-curve":
        labels = continuation_labels([[row.n_p for row in cell.branches]
                                      for cell in cells])
        for cell, cell_labels in zip(cells, labels):
            for row, label in zip(cell.branches, cell_labels):
                row.branch_index = label
    return result


def sweep_rows(result: SweepResult) -> list[dict]:
    """One output row per (cell, branch): the cell's axis values and the
    row's fields; a cell without branches keeps a row of its axis values."""
    names = [ax.name for ax in result.spec.axes]
    rows: list[dict] = []
    for cell in result.cells:
        axes = dict(zip(names, cell.values))
        rows += [{**axes, **vars(row)} for row in cell.branches] or [axes]
    return rows


def continuation_labels(curve: list[list[float]]) -> list[list[int]]:
    """Branch labels along a 1D curve by nearest-n_p continuation.

    ``curve`` holds each cell's branch photon numbers.  Ties break toward
    the lower previous label; branches with no antecedent get fresh labels.
    Labels stay unique within each cell.
    """
    prev: dict[int, float] = {}
    next_label = 0
    out = []
    for nps in curve:
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
        out.append(labels)
    return out
