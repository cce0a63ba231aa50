"""Spans around quadmech's layer functions, recorded from outside the program.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``solve_branches`` is bound in ``steady_state``, ``sweep``,
``recipes`` and the package itself, so all four are patched) and restores
them on exit.  Spans live in memory as parallel lists; ``write`` dumps them
when the benchmark ends.  Pool workers do not share the tracer, so a traced
round must run with one worker.
"""
from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# layer module -> traced public functions
TRACED = {
    "cli": ("write_table",),
    "recipes": ("run_recipe",),
    "sweep": ("run_sweep",),
    "steady_state": ("solve_branches", "build_polynomial", "find_real_roots",
                     "oracle_roots", "fixed_point_defect",
                     "reconstruct_branch"),
    "stability": ("classify_branch_stability", "classify_stability"),
    "cooling": ("solve_lyapunov", "dark_mode_diagnostics"),
}

# what a span records beside its times: grid points, bytes, cells, or the
# returned root list (kept for the polynomial/oracle agreement)
_SIZE = {
    "steady_state.fixed_point_defect": lambda args, kw, out: out.size,
    "cli.write_table": lambda args, kw, out: os.stat(args[0]).st_size,
    "sweep.run_sweep": lambda args, kw, out: len(out.cells),
}
_KEEP = {"steady_state.find_real_roots", "steady_state.oracle_roots"}

PER_LAYER = (
    ("steady_state.oracle_scan.time_s", "s"),
    ("steady_state.oracle_scan.points", "count"),
    ("steady_state.oracle_bisect.time_s", "s"),
    ("steady_state.oracle_bisect.calls", "count"),
    ("steady_state.oracle_bisect.points", "count"),
    ("steady_state.oracle_roots.self_s", "s"),
    ("steady_state.oracle_roots.calls", "count"),
    ("steady_state.find_real_roots.time_s", "s"),
    ("steady_state.reconstruct_branch.time_s", "s"),
    ("steady_state.reconstruct_branch.calls", "count"),
    ("steady_state.solve_branches.self_s", "s"),
    ("steady_state.solve_branches.calls", "count"),
    ("steady_state.poly_oracle_agreement", "ratio"),
    ("stability.classify_branch_stability.time_s", "s"),
    ("stability.classify_branch_stability.calls", "count"),
    ("stability.classify_stability.calls", "count"),
    ("cooling.solve_lyapunov.time_s", "s"),
    ("cooling.solve_lyapunov.calls", "count"),
    ("cooling.dark_mode_diagnostics.time_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.cells", "count"),
    ("recipes.run_recipe.self_s", "s"),
    ("cli.write_table.time_s", "s"),
    ("cli.write_table.bytes", "B"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.size: list[int] = []
        self.kept: dict[int, object] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        size = _SIZE.get(name)
        keep = name in _KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(self.start)
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.size.append(0)
            self.end.append(0.0)
            self._stack.append(k)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[k] = perf_counter()
                self._stack.pop()
            if size is not None:
                self.size[k] = size(args, kwargs, out)
            if keep:
                self.kept[k] = out
            return out
        return traced

    @contextmanager
    def install(self):
        """Patch every binding of every traced function; undo on exit."""
        modules = [m for n, m in sys.modules.items()
                   if n == "quadmech" or n.startswith("quadmech.")]
        patched = []
        for layer, funcs in TRACED.items():
            home = sys.modules[f"quadmech.{layer}"]
            for f in funcs:
                orig = getattr(home, f)
                wrapper = self._wrap(f"{layer}.{f}", orig)
                patched += [(m, attr, orig, wrapper) for m in modules
                            for attr, val in vars(m).items() if val is orig]
        for m, attr, _, wrapper in patched:
            setattr(m, attr, wrapper)
        try:
            yield
        finally:
            for m, attr, orig, _ in patched:
                setattr(m, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_s,end_s,size\n")
            t0 = self.start[0] if self.start else 0.0
            for k, (n, p, s, e, z) in enumerate(zip(
                    self.name, self.parent, self.start, self.end, self.size)):
                fh.write(f"{k},{n},{p},{s - t0:.9f},{e - t0:.9f},{z}\n")

    def layer_metrics(self, roots_match) -> dict[str, float]:
        """Per-layer totals of the spans recorded since the last reset.

        Self time is a span's duration minus the durations of its direct
        child spans.  ``roots_match`` is the program's own comparison rule,
        applied to the root lists the two routes returned."""
        names = np.array(self.name)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        size = np.array(self.size, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child

        def sel(name):
            return names == name

        m: dict[str, float] = {}
        fpd = np.nonzero(sel("steady_state.fixed_point_defect"))[0]
        _, first = np.unique(parent[fpd], return_index=True)
        scan = np.zeros(len(fpd), dtype=bool)
        scan[first] = True
        m["steady_state.oracle_scan.time_s"] = float(dur[fpd[scan]].sum())
        m["steady_state.oracle_scan.points"] = int(size[fpd[scan]].sum())
        m["steady_state.oracle_bisect.time_s"] = float(dur[fpd[~scan]].sum())
        m["steady_state.oracle_bisect.calls"] = int((~scan).sum())
        m["steady_state.oracle_bisect.points"] = int(size[fpd[~scan]].sum())
        orc = sel("steady_state.oracle_roots")
        m["steady_state.oracle_roots.self_s"] = float(self_t[orc].sum())
        m["steady_state.oracle_roots.calls"] = int(orc.sum())
        m["steady_state.find_real_roots.time_s"] = float(
            dur[sel("steady_state.find_real_roots")
                | sel("steady_state.build_polynomial")].sum())
        rb = sel("steady_state.reconstruct_branch")
        m["steady_state.reconstruct_branch.time_s"] = float(dur[rb].sum())
        m["steady_state.reconstruct_branch.calls"] = int(rb.sum())
        sb = sel("steady_state.solve_branches")
        m["steady_state.solve_branches.self_s"] = float(self_t[sb].sum())
        m["steady_state.solve_branches.calls"] = int(sb.sum())
        m["steady_state.poly_oracle_agreement"] = self._agreement(
            np.nonzero(sb)[0], roots_match)
        cbs = sel("stability.classify_branch_stability")
        m["stability.classify_branch_stability.time_s"] = float(dur[cbs].sum())
        m["stability.classify_branch_stability.calls"] = int(cbs.sum())
        m["stability.classify_stability.calls"] = int(
            sel("stability.classify_stability").sum())
        ly = sel("cooling.solve_lyapunov")
        m["cooling.solve_lyapunov.time_s"] = float(dur[ly].sum())
        m["cooling.solve_lyapunov.calls"] = int(ly.sum())
        m["cooling.dark_mode_diagnostics.time_s"] = float(
            dur[sel("cooling.dark_mode_diagnostics")].sum())
        rs = sel("sweep.run_sweep")
        m["sweep.run_sweep.self_s"] = float(self_t[rs].sum())
        m["sweep.cells"] = int(size[rs].sum())
        m["recipes.run_recipe.self_s"] = float(
            self_t[sel("recipes.run_recipe")].sum())
        wt = sel("cli.write_table")
        m["cli.write_table.time_s"] = float(dur[wt].sum())
        m["cli.write_table.bytes"] = int(size[wt].sum())
        return m

    def _agreement(self, solves: np.ndarray, roots_match) -> float:
        """Share of solve_branches calls whose polynomial roots matched the
        oracle's.  A polynomial route that raised counts as no roots."""
        if len(solves) == 0:
            return 0.0
        routes: dict[int, dict[str, object]] = {}
        for k, out in self.kept.items():
            routes.setdefault(self.parent[k], {})[self.name[k]] = out
        agree = 0
        for s in solves:
            r = routes.get(int(s), {})
            orc = r.get("steady_state.oracle_roots")
            if orc is not None and roots_match(
                    r.get("steady_state.find_real_roots", []), orc):
                agree += 1
        return agree / len(solves)
