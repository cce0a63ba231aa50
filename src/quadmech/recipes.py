"""Canned reproduction recipes for the reference figures.

Each recipe pins the full parameter set of one published panel family and
returns a uniform row table (see ``cli`` for the serialization schema).
Axis ranges were fixed by scanning for the windows that contain the labeled
solution-count regions; they are recorded in the emitted header.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .cooling import (ZeroCoupling, cool_linearized, dark_mode_diagnostics,
                      row_occupations)
from .params import LinearizedParams, SystemParams, validate_params
from .stability import classify_branch_stability, derive_linearized
from .steady_state import Diagnostic, solve_branches
from .sweep import Axis, SweepSpec, run_sweep

COLUMNS = ("branch_index", "n_p", "stable", "n1f", "n2f",
           "dark_overlap", "residual")

# Multistability reference point: kappa units, omega = 5 kappa, theta = pi.
MULTI_BASE = SystemParams(
    delta_c=5.0, omega1=5.0, omega2=5.0, g1=0.05, g2=-0.0004,
    omega_ex=1.0, theta=math.pi, eta=95.0, kappa=1.0, unit_label="kappa")

# Direct linearized reference point: omega1 units (used by the cooling maps).
COOL_BASE = LinearizedParams(
    delta_eff=1.0, omega1=1.0, omega2_tilde=1.0, g1_eff=0.1, g2_eff=-0.1,
    g22=-0.01, omega_ex=0.13, theta=math.pi, kappa=0.1,
    gamma1=2e-6, gamma2=2e-6, nbar1=300.0, nbar2=300.0, origin="direct")


@dataclass
class RecipeResult:
    tag: str
    axis_names: tuple[str, ...]
    rows: list[dict]
    meta: dict
    diagnostics: list[Diagnostic]


def sweep_rows(result) -> list[dict]:
    rows = []
    names = tuple(ax.name for ax in result.spec.axes)
    for cell in result.cells:
        if not cell.branches:
            row = {n: v for n, v in zip(names, cell.values)}
            row.update({c: None for c in COLUMNS})
            rows.append(row)
            continue
        for br in cell.branches:
            row = {n: v for n, v in zip(names, cell.values)}
            row.update(branch_index=br.branch_index, n_p=br.n_p,
                       stable=br.stable, n1f=br.n1f, n2f=br.n2f,
                       dark_overlap=br.dark_overlap, residual=br.residual)
            rows.append(row)
    return rows


def _steady_sweep(tag, base, axes, mode, points, threads, scan_points,
                  oracle, gamma_fallback) -> RecipeResult:
    """A recipe sweep; ``points``, when given, overrides every axis's own."""
    if points is not None:
        axes = tuple(replace(ax, points=points) for ax in axes)
    spec = SweepSpec(axes=axes, base=base, mode=mode, oracle_mode=oracle,
                     gamma_fallback=gamma_fallback, scan_points=scan_points,
                     threads=threads)
    result = run_sweep(spec)
    return RecipeResult(
        tag=tag, axis_names=tuple(ax.name for ax in axes),
        rows=sweep_rows(result),
        meta={"mode": mode, "base": base,
              "axes": [(ax.name, ax.lo, ax.hi, ax.points, ax.scale)
                       for ax in axes]},
        diagnostics=result.diagnostics)


def branch_cooling_sweep(base: SystemParams, ratios: np.ndarray,
                         convention: str = "kappa",
                         oracle: bool = True, scan_points: int = 4096,
                         diagnostics: Optional[list[Diagnostic]] = None
                         ) -> list[dict]:
    """Cooling along nonlinear branches versus kappa/omega1.

    ``convention`` fixes which dimensionless ratios are held while
    kappa/omega1 varies: "kappa" keeps the couplings, drive and detuning fixed
    relative to kappa and moves the mechanical frequencies; "omega1" converts
    the base set to omega1 units once and then varies only kappa.  The
    mechanical quality factors (gamma_i/omega_i) and thermal occupancies are
    preserved in both cases.  Branch labels follow nearest-n_p continuation.
    All ratios are solved in one batch, and all stable branches are cooled in
    one batched Lyapunov solve.
    """
    if convention not in ("kappa", "omega1"):
        raise ValueError(f"unknown convention {convention!r}")
    base = validate_params(base)
    q1 = base.gamma1 / base.omega1
    q2 = base.gamma2 / base.omega2
    ratios = np.asarray(ratios, dtype=float)
    ps = []
    for r in ratios:
        if convention == "kappa":
            w = base.kappa / r
            ps.append(replace(base, omega1=w, omega2=w, gamma1=q1 * w,
                              gamma2=q2 * w))
        else:
            s = base.omega1                      # convert rates to omega1 units
            ps.append(replace(
                base, delta_c=base.delta_c / s, omega1=1.0, omega2=base.omega2 / s,
                g1=base.g1 / s, g2=base.g2 / s, omega_ex=base.omega_ex / s,
                eta=base.eta / s, kappa=r, gamma1=q1, gamma2=q2 * base.omega2 / s,
                unit_label="omega1"))
    sinks: list[list[Diagnostic]] = [[] for _ in ps]
    solved = solve_branches(ps, oracle_mode=oracle, scan_points=scan_points,
                            diagnostics=sinks)
    lps = [[derive_linearized(b, p) for b in bs] for p, bs in zip(ps, solved)]
    flat = [lp for cell in lps for lp in cell]
    verdicts = classify_branch_stability(flat)
    covs = iter(cool_linearized(
        [lp for lp, v in zip(flat, verdicts) if v.stable]))
    verdicts = iter(verdicts)
    rows: list[dict] = []
    prev: dict[int, float] = {}
    next_label = 0
    for r, branches, cell_lps, diags in zip(ratios, solved, lps, sinks):
        # nearest-n_p continuation labels
        assignment: dict[int, int] = {}
        if prev:
            pairs = sorted((abs(b.n_p - np_prev), label, k)
                           for k, b in enumerate(branches)
                           for label, np_prev in sorted(prev.items()))
            taken_labels: set[int] = set()
            taken_rows: set[int] = set()
            for dist, label, k in pairs:
                if label in taken_labels or k in taken_rows:
                    continue
                assignment[k] = label
                taken_labels.add(label)
                taken_rows.add(k)
        new_prev: dict[int, float] = {}
        for k, (b, lp) in enumerate(zip(branches, cell_lps)):
            label = assignment.get(k)
            if label is None:
                label = next_label
                next_label += 1
            new_prev[label] = b.n_p
            verdict = next(verdicts)
            n1f = n2f = None
            dark = None
            try:
                dark = dark_mode_diagnostics(lp).dark_overlap
            except ZeroCoupling:
                pass
            if verdict.stable:
                n1f, n2f = row_occupations(next(covs), diags)
            rows.append(dict(kappa_over_omega1=float(r), branch_index=label,
                             n_p=b.n_p, stable=verdict.stable, n1f=n1f,
                             n2f=n2f, dark_overlap=dark, residual=b.residual))
        prev = new_prev
        if diagnostics is not None:
            for d in diags:
                d.cell = (float(r),)
            diagnostics.extend(diags)
    return rows


def _fig4(tag, case, convention, points, threads, scan_points, oracle,
          gamma_fallback) -> RecipeResult:
    del threads, gamma_fallback
    if case == "linear":
        base = replace(MULTI_BASE, g2=0.0, eta=56.5, omega_ex=0.2, delta_c=3.2,
                       gamma1=2e-6 * 5.0, gamma2=2e-6 * 5.0,
                       nbar1=300.0, nbar2=300.0)
    else:
        base = replace(MULTI_BASE, delta_c=5.0,
                       gamma1=2e-6 * 5.0, gamma2=2e-6 * 5.0,
                       nbar1=300.0, nbar2=300.0)
    ratios = np.linspace(0.05, 0.62, points or 58)
    diags: list[Diagnostic] = []
    rows = branch_cooling_sweep(base, ratios, convention=convention,
                                oracle=oracle, scan_points=scan_points,
                                diagnostics=diags)
    return RecipeResult(tag=tag, axis_names=("kappa_over_omega1",), rows=rows,
                        meta={"mode": "branch-cooling", "base": base,
                              "convention": convention, "case": case},
                        diagnostics=diags)


def _recipe_specs() -> dict[str, Callable]:
    pi = math.pi
    reg: dict[str, Callable] = {}

    def steady(tag, base, axes, mode):
        def run(points, threads, scan_points, oracle, gamma_fallback, convention):
            del convention
            return _steady_sweep(tag, base, axes, mode, points, threads,
                                 scan_points, oracle, gamma_fallback)
        reg[tag] = run

    def cooling(tag, base, axes):
        def run(points, threads, scan_points, oracle, gamma_fallback, convention):
            del scan_points, oracle, gamma_fallback, convention
            return _steady_sweep(tag, base, axes, "cooling", points, threads,
                                 4096, True, True)
        reg[tag] = run

    steady("fig2a", MULTI_BASE,
           (Axis("g1", 0.0, 0.1, 201), Axis("delta_c", 0.0, 12.0, 201)),
           "root-count")
    steady("fig2b", replace(MULTI_BASE, g1=0.05),
           (Axis("g2", -0.001, 0.0, 201), Axis("delta_c", 0.0, 12.0, 201)),
           "root-count")
    steady("fig2c", replace(MULTI_BASE, g2=0.0, eta=45.0),
           (Axis("delta_c", 0.0, 8.0, 801),), "branch-curve")
    steady("fig2d", replace(MULTI_BASE, eta=56.5, omega_ex=0.005),
           (Axis("delta_c", 0.0, 8.0, 801),), "branch-curve")
    steady("fig3a", MULTI_BASE,
           (Axis("eta", 1.0, 150.0, 201), Axis("delta_c", 0.0, 12.0, 201)),
           "root-count")
    steady("fig3b", replace(MULTI_BASE, delta_c=6.0),
           (Axis("eta", 40.0, 130.0, 801),), "branch-curve")
    steady("fig3c", replace(MULTI_BASE, delta_c=5.0),
           (Axis("omega_ex", 0.0, 3.0, 201), Axis("theta", 0.0, pi, 201)),
           "root-count")
    steady("fig3d", replace(MULTI_BASE, delta_c=5.0),
           (Axis("theta", 0.0, pi, 801),), "branch-curve")

    def fig4(points, threads, scan_points, oracle, gamma_fallback, convention):
        del threads
        lin = _fig4("fig4", "linear", convention, points, None, scan_points,
                    oracle, gamma_fallback)
        quad = _fig4("fig4", "quadratic", convention, points, None, scan_points,
                     oracle, gamma_fallback)
        lin.meta["subtables"] = {"linear": (lin.rows, lin.meta["base"]),
                                 "quadratic": (quad.rows, quad.meta["base"])}
        lin.diagnostics.extend(quad.diagnostics)
        return lin
    reg["fig4"] = fig4

    cooling("fig5", replace(COOL_BASE, g1_eff=0.015, g2_eff=-0.015, g22=-0.01,
                            omega_ex=0.13),
            (Axis("g1_eff", 0.0005, 0.05, 201), Axis("g2_eff", -0.05, -0.0005, 201)))
    cooling("fig6", replace(COOL_BASE, g1_eff=0.1, g2_eff=-0.1),
            (Axis("g22", -0.4, -0.0005, 201), Axis("omega_ex", 0.0, 0.3, 201)))
    cooling("fig7", replace(COOL_BASE, g1_eff=0.1, g2_eff=-0.01, g22=-0.01,
                            omega_ex=0.1),
            (Axis("delta_eff", 0.5, 1.5, 201), Axis("kappa", 0.02, 1.0, 50)))
    return reg


RECIPES = _recipe_specs()


def run_recipe(tag: str, points: Optional[int] = None, threads: int = 1,
               scan_points: int = 4096, oracle: bool = True,
               gamma_fallback: bool = True,
               convention: str = "kappa") -> RecipeResult:
    """Run one canned reproduction; see RECIPES for available tags."""
    if tag not in RECIPES:
        raise KeyError(f"unknown recipe {tag!r}; have {sorted(RECIPES)}")
    return RECIPES[tag](points, threads, scan_points, oracle, gamma_fallback,
                        convention)
