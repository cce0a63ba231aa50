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

from .cooling import cool_linearized, dark_mode_diagnostics, row_occupations
from .params import (LinearizedParams, SystemParams, take_columns,
                     validate_params)
from .stability import classify_branch_stability, derive_linearized
from .steady_state import Diagnostic, solve_branches
from .sweep import (Axis, SweepSpec, continuation_labels, marginal_verdict,
                    run_sweep)

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
                         diagnostics: Optional[list[Diagnostic]] = None,
                         gamma_fallback: bool = True) -> list[dict]:
    """Cooling along nonlinear branches versus kappa/omega1.

    ``convention`` fixes which dimensionless ratios are held while
    kappa/omega1 varies: "kappa" keeps the couplings, drive and detuning fixed
    relative to kappa and moves the mechanical frequencies; "omega1" converts
    the base set to omega1 units once and then varies only kappa.  The
    mechanical quality factors (gamma_i/omega_i) and thermal occupancies are
    preserved in both cases.  Branch labels follow nearest-n_p continuation.
    ``gamma_fallback`` is passed to the stability verdicts.  All ratios are
    solved in one batch, and all stable branches are cooled in one batched
    Lyapunov solve.
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
    labels = continuation_labels([[b.n_p for b in bs] for bs in solved])
    rows: list[dict] = []
    for r, cell_rows, cell_labels, diags in zip(
            ratios, branch_rows(ps, solved, sinks, gamma_fallback),
            labels, sinks):
        rows += [dict(kappa_over_omega1=float(r),
                      **{**row, "branch_index": label})
                 for row, label in zip(cell_rows, cell_labels)]
        if diagnostics is not None:
            for d in diags:
                d.cell = (float(r),)
            diagnostics.extend(diags)
    return rows


def branch_rows(ps: list[SystemParams], solved: list[list],
                sinks: list[list[Diagnostic]], gamma_fallback: bool = True,
                cool: bool = True) -> list[list[dict]]:
    """Output rows of each set's steady-state branches, labelled in order.

    All branches get one column record, one stacked stability
    classification and one column dark overlap.  When ``cool``, the rows
    that are stable and whose verdict did not flip under the gamma fallback
    are cooled in one batched Lyapunov solve (a flipped verdict means the
    undamped system sits on the margin, where the Lyapunov system is
    singular), whose diagnostics go to their set's sink; a flipped row gets
    the sweep's marginal-verdict diagnostic instead.
    """
    lin = derive_linearized([b for bs in solved for b in bs],
                            [p for p, bs in zip(ps, solved) for _ in bs])
    verdicts = classify_branch_stability(lin, gamma_fallback)
    cooled = [cool and v.stable and not v.verdict_flipped for v in verdicts]
    covs = iter(cool_linearized(take_columns(lin, np.array(cooled, dtype=bool))))
    per_row = iter(zip(verdicts, cooled,
                       dark_mode_diagnostics(lin).dark_overlap.tolist()))
    out = []
    for bs, diags in zip(solved, sinks):
        rows = []
        for k, b in enumerate(bs):
            verdict, cooled_row, dark = next(per_row)
            n1f = n2f = None
            if verdict.verdict_flipped:
                diags.append(marginal_verdict(b.n_p))
            if cooled_row:
                n1f, n2f = row_occupations(next(covs), diags)
            rows.append(dict(branch_index=k, n_p=b.n_p, stable=verdict.stable,
                             n1f=n1f, n2f=n2f,
                             dark_overlap=None if math.isnan(dark) else dark,
                             residual=b.residual))
        out.append(rows)
    return out


def _fig4(tag, case, convention, points, threads, scan_points, oracle,
          gamma_fallback) -> RecipeResult:
    del threads
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
                                diagnostics=diags,
                                gamma_fallback=gamma_fallback)
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
