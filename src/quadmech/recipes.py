"""Canned reproduction recipes for the reference figures.

Each recipe pins the full parameter set of one published panel family and
returns a uniform row table (see ``cli`` for the serialization schema).
Axis ranges were fixed by scanning for the windows that contain the labeled
solution-count regions; they are recorded in the emitted header.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .params import (LinearizedParams, SystemParams, param_columns,
                     take_columns, validate_params)
from .steady_state import Diagnostic, solve_branches
from .sweep import (Axis, SweepSpec, Table, branch_rows,
                    continuation_labels, run_sweep)

# Multistability reference point: kappa units, omega = 5 kappa, theta = pi.
MULTI_BASE = SystemParams(
    delta_c=5.0, omega1=5.0, omega2=5.0, g1=0.05, g2=-0.0004,
    omega_ex=1.0, theta=math.pi, eta=95.0, kappa=1.0, unit_label="kappa")

# Direct linearized reference point: omega1 units (used by the cooling maps).
COOL_BASE = LinearizedParams(
    delta_eff=1.0, omega1=1.0, omega2_tilde=1.0, g1_eff=0.1, g2_eff=-0.1,
    g22=-0.01, omega_ex=0.13, theta=math.pi, kappa=0.1,
    gamma1=2e-6, gamma2=2e-6, nbar1=300.0, nbar2=300.0, origin="direct")

# fig4's damped multistability point: mechanical quality factors 5e5 and
# 300 thermal phonons per mode.
FIG4_BASE = replace(MULTI_BASE, gamma1=2e-6 * 5.0, gamma2=2e-6 * 5.0,
                    nbar1=300.0, nbar2=300.0)

# tag -> (mode, base, axes).  A "branch-cooling" recipe has one base per
# case and sweeps kappa/omega1 along its one axis, all cases in one
# ``branch_cooling_sweep`` batch; every other mode is a ``run_sweep`` mode.
RECIPES = {
    "fig2a": ("root-count", MULTI_BASE,
              (Axis("g1", 0.0, 0.1, 201), Axis("delta_c", 0.0, 12.0, 201))),
    "fig2b": ("root-count", replace(MULTI_BASE, g1=0.05),
              (Axis("g2", -0.001, 0.0, 201), Axis("delta_c", 0.0, 12.0, 201))),
    "fig2c": ("branch-curve", replace(MULTI_BASE, g2=0.0, eta=45.0),
              (Axis("delta_c", 0.0, 8.0, 801),)),
    "fig2d": ("branch-curve", replace(MULTI_BASE, eta=56.5, omega_ex=0.005),
              (Axis("delta_c", 0.0, 8.0, 801),)),
    "fig3a": ("root-count", MULTI_BASE,
              (Axis("eta", 1.0, 150.0, 201), Axis("delta_c", 0.0, 12.0, 201))),
    "fig3b": ("branch-curve", replace(MULTI_BASE, delta_c=6.0),
              (Axis("eta", 40.0, 130.0, 801),)),
    "fig3c": ("root-count", replace(MULTI_BASE, delta_c=5.0),
              (Axis("omega_ex", 0.0, 3.0, 201),
               Axis("theta", 0.0, math.pi, 201))),
    "fig3d": ("branch-curve", replace(MULTI_BASE, delta_c=5.0),
              (Axis("theta", 0.0, math.pi, 801),)),
    "fig4": ("branch-cooling",
             {"linear": replace(FIG4_BASE, g2=0.0, eta=56.5, omega_ex=0.2,
                                delta_c=3.2),
              "quadratic": FIG4_BASE},
             (Axis("kappa_over_omega1", 0.05, 0.62, 58),)),
    "fig5": ("cooling", replace(COOL_BASE, g1_eff=0.015, g2_eff=-0.015,
                                g22=-0.01, omega_ex=0.13),
             (Axis("g1_eff", 0.0005, 0.05, 201),
              Axis("g2_eff", -0.05, -0.0005, 201))),
    "fig6": ("cooling", replace(COOL_BASE, g1_eff=0.1, g2_eff=-0.1),
             (Axis("g22", -0.4, -0.0005, 201), Axis("omega_ex", 0.0, 0.3, 201))),
    "fig7": ("cooling", replace(COOL_BASE, g1_eff=0.1, g2_eff=-0.01, g22=-0.01,
                                omega_ex=0.1),
             (Axis("delta_eff", 0.5, 1.5, 201), Axis("kappa", 0.02, 1.0, 50))),
}


@dataclass
class RecipeResult:
    tag: str
    axis_names: tuple[str, ...]
    # case -> (table, parameter set); a recipe without cases has the one
    # case "" and writes a single table
    tables: dict[str, tuple[Table, Union[SystemParams, LinearizedParams]]]
    meta: dict
    diagnostics: list[Diagnostic]


def _ratio_columns(bases: list[SystemParams], ratios: np.ndarray,
                   convention: str) -> SystemParams:
    """One column record of the parameter sets of every base at each
    kappa/omega1 of ``ratios``, base by base."""
    b, _ = param_columns([validate_params(base) for base in bases])
    b = take_columns(b, np.repeat(np.arange(len(bases)), len(ratios)))
    ratios = np.tile(ratios, len(bases))
    q1 = b.gamma1 / b.omega1
    q2 = b.gamma2 / b.omega2
    if convention == "kappa":
        w = b.kappa / ratios
        return replace(b, omega1=w, omega2=w, gamma1=q1 * w, gamma2=q2 * w)
    s = b.omega1                                 # convert rates to omega1 units
    return replace(
        b, delta_c=b.delta_c / s, omega1=np.ones(len(ratios)),
        omega2=b.omega2 / s, g1=b.g1 / s, g2=b.g2 / s,
        omega_ex=b.omega_ex / s, eta=b.eta / s, kappa=ratios, gamma1=q1,
        gamma2=q2 * b.omega2 / s, unit_label="omega1")


def branch_cooling_sweep(base: Union[SystemParams, Mapping[str, SystemParams]],
                         ratios: np.ndarray, convention: str = "kappa",
                         oracle: bool = True,
                         diagnostics: Optional[list[Diagnostic]] = None,
                         gamma_fallback: bool = True
                         ) -> Union[Table, dict[str, Table]]:
    """Cooling along nonlinear branches versus kappa/omega1.

    ``base`` is one parameter set, which gives one Table, or a mapping of
    cases to sets, which gives a mapping of the cases to their Tables.
    ``convention`` fixes which dimensionless ratios are held while
    kappa/omega1 varies: "kappa" keeps the couplings, drive and detuning fixed
    relative to kappa and moves the mechanical frequencies; "omega1" converts
    the base set to omega1 units once and then varies only kappa.  The
    mechanical quality factors (gamma_i/omega_i) and thermal occupancies are
    preserved in both cases.  Branch labels follow nearest-n_p continuation
    within each case.  ``gamma_fallback`` is passed to the stability
    verdicts.  Every case's ratios are solved in one batch, from one column
    record of their parameter sets, and their rows come from one
    ``branch_rows`` call; a ratio without branches has no row.  Diagnostics
    come case by case, each stamped with its ratio.
    """
    if convention not in ("kappa", "omega1"):
        raise ValueError(f"unknown convention {convention!r}")
    cases = base if isinstance(base, Mapping) else {"": base}
    ratios = np.asarray(ratios, dtype=float)
    p = _ratio_columns(list(cases.values()), ratios, convention)
    sinks: list[list[Diagnostic]] = [[] for _ in p.eta]
    solved = solve_branches(p, oracle_mode=oracle, diagnostics=sinks)
    counts = np.bincount(solved.owner, minlength=len(sinks)).reshape(
        len(cases), len(ratios))
    rows = branch_rows(p, solved, sinks, gamma_fallback)
    tables = {}
    for case, n, part in zip(cases, counts,
                             rows.split(counts.sum(axis=1))):
        part.cols["branch_index"] = continuation_labels(
            part.cols["n_p"], np.concatenate([[0], np.cumsum(n)]))
        part.cols = {"kappa_over_omega1": np.repeat(ratios, n), **part.cols}
        tables[case] = part
    if diagnostics is not None:
        for r, diags in zip(ratios.tolist() * len(cases), sinks):
            for d in diags:
                d.cell = (r,)
            diagnostics.extend(diags)
    return tables if isinstance(base, Mapping) else tables[""]


def run_recipe(tag: str, points: Optional[int] = None, threads: int = 1,
               oracle: bool = True, gamma_fallback: bool = True,
               convention: str = "kappa") -> RecipeResult:
    """Run one canned reproduction; see RECIPES for available tags.
    ``points``, when given, overrides every axis's own."""
    if tag not in RECIPES:
        raise KeyError(f"unknown recipe {tag!r}; have {sorted(RECIPES)}")
    mode, base, axes = RECIPES[tag]
    if points is not None:
        axes = tuple(replace(ax, points=points) for ax in axes)
    names = tuple(ax.name for ax in axes)
    if mode == "branch-cooling":
        diags: list[Diagnostic] = []
        rows = branch_cooling_sweep(
            base, axes[0].values(), convention=convention, oracle=oracle,
            diagnostics=diags, gamma_fallback=gamma_fallback)
        tables = {case: (rows[case], case_base)
                  for case, case_base in base.items()}
        return RecipeResult(tag=tag, axis_names=names, tables=tables,
                            meta={"mode": mode, "convention": convention},
                            diagnostics=diags)
    result = run_sweep(SweepSpec(
        axes=axes, base=base, mode=mode, oracle_mode=oracle,
        gamma_fallback=gamma_fallback, threads=threads))
    return RecipeResult(
        tag=tag, axis_names=names, tables={"": (result.table, base)},
        meta={"mode": mode, "axes": [(ax.name, ax.lo, ax.hi, ax.points,
                                      ax.scale) for ax in axes]},
        diagnostics=result.diagnostics)
