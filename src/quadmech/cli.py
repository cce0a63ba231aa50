"""Command-line front end.

Subcommands
-----------
roots      closed-form polynomial coefficients, real roots, oracle comparison
branches   full steady-state branch table with stability and cooling numbers
cool       single-point covariance solve on direct linearized parameters
sweep1d    1D sweep (config [sweep] section)
sweep2d    2D sweep
reproduce  canned figure recipes (fig2a, fig2c, ..., fig7)

Config files are INI-style with sections [system], [linearized], [sweep] and
[output]; keys match the dataclass field names.  ``--set key=value`` overrides
win over file values, and dashed flags (``--out``, ``--threads``, ...) win
over both: each is one more override, parsed by the one parser its key has
(``FLAGS``).  Output tables are CSV (comment headers prefixed '#')
or JSON ({meta, rows}); numbers are printed with 12 significant digits and
row order is deterministic, so identical configs give byte-identical files.
"""
from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .params import (LinearizedParams, ParameterError, SystemParams,
                     validate_linearized, validate_params)
from .recipes import RECIPES, RecipeResult, run_recipe
from .steady_state import (Diagnostic, ZeroPolynomial, batch_real_roots,
                           build_polynomial, root_sets, roots_match,
                           solve_branches)
from .sweep import (COLUMNS, Axis, SweepSpec, Table, branch_rows,
                    cooling_rows, run_sweep)


class ParseError(ValueError):
    """Malformed config document or override."""


class UnknownKey(ParseError):
    """A config key does not match any known field."""


@dataclass
class RunConfig:
    command: str
    system: Optional[SystemParams] = None
    linearized: Optional[LinearizedParams] = None
    sweep_mode: Optional[str] = None
    axes: tuple[Axis, ...] = ()
    out_path: str = "out.csv"
    out_format: str = "csv"
    oracle: bool = True
    gamma_fallback: bool = True
    convention: str = "kappa"
    scan_points: int = 4096
    threads: int = 1
    with_mech_damping: bool = False
    recipe: Optional[str] = None
    points: Optional[int] = None


_SYSTEM_FIELDS = {f.name for f in fields(SystemParams)}
_LINEARIZED_FIELDS = {f.name for f in fields(LinearizedParams)}
_SWEEP_KEYS = {"mode", "axis1", "axis2"}
_OUTPUT_KEYS = {"path", "format"}


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ParseError(f"key {key!r}: cannot parse {raw!r} as a number") from exc


def _parse_axis(key: str, raw: str) -> Axis:
    parts = raw.split()
    if len(parts) not in (4, 5):
        raise ParseError(
            f"{key!r} must be '<param> <lo> <hi> <points> [linear|log]', got {raw!r}")
    scale = parts[4] if len(parts) == 5 else "linear"
    try:
        return Axis(name=parts[0], lo=float(parts[1]), hi=float(parts[2]),
                    points=int(parts[3]), scale=scale)
    except ValueError as exc:
        raise ParseError(f"{key!r}: {exc}") from exc


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ParseError(f"key {key!r}: expected on/off, got {raw!r}")


def _parse_count(key: str, raw: str) -> int:
    value = _to_float(key, raw)
    if not 1.0 <= value < math.inf:
        raise ParseError(f"key {key!r}: expected a count of at least 1, "
                         f"got {raw!r}")
    return int(value)


def _parse_convention(key: str, raw: str) -> str:
    if raw not in ("kappa", "omega1"):
        raise ParseError("convention must be kappa or omega1")
    return raw


# Run flag -> the one parser of its string value.  Each is a RunConfig
# field, a --set key and (all but points) a dashed command-line flag.
FLAGS = {
    "oracle": _parse_bool,
    "gamma_fallback": _parse_bool,
    "convention": _parse_convention,
    "scan_points": _parse_count,
    "threads": _parse_count,
    "with_mech_damping": _parse_bool,
    "points": _parse_count,
}


def parse_config(text: str, overrides: list[str] | None = None,
                 command: str = "roots") -> RunConfig:
    """Parse an INI config document and apply key=value overrides."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"config parse failure: {exc}") from exc
    known = {"system", "linearized", "sweep", "output"}
    for sec in cp.sections():
        if sec not in known:
            raise UnknownKey(f"unknown section [{sec}]")
    sys_kv = dict(cp["system"]) if cp.has_section("system") else None
    lin_kv = dict(cp["linearized"]) if cp.has_section("linearized") else None
    if sys_kv is not None and lin_kv is not None:
        raise ParseError("config must contain exactly one of [system] and "
                         "[linearized], not both")
    sweep_kv = dict(cp["sweep"]) if cp.has_section("sweep") else {}
    out_kv = dict(cp["output"]) if cp.has_section("output") else {}

    for kv, allowed, where in ((sys_kv or {}, _SYSTEM_FIELDS, "[system]"),
                               (lin_kv or {}, _LINEARIZED_FIELDS, "[linearized]"),
                               (sweep_kv, _SWEEP_KEYS, "[sweep]"),
                               (out_kv, _OUTPUT_KEYS, "[output]")):
        for key in kv:
            if key not in allowed:
                raise UnknownKey(f"unknown key {key!r} in {where}")

    cfg = RunConfig(command=command)
    for item in overrides or []:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not of the form key=value")
        key, _, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if sys_kv is not None and key in _SYSTEM_FIELDS:
            sys_kv[key] = val
        elif lin_kv is not None and key in _LINEARIZED_FIELDS:
            lin_kv[key] = val
        elif key in _SWEEP_KEYS:
            sweep_kv[key] = val
        elif key in _OUTPUT_KEYS:
            out_kv[key] = val
        elif key in FLAGS:
            setattr(cfg, key, FLAGS[key](key, val))
        else:
            raise UnknownKey(f"override key {key!r} matches no config field")

    if sys_kv is not None:
        kv = {}
        for key, raw in sys_kv.items():
            kv[key] = raw if key == "unit_label" else _to_float(key, raw)
        try:
            cfg.system = validate_params(SystemParams(**kv))
        except TypeError as exc:
            raise ParseError(f"[system]: {exc}") from exc
    if lin_kv is not None:
        kv = {}
        for key, raw in lin_kv.items():
            if key == "origin":
                kv[key] = raw
            elif key in ("g1_eff", "g2_eff", "g22"):
                try:
                    kv[key] = complex(raw.replace(" ", ""))
                except ValueError as exc:
                    raise ParseError(f"key {key!r}: {exc}") from exc
            else:
                kv[key] = _to_float(key, raw)
        kv.setdefault("origin", "direct")
        try:
            cfg.linearized = validate_linearized(LinearizedParams(**kv))
        except TypeError as exc:
            raise ParseError(f"[linearized]: {exc}") from exc
    if "mode" in sweep_kv:
        cfg.sweep_mode = sweep_kv["mode"].strip()
    axes = []
    for key in ("axis1", "axis2"):
        if key in sweep_kv:
            axes.append(_parse_axis(key, sweep_kv[key]))
    cfg.axes = tuple(axes)
    cfg.out_path = out_kv.get("path", cfg.out_path)
    cfg.out_format = out_kv.get("format", cfg.out_format).strip().lower()
    if cfg.out_format not in ("csv", "json"):
        raise ParseError(f"output format must be csv or json, "
                         f"got {cfg.out_format!r}")
    return cfg


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j" if value.imag else f"{value.real:.12g}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _meta_for(cfg: RunConfig, params, extra: dict) -> dict:
    """The header of every table: tool, command, parameter set, run flags."""
    command = f"{cfg.command} {cfg.recipe}" if cfg.recipe else cfg.command
    meta = {"tool": "quadmech", "version": __version__, "command": command}
    if params is not None:
        meta.update({f"param.{f.name}": getattr(params, f.name)
                     for f in fields(params)})
    meta.update({"flag.oracle": cfg.oracle,
                 "flag.gamma_fallback": cfg.gamma_fallback,
                 "flag.convention": cfg.convention,
                 "flag.scan_points": cfg.scan_points,
                 "flag.with_mech_damping": cfg.with_mech_damping})
    meta.update(extra)
    return meta


def _fields(table: Table, column: str) -> list[str]:
    """One column's fields: floats to 12 significant digits, the rest by
    ``_fmt``; empty where the column is not present or the table lacks it."""
    col = table.cols.get(column, np.full(len(table), None))
    out = ([f"{x:.12g}" for x in col.tolist()] if col.dtype.kind == "f"
           else list(map(_fmt, col.tolist())))
    if column in table.present:
        return [x if keep else ""
                for x, keep in zip(out, table.present[column].tolist())]
    return out


def write_table(path: str, fmt: str, columns: tuple[str, ...], table: Table,
                meta: dict) -> None:
    """Write ``columns`` of ``table`` to ``path``, formatted column-wise."""
    rows = zip(*(_fields(table, c) for c in columns))
    buf = io.StringIO()
    if fmt == "csv":
        for key in sorted(meta):
            buf.write(f"# {key} = {_fmt(meta[key])}\n")
        buf.write(",".join(columns) + "\n")
        buf.writelines(",".join(row) + "\n" for row in rows)
    else:
        payload = {"meta": {k: _fmt(v) for k, v in sorted(meta.items())},
                   "rows": [dict(zip(columns, row)) for row in rows]}
        json.dump(payload, buf, indent=1, sort_keys=True)
        buf.write("\n")
    Path(path).write_text(buf.getvalue())


def _write_diagnostics(path: str, diags: list[Diagnostic]) -> None:
    side = Path(path).with_suffix(Path(path).suffix + ".diagnostics.txt")
    lines = [f"{d.kind} cell={d.cell} {d.message}" for d in diags]
    side.write_text("\n".join(lines) + "\n")


_GNUPLOT_STUB = """\
# gnuplot stub for {tag}; data file: {data}
set datafile separator ','
set datafile commentschars '#'
set key autotitle columnhead
# columns: {columns}
{plot_line}
"""


def _write_plot_stub(path: str, tag: str, columns: tuple[str, ...]) -> None:
    data = Path(path).name
    if "n1f" in columns and len(columns) > 8:
        plot = f"splot '{data}' using 1:2:{columns.index('n1f') + 1} with points palette"
    elif "n1f" in columns:
        plot = f"plot '{data}' using 1:{columns.index('n1f') + 1} with lines"
    else:
        plot = f"plot '{data}' using 1:2 with points"
    stub = Path(path).with_suffix(".gp")
    stub.write_text(_GNUPLOT_STUB.format(tag=tag, data=data,
                                         columns=",".join(columns),
                                         plot_line=plot))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_roots(cfg: RunConfig):
    p = cfg.system
    if p is None:
        raise ParseError("the roots command needs a [system] section")
    coeffs = build_polynomial(p)
    (poly,) = batch_real_roots([coeffs])
    poly = [] if isinstance(poly, ZeroPolynomial) else poly
    diags: list[Diagnostic] = []
    (orc,) = root_sets([p], cfg.oracle, cfg.scan_points,
                       cfg.with_mech_damping, [diags])
    agree = roots_match(poly, orc) if cfg.oracle else None
    rows = Table({"branch_index": np.arange(len(poly)),
                  "n_p": np.array(poly, dtype=float)})
    extra = {f"coeff.c{m}": float(coeffs.c[m]) for m in range(8)}
    extra.update({"aux.x": coeffs.aux["x"], "aux.y": coeffs.aux["y"],
                  "aux.z": coeffs.aux["z"],
                  "oracle_roots": " ".join(_fmt(r) for r in orc),
                  "oracle_agreement": agree})
    return (), rows, extra, diags


def _cmd_branches(cfg: RunConfig):
    p = cfg.system
    if p is None:
        raise ParseError("the branches command needs a [system] section")
    diags: list[Diagnostic] = []
    branches = solve_branches(p, oracle_mode=cfg.oracle,
                              scan_points=cfg.scan_points,
                              with_damping=cfg.with_mech_damping,
                              diagnostics=diags)
    rows = branch_rows([p], [branches], [diags], cfg.gamma_fallback)
    return (), rows, {}, diags


def _cmd_cool(cfg: RunConfig):
    lp = cfg.linearized
    if lp is None:
        raise ParseError("the cool command needs a [linearized] section")
    diags: list[Diagnostic] = []
    row = cooling_rows(lp, [diags])
    return (), row, {"lyap_residual": _fields(row, "residual")[0]}, diags


def _cmd_sweep(cfg: RunConfig):
    ndim = 1 if cfg.command == "sweep1d" else 2
    if len(cfg.axes) != ndim:
        raise ParseError(f"sweep{ndim}d needs exactly {ndim} axis definitions "
                         f"in [sweep]")
    mode = cfg.sweep_mode or ("cooling" if cfg.linearized is not None
                              else "root-count")
    base = cfg.linearized if mode == "cooling" else cfg.system
    if base is None:
        raise ParseError(f"mode {mode!r} needs the matching params section")
    spec = SweepSpec(axes=cfg.axes, base=base, mode=mode,
                     oracle_mode=cfg.oracle, gamma_fallback=cfg.gamma_fallback,
                     scan_points=cfg.scan_points,
                     with_damping=cfg.with_mech_damping, threads=cfg.threads)
    result = run_sweep(spec)
    names = tuple(ax.name for ax in cfg.axes)
    extra = {"sweep.mode": mode}
    for i, ax in enumerate(cfg.axes):
        extra[f"sweep.axis{i + 1}"] = f"{ax.name} {ax.lo} {ax.hi} {ax.points} {ax.scale}"
    return names, result.table, extra, result.diagnostics


def exit_status(diags: list[Diagnostic]) -> int:
    """2 when the closed-form coefficients disagreed with the fixed-point
    map anywhere (a coefficient-mismatch diagnostic), else 0."""
    return 2 if any(d.kind == "coefficient-mismatch" for d in diags) else 0


def run_command(cfg: RunConfig) -> int:
    """Execute a parsed RunConfig; returns the process exit status."""
    if cfg.command == "reproduce":
        return exit_status(_run_reproduce(cfg))
    # each gives (axis names, table, header extras, diagnostics)
    commands = {"roots": _cmd_roots, "branches": _cmd_branches,
                "cool": _cmd_cool, "sweep1d": _cmd_sweep,
                "sweep2d": _cmd_sweep}
    if cfg.command not in commands:
        raise ParseError(f"unknown command {cfg.command!r}")
    axis_names, rows, extra, diags = commands[cfg.command](cfg)
    write_table(cfg.out_path, cfg.out_format, axis_names + COLUMNS, rows,
                _meta_for(cfg, cfg.system or cfg.linearized, extra))
    if diags:
        _write_diagnostics(cfg.out_path, diags)
    return exit_status(diags)


def _run_reproduce(cfg: RunConfig) -> list[Diagnostic]:
    """Write a recipe's table(s), plot stubs and diagnostics sidecar."""
    if cfg.with_mech_damping:
        raise ParseError("reproduce runs its recipes without mechanical "
                         "damping in the steady-state algebra; "
                         "with_mech_damping on is not supported")
    result: RecipeResult = run_recipe(
        cfg.recipe, points=cfg.points, threads=cfg.threads,
        scan_points=cfg.scan_points, oracle=cfg.oracle,
        gamma_fallback=cfg.gamma_fallback, convention=cfg.convention)
    columns = result.axis_names + COLUMNS
    recipe = {f"recipe.{k}": str(v) for k, v in result.meta.items()}
    for case, (rows, base) in result.tables.items():
        path, tag, case_meta = cfg.out_path, result.tag, {}
        if case:
            stem = Path(cfg.out_path)
            path = str(stem.with_name(f"{stem.stem}_{case}{stem.suffix}"))
            tag, case_meta = f"{result.tag} ({case})", {"recipe.case": case}
        write_table(path, cfg.out_format, columns, rows,
                    _meta_for(cfg, base, {**recipe, **case_meta}))
        _write_plot_stub(path, tag, columns)
    if result.diagnostics:
        _write_diagnostics(cfg.out_path, result.diagnostics)
    return result.diagnostics


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit 1 like every other error
    (exit 2 reports coefficient-mismatch diagnostics)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


# dashed flag -> its config key; main passes each given flag on as one more
# key=value override, after the --set ones, so flags win
_DASHED = {"out": "path", "format": "format",
           **{key: key for key in FLAGS if key != "points"}}


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="quadmech",
        description="Steady-state multistability and quantum cooling of a "
                    "linear+quadratic two-mode optomechanical system")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config key (repeatable)")
    for dest in _DASHED:
        common.add_argument("--" + dest.replace("_", "-"))
    for name in ("roots", "branches", "cool", "sweep1d", "sweep2d"):
        sub.add_parser(name, parents=[common])
    rep = sub.add_parser("reproduce", parents=[common])
    rep.add_argument("tag", choices=sorted(RECIPES))
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        text = Path(args.config).read_text() if args.config else ""
        overrides = args.set + [f"{key}={getattr(args, dest)}"
                                for dest, key in _DASHED.items()
                                if getattr(args, dest) is not None]
        cfg = parse_config(text, overrides, command=args.command)
        if args.command == "reproduce":
            cfg.recipe = args.tag
        return run_command(cfg)
    except (ParseError, ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
