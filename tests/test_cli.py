"""Config parsing, subcommands, output stability."""
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmech import RECIPES, run_recipe
from quadmech.cli import (_DASHED, COLUMNS, ParseError, UnknownKey, main,
                          parse_config, write_table)
from quadmech.sweep import ROW_DTYPES, InvalidSpec, Table, _cell_table

from conftest import table_rows, write_table_rows

MINIMAL = """\
[system]
kappa = 1.0
omega1 = 5.0
omega2 = 5.0
g1 = 0.0
g2 = 0.0
omega_ex = 1.0
theta = 3.141592653589793
eta = 10.0
delta_c = 2.0
"""

FIG4A = """\
[system]
kappa = 1.0
omega1 = 5.0
omega2 = 5.0
g1 = 0.05
g2 = 0.0
omega_ex = 0.2
theta = 3.141592653589793
eta = 56.5
delta_c = 3.2
gamma1 = 1e-5
gamma2 = 1e-5
nbar1 = 300
nbar2 = 300
"""

COOL = """\
[linearized]
delta_eff = 1.0
omega1 = 1.0
omega2_tilde = 1.0
g1_eff = 0.1
g2_eff = -0.01
g22 = -0.01
omega_ex = 0.1
theta = 3.141592653589793
kappa = 0.1
gamma1 = 2e-6
gamma2 = 2e-6
nbar1 = 300
nbar2 = 300
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL, command="roots")
    assert cfg.system is not None
    assert cfg.system.kappa == 1.0
    assert cfg.out_format == "csv"
    assert cfg.oracle and cfg.gamma_fallback
    assert cfg.scan_points == 4096


def test_override_precedence():
    cfg = parse_config(MINIMAL, overrides=["delta_c=3.2"], command="roots")
    assert cfg.system.delta_c == 3.2


def test_both_sections_rejected():
    with pytest.raises(ParseError):
        parse_config(MINIMAL + "\n" + COOL)


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        parse_config(MINIMAL + "bogus = 1\n")
    with pytest.raises(UnknownKey):
        parse_config(MINIMAL, overrides=["not_a_field=3"])


def test_validation_propagates():
    with pytest.raises(Exception):
        parse_config(MINIMAL.replace("kappa = 1.0", "kappa = 0.0"))


def test_flag_overrides():
    cfg = parse_config(MINIMAL, overrides=["oracle=off", "scan_points=2000",
                                           "threads=2"])
    assert not cfg.oracle
    assert cfg.scan_points == 2000
    assert cfg.threads == 2


def _read_table(path: Path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def test_roots_decoupled(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    out = tmp_path / "roots.csv"
    rc = main(["roots", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    meta, header, rows = _read_table(out)
    assert meta["oracle_agreement"] == "1"
    assert len(rows) == 1
    assert float(rows[0]["n_p"]) == pytest.approx(20.0, rel=1e-9)
    assert meta["param.eta"] == "10"
    assert meta["version"]


def test_roots_mismatch_exit_code(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    out = tmp_path / "roots.csv"
    rc = main(["roots", "--config", str(cfgfile), "--out", str(out),
               "--set", "g1=0.05", "--set", "g2=-0.0004",
               "--set", "eta=95", "--set", "delta_c=5"])
    assert rc == 2
    assert out.with_suffix(".csv.diagnostics.txt").exists()


def test_branches_fig4a(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(FIG4A)
    out = tmp_path / "branches.csv"
    rc = main(["branches", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_table(out)
    ns = [float(r["n_p"]) for r in rows]
    stable = [r["stable"] == "1" for r in rows]
    hit_lo = [k for k, n in enumerate(ns) if abs(n - 347) / 347 < 0.02]
    hit_hi = [k for k, n in enumerate(ns) if abs(n - 3191) / 3191 < 0.02]
    assert hit_lo and hit_hi
    assert stable[hit_lo[0]] and stable[hit_hi[0]]
    # stable branches with finite damping carry cooling numbers
    assert rows[hit_lo[0]]["n1f"] != ""


def test_roots_oracle_honours_mech_damping(tmp_path):
    # with damping kept in the steady-state algebra, the oracle roots that
    # `roots` lists are the branches that `branches` finds
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    point = ["--set", "g1=0.05", "--set", "g2=-0.0004", "--set", "eta=80",
             "--set", "delta_c=6", "--set", "gamma1=0.05", "--set",
             "gamma2=0.05", "--config", str(cfgfile)]
    damped = ["--with-mech-damping", "on"]
    for cmd, flags in (("roots", damped), ("branches", damped),
                       ("roots", [])):
        out = tmp_path / f"{cmd}{len(flags)}.csv"
        assert main([cmd, "--out", str(out), *point, *flags]) == 2
    meta, _, _ = _read_table(tmp_path / "roots2.csv")
    _, _, rows = _read_table(tmp_path / "branches2.csv")
    undamped, _, _ = _read_table(tmp_path / "roots0.csv")
    assert meta["oracle_roots"].split() == [r["n_p"] for r in rows]
    assert len(rows) == 7
    assert undamped["oracle_roots"] != meta["oracle_roots"]


def test_branch_rows_follow_one_cooling_rule(tmp_path):
    # a damped steady sweep cell carries the rows `branches` writes at that
    # point, cooling columns included; undamped rows carry none of them
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(FIG4A + "\n[sweep]\nmode = root-count\n"
                       "axis1 = delta_c 3.2 4.2 2\n")
    assert main(["sweep1d", "--config", str(cfgfile), "--out",
                 str(tmp_path / "sweep.csv")]) == 0
    assert main(["branches", "--config", str(cfgfile), "--out",
                 str(tmp_path / "branches.csv")]) == 0
    _, _, swept = _read_table(tmp_path / "sweep.csv")
    _, _, rows = _read_table(tmp_path / "branches.csv")
    cell = [{k: v for k, v in r.items() if k != "delta_c"} for r in swept
            if r["delta_c"] == "3.2"]
    assert cell == rows and len(rows) == 3
    assert all(r["dark_overlap"] != "" for r in rows)
    assert any(r["n1f"] != "" and r["n2f"] != "" for r in rows)
    undamped = "\n".join(line for line in FIG4A.splitlines()
                         if not line.startswith("gamma"))
    cfgfile.write_text(undamped)
    assert main(["branches", "--config", str(cfgfile), "--out",
                 str(tmp_path / "undamped.csv")]) == 0
    _, _, rows = _read_table(tmp_path / "undamped.csv")
    assert len(rows) == 3 and any(r["stable"] == "1" for r in rows)
    assert all(r["n1f"] == r["n2f"] == r["dark_overlap"] == "" for r in rows)


def test_cool_unstable_point_leaves_occupations_empty(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(COOL)
    out = tmp_path / "cool.csv"
    assert main(["cool", "--config", str(cfgfile), "--out", str(out),
                 "--set", "delta_eff=-1.0"]) == 0
    _, _, (row,) = _read_table(out)
    assert row["stable"] == "0" and row["n1f"] == row["n2f"] == ""
    side = out.with_suffix(".csv.diagnostics.txt").read_text()
    assert side.startswith("unstable-cell")
    assert "n1f and n2f are left empty" in side


def test_cool_singular_point_writes_the_sweep_row(tmp_path):
    # undamped and decoupled: the Lyapunov system is singular
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(COOL + "\n[sweep]\nmode = cooling\n"
                       "axis1 = delta_eff 1 2 2\n")
    point = ["--config", str(cfgfile)] + [
        arg for key in ("gamma1", "gamma2", "g1_eff", "g2_eff", "g22",
                        "omega_ex") for arg in ("--set", f"{key}=0")]
    out = tmp_path / "cool.csv"
    assert main(["cool", "--out", str(out), *point]) == 0
    _, _, (row,) = _read_table(out)
    assert row["stable"] == "0" and row["n1f"] == row["n2f"] == ""
    side = out.with_suffix(".csv.diagnostics.txt").read_text()
    assert side.startswith("cell-error") and "SingularLyapunov" in side
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep1d", "--out", str(sweep), *point]) == 0
    _, _, swept = _read_table(sweep)
    assert {k: v for k, v in swept[0].items() if k != "delta_eff"} == row


def test_cool_point(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(COOL)
    out = tmp_path / "cool.csv"
    rc = main(["cool", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_table(out)
    assert float(rows[0]["n1f"]) == pytest.approx(0.0405377, rel=1e-4)
    assert float(rows[0]["n2f"]) == pytest.approx(0.0292589, rel=1e-4)
    assert float(rows[0]["residual"]) < 1e-10


def test_byte_identical_reruns(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(FIG4A)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["branches", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert main(["branches", "--config", str(cfgfile), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_format(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    out = tmp_path / "roots.json"
    rc = main(["roots", "--config", str(cfgfile), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "rows"}
    assert payload["meta"]["command"] == "roots"
    assert float(payload["rows"][0]["n_p"]) == pytest.approx(20.0, rel=1e-9)


def test_sweep1d_via_config(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[sweep]\nmode = root-count\n"
                       "axis1 = delta_c 0 4 9 linear\n")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep1d", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_table(out)
    assert header[0] == "delta_c"
    assert len(rows) == 9


def test_sweep2d_requires_two_axes(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[sweep]\nmode = root-count\n"
                       "axis1 = delta_c 0 4 5 linear\n")
    rc = main(["sweep2d", "--config", str(cfgfile), "--out",
               str(tmp_path / "x.csv")])
    assert rc == 1


def test_steady_sweep_rejects_coarse_scan_grid(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL + "\n[sweep]\nmode = root-count\n"
                       "axis1 = delta_c 0 4 5 linear\n")
    out = tmp_path / "x.csv"
    assert main(["sweep1d", "--config", str(cfgfile), "--out", str(out),
                 "--scan-points", "500"]) == 1
    assert not out.exists()


# config key of a dashed flag -> (command line, a good value, a bad value)
FLAG_CASES = {
    "format": (["roots", "--config", "MINIMAL"], "json", "xml"),
    "oracle": (["roots", "--config", "MINIMAL"], "off", "maybe"),
    "gamma_fallback": (["branches", "--config", "FIG4A"], "off", "maybe"),
    "convention": (["reproduce", "fig4", "--set", "points=3"], "omega1",
                   "sideways"),
    "scan_points": (["roots", "--config", "MINIMAL"], "2000", "0"),
    "threads": (["sweep1d", "--config", "SWEEP"], "2", "0"),
    "with_mech_damping": (["roots", "--config", "MINIMAL"], "on", "maybe"),
}


@pytest.mark.parametrize("key", sorted(set(_DASHED.values()) - {"path"}))
def test_flag_and_set_share_one_parser(key, tmp_path):
    # `--flag v` is the override `key=v`: same tables, same exit code
    argv, good, bad = FLAG_CASES[key]
    configs = {"MINIMAL": MINIMAL, "FIG4A": FIG4A,
               "SWEEP": MINIMAL + "\n[sweep]\naxis1 = delta_c 0 4 9\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.ini").write_text(text)
    argv = [str(tmp_path / f"{a}.ini") if a in configs else a for a in argv]
    flag = "--" + key.replace("_", "-")
    written = []
    for way, extra in (("flag", [flag, good]),
                       ("set", ["--set", f"{key}={good}"])):
        (tmp_path / way).mkdir()
        rc = main([*argv, "--out", str(tmp_path / way / "t.csv"), *extra])
        written.append((rc, sorted((f.name, f.read_bytes())
                                   for f in (tmp_path / way).iterdir())))
    assert written[0] == written[1]
    assert written[0][0] in (0, 2) and written[0][1]
    out = str(tmp_path / "bad.csv")
    assert main([*argv, "--out", out, flag, bad]) == 1
    assert main([*argv, "--out", out, "--set", f"{key}={bad}"]) == 1


def test_usage_errors_exit_1(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["reproduce", "fig9", "--out", out]) == 1
    assert main([]) == 1
    assert main(["roots", "--no-such-flag"]) == 1
    for argv in (["--help"], ["--version"], ["reproduce", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert not list(tmp_path.iterdir())


def test_reproduce_header_records_every_run_flag(tmp_path):
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(MINIMAL)
    assert main(["roots", "--config", str(cfgfile), "--out",
                 str(tmp_path / "roots.csv")]) == 0
    out = tmp_path / "fig3c.csv"
    assert main(["reproduce", "fig3c", "--out", str(out), "--set", "points=5",
                 "--gamma-fallback", "off"]) == 2
    roots, _, _ = _read_table(tmp_path / "roots.csv")
    meta, _, _ = _read_table(out)
    assert ({k for k in meta if k.startswith("flag.")}
            == {k for k in roots if k.startswith("flag.")})
    assert meta["flag.gamma_fallback"] == "0"
    assert meta["flag.with_mech_damping"] == "0"


def test_reproduce_rejects_mech_damping(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["reproduce", "fig4", "--out", str(out), "--set", "points=3",
                 "--with-mech-damping", "on"]) == 1
    assert not list(tmp_path.iterdir())


def test_fig4_points_need_two_like_every_recipe(tmp_path):
    for tag in ("fig4", "fig2a"):
        for points in ("1", "0"):
            assert main(["reproduce", tag, "--out", str(tmp_path / "x.csv"),
                         "--set", f"points={points}"]) == 1
        with pytest.raises(InvalidSpec):
            run_recipe(tag, points=1)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tag", sorted(RECIPES))
def test_every_recipe_reproduces(tag, tmp_path):
    out = tmp_path / f"{tag}.csv"
    assert main(["reproduce", tag, "--out", str(out),
                 "--set", "points=5"]) in (0, 2)
    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == (2 if tag == "fig4" else 1)
    for table in tables:
        meta, header, rows = _read_table(table)
        assert meta["command"] == f"reproduce {tag}"
        assert header[-7:] == ["branch_index", "n_p", "stable", "n1f",
                               "n2f", "dark_overlap", "residual"]
        assert rows
        assert table.with_suffix(".gp").exists()


def test_reproduce_fig2c_small(tmp_path):
    out = tmp_path / "fig2c.csv"
    rc = main(["reproduce", "fig2c", "--out", str(out), "--set", "points=41"])
    assert rc == 0
    _, header, rows = _read_table(out)
    assert header[0] == "delta_c"
    assert out.with_suffix(".gp").exists()
    counts = {}
    for r in rows:
        counts.setdefault(r["delta_c"], 0)
        if r["n_p"]:
            counts[r["delta_c"]] += 1
    assert max(counts.values()) >= 1


def test_reproduce_fig7_small(tmp_path):
    out = tmp_path / "fig7.csv"
    rc = main(["reproduce", "fig7", "--out", str(out), "--set", "points=21"])
    assert rc == 0
    _, header, rows = _read_table(out)
    assert header[:2] == ["delta_eff", "kappa"]
    finite = [(float(r["n1f"]), float(r["n2f"])) for r in rows
              if r["n1f"] != ""]
    assert finite
    best = min(finite, key=lambda t: t[0])
    assert best[0] < 0.1


def test_reproduce_fig4_writes_two_tables(tmp_path):
    out = tmp_path / "fig4.csv"
    rc = main(["reproduce", "fig4", "--out", str(out), "--set", "points=6",
               "--scan-points", "2000"])
    assert rc in (0, 2)
    assert (tmp_path / "fig4_linear.csv").exists()
    assert (tmp_path / "fig4_quadratic.csv").exists()


def test_fig4_subtables_record_their_own_base(tmp_path):
    # each fig4 table's header is the parameter set its rows were solved at:
    # a quadratic row rebuilt from the quadratic header is self-consistent
    from dataclasses import replace

    from quadmech import SystemParams, reconstruct_branch
    out = tmp_path / "fig4.csv"
    assert main(["reproduce", "fig4", "--out", str(out), "--set",
                 "points=3"]) in (0, 2)
    meta, _, rows = _read_table(tmp_path / "fig4_quadratic.csv")
    assert meta["recipe.case"] == "quadratic"
    base = SystemParams(**{k[len("param."):]: float(v) for k, v in meta.items()
                           if k.startswith("param.") and k != "param.unit_label"})
    assert base.g2 != 0.0
    q1, q2 = base.gamma1 / base.omega1, base.gamma2 / base.omega2
    checked = 0
    for row in rows:
        w = base.kappa / float(row["kappa_over_omega1"])
        p = replace(base, omega1=w, omega2=w, gamma1=q1 * w, gamma2=q2 * w)
        assert reconstruct_branch(p, float(row["n_p"])).residual <= 1e-6
        checked += 1
    assert checked >= 3
    lin, _, _ = _read_table(tmp_path / "fig4_linear.csv")
    assert float(lin["param.g2"]) == 0.0


def test_recipe_axes_keep_declared_points(monkeypatch):
    # fig7 declares 201 x 50; only an explicit points override changes that
    import numpy as np

    import quadmech.recipes as recipes
    from quadmech.sweep import SweepResult, Table
    seen = []

    def fake_run_sweep(spec):
        seen.append(tuple(ax.points for ax in spec.axes))
        return SweepResult(spec=spec, cells=np.empty((0, 2), dtype=int),
                           table=Table({}), offsets=np.zeros(1, dtype=int),
                           diagnostics=[])
    monkeypatch.setattr(recipes, "run_sweep", fake_run_sweep)
    recipes.run_recipe("fig7")
    recipes.run_recipe("fig7", points=7)
    recipes.run_recipe("fig2a")
    assert seen == [(201, 50), (7, 7), (201, 201)]


def test_missing_config_errors():
    assert main(["roots", "--config", "/nonexistent/x.ini"]) == 1


# ---------------------------------------------------------------------------
# the column writer against the per-row writer
# ---------------------------------------------------------------------------

_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e300,
     -1e300, 1e-300, -1e-300, 0.1, 2.0])
_ELEMENTS = {
    "f": _FLOATS,
    "i": st.integers(-2**63, 2**63 - 1),
    "b": st.booleans(),
    "c": st.complex_numbers(allow_nan=True, allow_infinity=True)
    | st.builds(complex, _FLOATS, st.sampled_from([0.0, -0.0])),
}
_DTYPES = {"f": float, "i": np.int64, "b": bool, "c": complex}
_META = {"a": 1.5, "b": True, "c": 1 - 2j, "d": "text", "e": None, "f": 3,
         "g": -0.0}


@st.composite
def _column(draw, kind, n):
    col = np.array(draw(st.lists(_ELEMENTS[kind], min_size=n, max_size=n)),
                   dtype=_DTYPES[kind])
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    return col, None if mask is None else np.array(mask, dtype=bool)


@st.composite
def _tables(draw):
    """A column table of every column kind, some columns with masks."""
    n = draw(st.integers(0, 6))
    table = Table({})
    for j, kind in enumerate(draw(st.lists(st.sampled_from("fibc"),
                                           min_size=1, max_size=6))):
        col, mask = draw(_column(kind, n))
        table.cols[f"{kind}{j}"] = col
        if mask is not None:
            table.present[f"{kind}{j}"] = mask
    return table


@st.composite
def _sweep_tables(draw):
    """Cells with 0 to 3 branch rows each: (the table of ``_cell_table``,
    the rows the per-row sweep wrote, cell by cell, axis-only when empty)."""
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=1,
                                    max_size=5)), dtype=np.int64)
    values = np.array(draw(st.lists(st.tuples(_FLOATS, _FLOATS),
                                    min_size=len(counts),
                                    max_size=len(counts))), dtype=float)
    rows = Table({})
    for name, dtype in ROW_DTYPES.items():
        kind = np.dtype(dtype).kind
        col, mask = draw(_column(kind, int(counts.sum())))
        rows.cols[name] = col
        if mask is not None:
            rows.present[name] = mask
    per_row, want = iter(table_rows(rows)), []
    for n, (x, y) in zip(counts.tolist(), values.tolist()):
        axes = {"x": x, "y": y}
        want += [{**axes, **next(per_row)} for _ in range(n)] or [axes]
    return _cell_table(("x", "y"), values, counts, rows), want


@settings(max_examples=150, deadline=None)
@given(table=_tables(), data=st.data())
def test_column_writer_equals_per_row_writer(table, data):
    columns = tuple(data.draw(st.permutations(list(table.cols) + ["absent"])))
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            got, want = Path(tmp, f"col.{fmt}"), Path(tmp, f"row.{fmt}")
            write_table(str(got), fmt, columns, table, _META)
            write_table_rows(want, fmt, columns, table_rows(table), _META)
            assert got.read_bytes() == want.read_bytes()


@settings(max_examples=100, deadline=None)
@given(case=_sweep_tables())
def test_sweep_table_writes_the_per_row_sweep_rows(case):
    table, want = case
    columns = ("x", "y") + COLUMNS
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "json"):
            got, ref = Path(tmp, f"col.{fmt}"), Path(tmp, f"row.{fmt}")
            write_table(str(got), fmt, columns, table, _META)
            write_table_rows(ref, fmt, columns, want, _META)
            assert got.read_bytes() == ref.read_bytes()
