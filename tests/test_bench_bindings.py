"""The benchmark's traced layer functions stay bound in the program.

``perfbench/spans.py`` patches each name of its ``TRACED`` table at every
module attribute that binds it, and ``perfbench/run.py --trace 1`` passes
``steady_state.roots_match`` to the agreement metric.  A cleanup that
deletes or renames one of them breaks every traced run; these tests read the
table (without importing the benchmark as a package) and check each name.
Its ``_SIZE`` table reads ``len(run_sweep(...).cells)`` as the cell count
and stats ``write_table``'s first positional argument; the last two tests
hold the program to both.
"""
import importlib
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans(name: str) -> dict:
    """A table of ``perfbench/spans.py``, read by executing the module."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace[name]


def test_traced_names_are_bound():
    names = [(layer, f) for layer, funcs in _spans("TRACED").items()
             for f in funcs]
    names.append(("steady_state", "roots_match"))
    unbound = [f"{layer}.{f}" for layer, f in names
               if not callable(getattr(importlib.import_module(
                   f"quadmech.{layer}"), f, None))]
    assert len(names) > 10 and unbound == []


def test_sweep_size_is_the_cell_count():
    # the benchmark's sweep.cells metric is len(run_sweep(spec).cells)
    from quadmech import Axis, SweepSpec, run_sweep

    from conftest import make_linearized, make_system
    size = _spans("_SIZE")["sweep.run_sweep"]
    one = (Axis("delta_c", 2.0, 6.0, 5),)
    two = one + (Axis("eta", 10.0, 100.0, 3),)
    cool = (Axis("kappa", 0.05, 0.5, 4), Axis("omega_ex", 0.0, 0.3, 3))
    for base, axes, mode, cells in ((make_system(), one, "root-count", 5),
                                    (make_system(), two, "root-count", 15),
                                    (make_linearized(), cool, "cooling", 12)):
        spec = SweepSpec(axes=axes, base=base, mode=mode)
        out = run_sweep(spec)
        assert len(out.cells) == size((spec,), {}, out) == cells


def test_write_table_size_is_its_first_argument(tmp_path):
    # the benchmark's cli.write_table.bytes metric stats args[0]
    from quadmech.cli import COLUMNS, write_table
    from quadmech.sweep import Table
    args = (str(tmp_path / "t.csv"), "csv", ("x",) + COLUMNS,
            Table({"x": np.linspace(0.0, 1.0, 3)}), {"tool": "quadmech"})
    write_table(*args)
    written = (tmp_path / "t.csv").read_bytes()
    assert _spans("_SIZE")["cli.write_table"](args, {}, None) == len(written) > 0
