"""The benchmark's traced layer functions stay bound in the program.

``perfbench/spans.py`` patches each name of its ``TRACED`` table at every
module attribute that binds it, and ``perfbench/run.py --trace 1`` passes
``steady_state.roots_match`` to the agreement metric.  A cleanup that
deletes or renames one of them breaks every traced run; this test reads the
table (without importing the benchmark as a package) and checks each name.
"""
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TRACED"]


def test_traced_names_are_bound():
    names = [(layer, f) for layer, funcs in _traced().items() for f in funcs]
    names.append(("steady_state", "roots_match"))
    unbound = [f"{layer}.{f}" for layer, f in names
               if not callable(getattr(importlib.import_module(
                   f"quadmech.{layer}"), f, None))]
    assert len(names) > 10 and unbound == []
