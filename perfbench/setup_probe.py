"""Set-up probe: a fresh process that imports the program and builds one
round's command lines, then prints ``ready``.  ``run.py`` times it from
process start to that line.

    python3 perfbench/setup_probe.py <workload>
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import quadmech.cli  # noqa: E402,F401  (the import is what is timed)

from workloads import WORKLOADS, argv_lists  # noqa: E402

w = WORKLOADS[sys.argv[1]]
argv_lists(w, Path(".perfbench_out") / "probe", w.threads())
print("ready", flush=True)
