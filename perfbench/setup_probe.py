"""Child process timing one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <size>``

Imports the modules the workload's CLI subcommand needs, builds its
scenarios, then prints one JSON line (import seconds, ``repro`` modules
loaded, construction seconds). The parent times from launch to that
line, which is the user's wait before the first work item.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import make_workload

    workload = make_workload(argv[0], size=argv[1])
    t_import = time.perf_counter()
    for name in workload.import_modules():
        importlib.import_module(name)
    t_built = time.perf_counter()
    modules = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
    scenarios = workload.build_scenarios()
    t_done = time.perf_counter()
    print(json.dumps({
        "import_s": t_built - t_import,
        "modules_loaded": modules,
        "construct_s": t_done - t_built,
        "scenarios": len(scenarios),
        "probe_s": t_import - t0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
