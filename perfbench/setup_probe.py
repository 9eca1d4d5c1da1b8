"""Set-up probe: one fresh interpreter's import and build time.

``python3 perfbench/setup_probe.py <workload> <seed> <src>`` imports
``repro``, builds the workload's rigs, shard workers and inputs, and prints
``{"import_s": ..., "build_s": ..., "slowness": ...}``. The clock starts
just before the first ``repro`` import. The calibration loop runs right
before and right after, in this same cold process: set-up time tracks it
far more closely than a calibration taken in the long-lived parent.
"""

import importlib
import json
import sys
import time


def main() -> None:
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    from calibration import calibrate, slowness
    from workloads import IMPORTS, WORKLOADS

    workload = WORKLOADS[name]
    before = calibrate()
    start = time.perf_counter()
    for module in IMPORTS:
        importlib.import_module(module)
    imported = time.perf_counter()
    workload.set_up(seed)
    built = time.perf_counter()
    after = calibrate()
    print(json.dumps({"import_s": imported - start,
                      "build_s": built - imported,
                      "slowness": slowness(before, after)}))


if __name__ == "__main__":
    main()
