"""Child-process steps of the benchmark that call the library directly.

    python3 probe.py setup CONFIG_JSON   import logicworlds and plan the suite
    python3 probe.py load SUITE_DIR      time read_suite on a generated tree

Each prints one JSON line. The benchmark times ``setup`` from outside, as
the fixed cost every CLI call pays; ``load`` times ``read_suite`` itself,
which is what a training pipeline pays to get a suite into memory.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config_path: str) -> dict:
    import logicworlds
    from logicworlds.config import load_config

    suite = logicworlds.plan_suite(load_config(config_path))
    return {"rules": len(suite.rules), "worlds": len(suite.worlds)}


def load(suite_dir: str) -> dict:
    from logicworlds.suite import read_suite

    start = time.perf_counter()
    suite = read_suite(suite_dir)
    seconds = time.perf_counter() - start
    instances = sum(len(ds.all_instances()) for ds in suite.datasets.values())
    return {"seconds": seconds, "worlds": sorted(suite.datasets), "instances": instances}


if __name__ == "__main__":
    mode, arg = sys.argv[1:3]
    print(json.dumps({"setup": setup, "load": load}[mode](arg)))
