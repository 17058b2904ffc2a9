"""The golden config's full suite passes the benchmark's independent checker.

``perfbench/checker.py`` imports nothing from ``logicworlds``: it recomputes
split sizes, paths, distances, its own CYK resolution and the stats from
the files alone. Running it on every world the suite writer produces
guards each change to the writer with a check that shares no code with it.
"""

import subprocess
import sys
from pathlib import Path

from logicworlds.suite import generate_suite_to_disk, plan_suite

from test_golden import GOLDEN_CONFIG

CHECKER = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"


def test_golden_config_suite_passes_the_independent_checker(tmp_path):
    info = generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), tmp_path)
    assert len(info) == 14
    result = subprocess.run(
        [sys.executable, str(CHECKER), str(tmp_path)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "14 worlds" in result.stdout and " 0 errors" in result.stdout
