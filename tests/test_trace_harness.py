"""The benchmark's traced run still binds to the package and records its work.

``perfbench/traced.py`` wraps package functions by module-level name and
reads argument positions in its counters, so renaming or deleting one
of them breaks ``perfbench/run.py --trace 1``. Running the harness on the
golden config's full suite (14 worlds of 20/5/5 instances) catches that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN_CONFIG

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def test_traced_run_succeeds_and_counts_the_golden_suite(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(GOLDEN_CONFIG.to_dict()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(TRACED), str(config), str(tmp_path / "suite"), str(tmp_path / "spans.tsv.gz")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    info = json.loads(result.stdout.splitlines()[-1])
    assert info["codes"] == {"generate": 0, "validate": 0, "solve": 0, "load": 0}
    assert info["errors"] == []
    metrics = info["metrics"]
    assert metrics["worldgraph.graphs"] == 14
    # the sample_instance wrapper still binds, and each instance is drawn once
    assert metrics["sampler.sample_instance_calls"] == metrics["sampler.instances"] == 420
    assert metrics["generate.resolver.resolve_descriptor_calls"] > 0
    # descriptor collection and certification both walk with the counted
    # iter_simple_path_labels
    assert metrics["generate.resolver.simple_paths"] > 0
    assert metrics["suite.plan_suite_s"] > 0
    assert metrics["dataset_io.read_manifest_s"] > 0
    # the write_world hook reads the suite dir and world id from its first
    # two arguments: if they moved, its count would not be the suite's bytes
    files = [p for p in (tmp_path / "suite").rglob("*") if p.is_file()]
    assert metrics["dataset_io.bytes_written"] == sum(p.stat().st_size for p in files)
