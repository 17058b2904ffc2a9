"""Every narrated demo under ``demos/``, and the README's Python examples,
must run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL
)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(demo)]
    if demo.name == "05_full_suite.py":
        argv.append(str(tmp_path / "suite"))  # keep the suite inside the test's directory
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """The blocks run in order in one namespace, as a reader would paste them."""
    assert README_BLOCKS
    monkeypatch.chdir(tmp_path)  # the examples write ``suite/`` to the working directory
    namespace = {}
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
