"""Golden bytes: a tiny suite must keep the exact tree it had when recorded.

The determinism tests in ``test_cli`` compare two runs of the same code;
this one compares against a digest fixed in the source, so a change that
is meant to be output-neutral (a refactor, a speed-up) cannot alter a
single byte of a generated suite unnoticed. If a change alters the
output on purpose, record the new digest here and say why in the
change log.
"""

import hashlib
from pathlib import Path

from logicworlds.config import SuiteConfig
from logicworlds.suite import generate_suite_to_disk, plan_suite
from logicworlds.worldgraph import GenConfig

GOLDEN_CONFIG = SuiteConfig(seed=5, stride=10, gen=GenConfig(graphs_per_split=(20, 5, 5)))
GOLDEN_WORLDS = [0, 13]  # first (train) and last (test) world of the 14
GOLDEN_SHA256 = "c3c321229fe7fc852eb6e9bbdea87a0aa70911b755658c31a175a85f6c0652d5"


def tree_sha256(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_tiny_suite_tree_matches_golden_digest(tmp_path):
    info = generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), tmp_path, world_ids=GOLDEN_WORLDS)
    assert sorted(info) == GOLDEN_WORLDS
    assert tree_sha256(tmp_path) == GOLDEN_SHA256
