"""Golden bytes: a tiny suite must keep the exact tree it had when recorded.

The determinism tests in ``test_cli`` compare two runs of the same code;
this one compares against a digest fixed in the source, so a change that
is meant to be output-neutral (a refactor, a speed-up) cannot alter a
single byte of a generated suite unnoticed. If a change alters the
output on purpose, record the new digest here and say why in the
change log.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from logicworlds.cli import main
from logicworlds.config import SuiteConfig
from logicworlds.dataset_io import read_world
from logicworlds.rules import generate_alphabet, generate_rules, ruleset_to_dict
from logicworlds.seeds import TAG_ALPHABET, TAG_RULES, rng_for
from logicworlds.suite import generate_suite_to_disk, plan_suite, read_plan, select_worlds
from logicworlds.worldgraph import GenConfig

GOLDEN_CONFIG = SuiteConfig(seed=5, stride=10, gen=GenConfig(graphs_per_split=(20, 5, 5)))
GOLDEN_WORLDS = [0, 13]  # first (train) and last (test) world of the 14
GOLDEN_SHA256 = "94b7373bcbbd9af35f889f6cb23ab3881fff92a240951011f07971228ad8fe67"
# The same fold over each kind of file alone, so a change that alters the
# output on purpose shows which kinds moved while the others stay pinned.
GOLDEN_SHA256_BY_KIND = {
    ".jsonl": "270d4becf6d9790fb2ae671e6e7952448d24452568d64c29602a3349b3a3f6bd",
    "manifest.json": "e865e23f9cf3c5d69aa3f943a339357bfe6a8f058c15f0ae194a8577935d882d",
    "rules.json": "98ff5cda749440bc4fa1c1781c0df1f482428a75b1d770631759d8700fa78849",
    "stats.json": "34e37a23dc85bd66c01c035bd1dd26e89bc0e2cc13c117d19ef2329c98fe3c02",
    "world_graph.json": "a186c4d6a07ecd4d3d9c9b53a714a831100fb8e173df11c47926d1f57738113a",
}

# The golden suite plans only K = 20; rule generation is pinned across alphabet sizes.
GOLDEN_RULE_SIZES = (3, 5, 12, 20, 33, 48)
GOLDEN_RULE_SEEDS = range(5)
GOLDEN_RULES_SHA256 = "57bcf7b638053e4cb29a0f29c2db043999f4558f483fcb86dd08a2c3078b6678"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def file_kind(path: Path) -> str:
    """``.jsonl`` for a split file, else the file name."""
    return ".jsonl" if path.suffix == ".jsonl" else path.name


def tree_sha256(root: Path, kind: str | None = None) -> str:
    """sha256 over every file's relative path and bytes, in sorted order;
    given a ``kind``, over the files of that :func:`file_kind` alone."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if kind is not None and file_kind(path) != kind:
            continue
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_tiny_suite_tree_matches_golden_digest(tmp_path):
    info = generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), tmp_path, world_ids=GOLDEN_WORLDS)
    assert sorted(info) == GOLDEN_WORLDS
    assert tree_sha256(tmp_path) == GOLDEN_SHA256


def test_each_kind_of_file_matches_its_golden_digest(tmp_path):
    generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), tmp_path, world_ids=GOLDEN_WORLDS)
    kinds = {file_kind(p) for p in tmp_path.rglob("*") if p.is_file()}
    assert kinds == GOLDEN_SHA256_BY_KIND.keys()
    assert {kind: tree_sha256(tmp_path, kind) for kind in kinds} == GOLDEN_SHA256_BY_KIND


def test_every_file_and_line_is_compact_key_sorted_json(tmp_path):
    """One JSON form: each ``.json`` file is its document's compact,
    key-sorted ``json.dumps`` text and a newline, and so is each ``.jsonl``
    line."""
    generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), tmp_path, world_ids=GOLDEN_WORLDS)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert {p.suffix for p in files} == {".json", ".jsonl"}
    for path in files:
        text = path.read_text()
        for unit in [text] if path.suffix == ".json" else text.splitlines(keepends=True):
            doc = json.loads(unit)
            assert unit == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", path


def test_indented_suite_reads_as_the_compact_one(tmp_path):
    """Readers parse and compare documents, so the golden suite with every
    ``.json`` file re-rendered with ``indent=2`` validates and reads equal.
    It holds two worlds of its plan, so each is read with ``read_world``
    (``read_suite`` wants every world)."""
    compact, indented = tmp_path / "compact", tmp_path / "indented"
    generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), compact, world_ids=GOLDEN_WORLDS)
    shutil.copytree(compact, indented)
    for path in indented.rglob("*.json"):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n")
    plan = read_plan(compact)
    assert read_plan(indented) == plan
    for wid, rules, split in select_worlds(plan, GOLDEN_WORLDS):
        assert main(["validate", str(indented), "--world-id", str(wid), "--workers", "1"]) == 0
        args = (wid, rules, plan.config.gen, split)
        (graph, ds), (expected_graph, expected_ds) = (
            read_world(suite, *args) for suite in (indented, compact)
        )
        assert ds == expected_ds
        assert graph.node_count == expected_graph.node_count
        assert graph.edge_list() == expected_graph.edge_list()


def test_generated_rules_match_golden_digest():
    digest = hashlib.sha256()
    for k in GOLDEN_RULE_SIZES:
        for seed in GOLDEN_RULE_SEEDS:
            alphabet = generate_alphabet(k, rng_for(seed, TAG_ALPHABET))
            doc = ruleset_to_dict(generate_rules(alphabet, rng_for(seed, TAG_RULES)))
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_RULES_SHA256


@pytest.mark.parametrize("hash_seed", ["0", "987654"])
def test_digest_does_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    """No set or dict order of str keys may reach the bytes: a fresh
    interpreter under another ``PYTHONHASHSEED`` writes the same tree."""
    code = (
        "import sys\n"
        "from test_golden import GOLDEN_CONFIG, GOLDEN_WORLDS\n"
        "from logicworlds.suite import generate_suite_to_disk, plan_suite\n"
        "generate_suite_to_disk(plan_suite(GOLDEN_CONFIG), sys.argv[1], world_ids=GOLDEN_WORLDS)\n"
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)]),
    }
    out = tmp_path / "suite"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert tree_sha256(out) == GOLDEN_SHA256


def other_cpython(minor: int) -> str | None:
    """An executable of CPython 3.<minor> that starts, looked for beside the
    running interpreter's installation (the directories next to
    ``sys.base_prefix``) and then on PATH; each candidate is confirmed by
    its own ``sys.implementation`` and ``sys.version_info``."""
    name = f"python3.{minor}"
    beside = sorted(Path(sys.base_prefix).parent.glob(f"*/bin/{name}"))
    on_path = [Path(d) / name for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    probe = "import sys; print(sys.implementation.name, *sys.version_info[:2])"
    for exe in [*beside, *on_path]:
        if not exe.is_file():
            continue
        try:
            proc = subprocess.run([exe, "-c", probe], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.split() == ["cpython", "3", str(minor)]:
            return str(exe)
    return None


@pytest.mark.parametrize("minor", [m for m in (10, 11, 12, 13) if m != sys.version_info.minor])
def test_every_other_cpython_writes_the_golden_tree(tmp_path, minor):
    """The byte contract spans CPython 3.10-3.13: each other version found
    here writes the golden suite, in a stdlib-only process, with the
    digest this interpreter pins."""
    exe = other_cpython(minor)
    if exe is None:
        pytest.skip(f"no CPython 3.{minor} that starts was found")
    code = (
        "import json, sys\n"
        "from logicworlds.config import config_from_dict\n"
        "from logicworlds.suite import generate_suite_to_disk, plan_suite\n"
        "suite = plan_suite(config_from_dict(json.loads(sys.argv[1])))\n"
        "generate_suite_to_disk(suite, sys.argv[2], world_ids=json.loads(sys.argv[3]))\n"
    )
    out = tmp_path / "suite"
    args = [json.dumps(GOLDEN_CONFIG.to_dict()), str(out), json.dumps(GOLDEN_WORLDS)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [exe, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert tree_sha256(out) == GOLDEN_SHA256
