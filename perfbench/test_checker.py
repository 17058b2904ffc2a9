"""Tests for the benchmark's own output checks.

    python3 -m pytest perfbench -q

A small suite is generated once through the CLI; each test tampers with a
copy of it and expects the checker to say what is wrong, and the
untampered copy must pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checker
import run

ROOT = Path(__file__).resolve().parent.parent
SMALL_CONFIG = {
    "seed": 5,
    "num_relations": 8,
    "rules_per_world": 6,
    "stride": 3,
    "valid_worlds": 1,
    "test_worlds": 1,
    "node_pool": 120,
    "graphs_per_split": [20, 5, 5],
}


def _cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "logicworlds.cli", *args],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return done.stdout


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    base = tmp_path_factory.mktemp("suite")
    config = base / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    suite = base / "suite"
    _cli("generate", "--config", str(config), "--out", str(suite), "--workers", "1")
    return suite, _cli("validate", str(suite)), _cli("solve", str(suite))


@pytest.fixture
def suite(generated, tmp_path):
    copy = tmp_path / "suite"
    shutil.copytree(generated[0], copy)
    return copy


def _lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_lines(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records))


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def append_train_line_to_test(root: Path) -> None:
    world = root / "rule_0"
    with open(world / "test.jsonl", "a") as out:
        out.write((world / "train.jsonl").read_text().splitlines()[0] + "\n")


def flip_target(root: Path) -> None:
    path = root / "rule_0" / "train.jsonl"
    records = _lines(path)
    k = json.loads((root / "rule_0" / "rules.json").read_text())["K"]
    records[0]["target"] = (records[0]["target"] + 1) % k
    _write_lines(path, records)


def add_shortcut_edge(root: Path) -> None:
    path = root / "rule_0" / "train.jsonl"
    records = _lines(path)
    source, sink = records[0]["query"]
    records[0]["edges"].append([source, records[0]["target"], sink])
    _write_lines(path, records)


def edit_avg_nodes(root: Path) -> None:
    def edit(doc):
        doc["avg_nodes"] += 0.5

    _edit_json(root / "rule_0" / "stats.json", edit)


def wrong_similarity(root: Path) -> None:
    def edit(doc):
        doc["similarity"][0][1] += 1

    _edit_json(root / "manifest.json", edit)


TAMPERINGS = [
    (append_train_line_to_test, "descriptors shared by train and test"),
    (flip_target, "resolves to"),
    (add_shortcut_edge, "query distance"),
    (edit_avg_nodes, "avg_nodes"),
    (wrong_similarity, "similarity[0][1]"),
]


def test_clean_suite_passes(suite, generated):
    check = checker.SuiteCheck(suite).run()
    assert check.errors == []
    assert check.world_ids == list(range(check.manifest_worlds))
    assert check.instances == 30 * check.manifest_worlds
    assert checker.check_validate_report(generated[1], check.world_ids, check.instances) == []
    assert checker.check_solve_output(generated[2], check.world_ids) == []


def test_tree_digest_sees_one_byte(suite):
    before = checker.tree_digest(suite)
    path = suite / "rule_0" / "valid.jsonl"
    path.write_text(path.read_text().replace(",", ", ", 1))
    assert checker.tree_digest(suite) != before


@pytest.mark.parametrize("tamper, expected", TAMPERINGS, ids=[t.__name__ for t, _ in TAMPERINGS])
def test_tampering_is_rejected(suite, tamper, expected):
    tamper(suite)
    errors = checker.SuiteCheck(suite).run().errors
    assert any(expected in error for error in errors), errors


def test_bad_cli_outputs_are_rejected(suite, generated):
    check = checker.SuiteCheck(suite).run()
    report = json.loads(generated[1])
    report["valid"] -= 1
    assert checker.check_validate_report(json.dumps(report), check.world_ids, check.instances)
    solve = generated[2].replace("rule_0 1.000", "rule_0 0.967")
    assert checker.check_solve_output(solve, check.world_ids)


def test_benchmark_json_matches_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    import traced

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = sorted(traced.per_layer_metrics(traced.Tracer()))
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [(name, *run.describe(name)) for name in layer_names]
