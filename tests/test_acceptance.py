"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion report. Criterion 2 generates a reduced-scale suite once per
session and reuses it for the extended-graph identity check.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from logicworlds.cli import main
from logicworlds.config import SuiteConfig
from logicworlds.dataset_io import Difficulty, compute_stats, difficulty_bucket, extend_graph
from logicworlds.partition import partition_rules, similarity
from logicworlds.resolver import brute_force_resolve, resolve_descriptor
from logicworlds.rules import (
    check_consistency,
    generate_alphabet,
    generate_rules,
    invert_rule,
    select_rules,
)
from logicworlds.sampler import SPLIT_NAMES
from logicworlds.suite import generate_suite, grow_and_sample, plan_suite
from logicworlds.worldgraph import GenConfig

from conftest import make_rules, tiny_suite_config

REDUCED_SEED = 2026


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def reduced_suite(tmp_path_factory):
    """Reduced-scale suite: K=20, w=20, s=1, 200/50/50 instances per world."""
    out = tmp_path_factory.mktemp("acceptance") / "suite"
    config = SuiteConfig(
        seed=REDUCED_SEED, gen=GenConfig(graphs_per_split=(200, 50, 50))
    )
    cfg_path = out.parent / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    started = time.monotonic()
    rc = main(["generate", "--config", str(cfg_path), "--out", str(out), "--workers", "2"])
    assert rc == 0
    return out, cfg_path, started


def test_criterion_1_partition_reproduction():
    started = time.monotonic()
    triples = []
    for i in range(76):
        a, b = divmod(i, 20)
        triples.append(((a, b), (a + b + 1) % 20))
    master = make_rules(triples, size=20)
    _, worlds = partition_rules(master, 20, 1, random.Random(0))
    overlaps = {similarity(a, b) for a, b in zip(worlds, worlds[1:])}
    elapsed = time.monotonic() - started
    report(
        1,
        len(worlds) == 57 and overlaps == {19} and elapsed < 1.0,
        f"76 rules, w=20, s=1 -> {len(worlds)} worlds, "
        f"consecutive overlap {sorted(overlaps)}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_soundness_gate(reduced_suite):
    out, _, started = reduced_suite
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc_validate = main(["validate", str(out)])
    rep = json.loads(buf.getvalue())

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc_solve = main(["solve", str(out)])
    rows = [l for l in buf.getvalue().splitlines() if l.startswith("rule_")]
    imperfect = [r for r in rows if not r.endswith(" 1.000")]
    elapsed = time.monotonic() - started

    ok = (
        rc_validate == 0
        and rc_solve == 0
        and rep["valid"] == rep["instances"] > 0
        and rep["ambiguous"] == 0
        and rep["shortcut_violations"] == 0
        and rows
        and not imperfect
        and elapsed < 600
    )
    report(
        2,
        ok,
        f"{rep['instances']} instances 100% valid, 0 ambiguous, 0 shortcut "
        f"violations; accuracy 1.000 on all {len(rows)} worlds; {elapsed:.0f}s",
    )


def test_criterion_3_parser_oracle_equivalence():
    started = time.monotonic()
    rule_sets = 0
    checked = 0
    for seed in range(100):
        rng = random.Random(seed)
        alphabet = generate_alphabet(4, rng)
        rules = generate_rules(alphabet, rng)
        assert check_consistency(rules) == []
        rule_sets += 1
        for length in range(2, 7):
            for descriptor in itertools.product(range(4), repeat=length):
                assert resolve_descriptor(rules, descriptor) == brute_force_resolve(
                    rules, descriptor
                )
                checked += 1
    elapsed = time.monotonic() - started
    report(
        3,
        rule_sets >= 100 and elapsed < 60,
        f"resolver == bracketing oracle on {checked} descriptors (all lengths 2..6) "
        f"over {rule_sets} rule sets; {elapsed:.0f}s",
    )


def test_criterion_4_inductive_split_property():
    worlds_checked = 0
    for seed in range(10):
        config = tiny_suite_config(seed=seed, graphs_per_split=(12, 4, 4))
        suite = generate_suite(config)
        for wid, ds in suite.datasets.items():
            sets = {
                split: {inst.descriptor for inst in ds.instances[split]}
                for split in SPLIT_NAMES
            }
            assert not sets["train"] & sets["valid"], (seed, wid)
            assert not sets["train"] & sets["test"], (seed, wid)
            assert not sets["valid"] & sets["test"], (seed, wid)
            worlds_checked += 1
    report(
        4,
        worlds_checked > 0,
        f"train/valid/test descriptor sets pairwise disjoint in "
        f"{worlds_checked} worlds across 10 seeds",
    )


def test_criterion_5_structural_statistics_envelope():
    config = SuiteConfig(seed=REDUCED_SEED)  # full-scale defaults: 5000/1000/1000
    suite = plan_suite(config)
    picks = [suite.worlds[0], suite.worlds[len(suite.worlds) // 2], suite.worlds[-1]]
    rows = []
    for world in picks:
        world_rules = select_rules(suite.rules, world.rule_indices)
        _, ds = grow_and_sample(config, world_rules, world.world_id)
        stats = compute_stats(ds)
        rows.append((world.world_id, stats))
        assert 2.0 <= stats["avg_resolution_length"] <= 10.0, world.world_id
        assert stats["num_classes"] <= 20, world.world_id
        assert 3.0 <= stats["avg_nodes"] <= 60.0, world.world_id
        assert 3.0 <= stats["avg_edges"] <= 60.0, world.world_id
    detail = "; ".join(
        f"world {wid}: ARL={s['avg_resolution_length']:.2f} NC={s['num_classes']} "
        f"AN={s['avg_nodes']:.1f} AE={s['avg_edges']:.1f}"
        for wid, s in rows
    )
    report(5, True, detail)


def test_criterion_6_difficulty_anchors():
    anchors = [(0.758, Difficulty.EASY), (0.638, Difficulty.MEDIUM), (0.481, Difficulty.HARD)]
    ok = all(difficulty_bucket(acc) is bucket for acc, bucket in anchors)
    report(6, ok, "0.758 -> Easy, 0.638 -> Medium, 0.481 -> Hard")


def test_criterion_7_extended_graph_identity(reduced_suite):
    out, _, _ = reduced_suite
    manifest = json.loads((out / "manifest.json").read_text())
    instances = []
    for world in manifest["worlds"]:
        if len(instances) >= 1000:
            break
        for split in SPLIT_NAMES:
            path = out / f"rule_{world['world_id']}" / f"{split}.jsonl"
            for line in path.read_text().splitlines():
                instances.append(json.loads(line))
    instances = instances[:1000]
    for record in instances:
        edges = [tuple(e) for e in record["edges"]]
        ext = extend_graph(edges)
        originals = {n for u, _, v in edges for n in (u, v)}
        assert ext.node_count == len(originals) + len(edges)
        assert ext.link_count == 2 * len(edges)
        degree = {n: 0 for n in ext.edge_nodes}
        for a, b in ext.links:
            if a in degree:
                degree[a] += 1
            if b in degree:
                degree[b] += 1
        assert set(degree.values()) == {2}
    report(
        7,
        len(instances) == 1000,
        f"|V|+|E| nodes, 2|E| links, all edge-nodes degree 2 on {len(instances)} instances",
    )


def test_criterion_8_determinism(tmp_path):
    config = tiny_suite_config(graphs_per_split=(15, 4, 4))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    a, b = tmp_path / "run1", tmp_path / "run2"
    assert main(["generate", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg_path), "--out", str(b)]) == 0
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    identical = files_a == files_b and all(
        (a / rel).read_bytes() == (b / rel).read_bytes() for rel in files_a
    )
    report(8, identical, f"two runs byte-identical across {len(files_a)} files")


def test_criterion_9_rule_set_consistency():
    for seed in range(50):
        rng = random.Random(seed)
        alphabet = generate_alphabet(20, rng)
        rules = generate_rules(alphabet, rng)
        assert check_consistency(rules) == [], seed
        present = {(r.body, r.head) for r in rules.rules}
        for rule in rules.rules:
            inverse = invert_rule(rule, alphabet)
            assert (inverse.body, inverse.head) in present, seed
    report(9, True, "50 seeds at K=20: zero diagnostics, closed under inversion")
