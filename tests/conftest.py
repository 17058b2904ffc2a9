import json
import random

import pytest

from logicworlds.config import SuiteConfig
from logicworlds.dataset_io import compute_stats, instance_from_dict
from logicworlds.rules import BinaryRule, RelationAlphabet, RuleSet
from logicworlds.sampler import SPLIT_NAMES, WorldDataset
from logicworlds.worldgraph import GenConfig


def identity_alphabet(size: int) -> RelationAlphabet:
    """All-symmetric alphabet: every relation is its own inverse."""
    return RelationAlphabet(size=size, inverse=tuple(range(size)))


def make_rules(triples, alphabet=None, size=None) -> RuleSet:
    """RuleSet from ((body0, body1), head) triples, identity alphabet default."""
    rules = tuple(BinaryRule(body=(a, b), head=h) for (a, b), h in triples)
    if alphabet is None:
        if size is None:
            size = 1 + max(max(r.body) for r in rules) if rules else 2
            size = max(size, 1 + max(r.head for r in rules))
        alphabet = identity_alphabet(size)
    return RuleSet(alphabet=alphabet, rules=rules)


@pytest.fixture
def rng():
    return random.Random(12345)


def tiny_suite_config(**overrides) -> SuiteConfig:
    """Small, fast suite used across CLI and IO tests."""
    gen_keys = {f.name for f in GenConfig.__dataclass_fields__.values()}
    gen_overrides = {k: overrides.pop(k) for k in list(overrides) if k in gen_keys}
    gen = GenConfig(
        node_pool=gen_overrides.pop("node_pool", 120),
        graphs_per_split=gen_overrides.pop("graphs_per_split", (20, 5, 5)),
        **gen_overrides,
    )
    defaults = dict(
        seed=5,
        num_relations=8,
        rules_per_world=6,
        stride=3,
        valid_worlds=1,
        test_worlds=1,
        gen=gen,
    )
    defaults.update(overrides)
    return SuiteConfig(**defaults)


def render(doc) -> str:
    """``doc`` in the one form of a suite file: compact, key-sorted JSON (a
    ``.json`` file adds a newline, as each ``.jsonl`` line does)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def recompute_stats(world_dir) -> None:
    """Re-write a world's ``stats.json`` as the writer would from its
    instance lines as they now are, keeping its ``world_id``, ``split``,
    ``max_walk_len`` and ``sampling_info``."""
    old = json.loads((world_dir / "stats.json").read_text())
    shared = {}
    instances = {
        split: [
            instance_from_dict(json.loads(line), shared)
            for line in (world_dir / f"{split}.jsonl").read_text().splitlines()
        ]
        for split in SPLIT_NAMES
    }
    ds = WorldDataset(
        world_id=old["world_id"],
        instances=instances,
        max_walk_len=old["max_walk_len"],
        sampling_info=old["sampling_info"],
    )
    doc = compute_stats(ds, old["split"])
    (world_dir / "stats.json").write_text(render(doc) + "\n")
