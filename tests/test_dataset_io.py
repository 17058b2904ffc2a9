import dataclasses
import json
import random
import re
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicworlds.dataset_io import (
    Difficulty,
    compute_stats,
    difficulty_bucket,
    extend_graph,
    instance_from_dict,
    instance_to_json,
    read_world,
)
from logicworlds.errors import ConfigError, SuiteFormatError
from logicworlds.rules import select_rules
from logicworlds.sampler import SPLIT_NAMES, Instance, WorldDataset
from logicworlds.suite import generate_suite, generate_suite_to_disk, plan_suite, read_suite

from conftest import tiny_suite_config
from oracles import instance_to_dict


def one_instance(descriptor=(0, 2), target=3):
    return Instance(
        edges=((0, 0, 1), (1, 2, 2)),
        source=0,
        sink=2,
        target=target,
        resolution_path=(0, 1, 2),
        descriptor=descriptor,
    )


class TestComputeStats:
    def test_single_instance_means(self):
        ds = WorldDataset(
            world_id=0,
            instances={"train": [one_instance()], "valid": [], "test": []},
            max_walk_len=10,
        )
        stats = compute_stats(ds, "train")
        assert stats["num_classes"] == 1
        assert stats["num_descriptors"] == 1
        assert stats["avg_resolution_length"] == 2.0
        assert stats["avg_nodes"] == 3.0
        assert stats["avg_edges"] == 2.0

    def test_empty_dataset_rejected(self):
        ds = WorldDataset(
            world_id=0, instances={"train": [], "valid": [], "test": []}, max_walk_len=10
        )
        with pytest.raises(ConfigError):
            compute_stats(ds, "train")

    def test_distinct_counting(self):
        ds = WorldDataset(
            world_id=0,
            instances={
                "train": [one_instance(), one_instance(target=4)],
                "valid": [one_instance(descriptor=(0, 2, 1))],
                "test": [],
            },
            max_walk_len=10,
        )
        stats = compute_stats(ds, "train")
        assert stats["num_classes"] == 2
        assert stats["num_descriptors"] == 2


class TestDifficultyBucket:
    @pytest.mark.parametrize(
        "accuracy,expected",
        [
            (0.758, Difficulty.EASY),  # anchor accuracies around both thresholds
            (0.638, Difficulty.MEDIUM),
            (0.481, Difficulty.HARD),
            (0.70, Difficulty.EASY),
            (0.6999, Difficulty.MEDIUM),
            (0.54, Difficulty.MEDIUM),
            (0.5399, Difficulty.HARD),
            (1.0, Difficulty.EASY),
            (0.0, Difficulty.HARD),
        ],
    )
    def test_thresholds(self, accuracy, expected):
        assert difficulty_bucket(accuracy) is expected

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                difficulty_bucket(bad)

    def test_monotone_in_accuracy(self):
        previous = Difficulty.HARD
        for step in range(101):
            bucket = difficulty_bucket(step / 100)
            assert bucket <= previous
            previous = bucket

    def test_ordering(self):
        assert Difficulty.EASY < Difficulty.MEDIUM < Difficulty.HARD
        assert [d.label for d in Difficulty] == ["Easy", "Medium", "Hard"]


class TestExtendGraph:
    def test_single_edge(self):
        ext = extend_graph([(0, 5, 1)])
        assert ext.node_count == 3
        assert ext.links == ((0, 2), (2, 1))
        assert ext.edge_node_labels == (5,)

    def test_counting_identity(self):
        local = random.Random(0)
        for _ in range(50):
            n = local.randrange(2, 15)
            edges = []
            seen = set()
            for _ in range(local.randrange(1, 30)):
                u, v = local.randrange(n), local.randrange(n)
                if u != v and (u, v) not in seen:
                    seen.add((u, v))
                    edges.append((u, local.randrange(5), v))
            if not edges:
                continue
            ext = extend_graph(edges)
            n_original = len({x for u, _, v in edges for x in (u, v)})
            assert ext.node_count == n_original + len(edges)
            assert ext.link_count == 2 * len(edges)
            for edge_node, (u, _, v) in zip(ext.edge_nodes, edges):
                incident = [l for l in ext.links if edge_node in l]
                assert len(incident) == 2
                assert incident == [(u, edge_node), (edge_node, v)]

    def test_empty(self):
        ext = extend_graph([])
        assert ext.node_count == 0
        assert ext.links == ()


class TestInstanceSerialization:
    def test_schema_and_round_trip(self):
        inst = one_instance()
        doc = instance_to_dict(inst, world_id=4)
        assert set(doc) == {
            "edges",
            "query",
            "target",
            "resolution_path",
            "descriptor",
            "world_id",
        }
        assert doc["query"] == [0, 2]
        assert instance_from_dict(doc, {}) == inst

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(
            Instance,
            edges=st.lists(st.tuples(st.integers(), st.integers(), st.integers())).map(tuple),
            source=st.integers(),
            sink=st.integers(),
            target=st.integers(),
            resolution_path=st.lists(st.integers()).map(tuple),
            descriptor=st.lists(st.integers()).map(tuple),
        ),
        st.integers(),
    )
    @example(one_instance(), 0)
    @example(dataclasses.replace(one_instance(), edges=(), descriptor=()), -1)
    @example(dataclasses.replace(one_instance(), edges=((-(2**70), 3, 2**64),)), 10**30)
    def test_line_formatter_equals_json_dumps(self, inst, world_id):
        expected = json.dumps(
            instance_to_dict(inst, world_id), sort_keys=True, separators=(",", ":")
        )
        assert instance_to_json(inst, world_id) == expected


@pytest.fixture(scope="module")
def small_suite(tmp_path_factory):
    config = tiny_suite_config()
    suite = generate_suite(config)
    path = tmp_path_factory.mktemp("suite") / "out"
    generate_suite_to_disk(plan_suite(config), path)
    return config, suite, path


class TestSuiteRoundTrip:
    def test_deep_equality(self, small_suite):
        _, suite, path = small_suite
        loaded = read_suite(path)
        assert loaded == suite

    def test_world_shares_equal_tuples(self, small_suite):
        config, suite, path = small_suite
        for world in suite.worlds:  # read alone, a world shares its own tuples
            rules = select_rules(suite.rules, world.rule_indices)
            split = suite.world_splits[world.world_id]
            _, ds = read_world(path, world.world_id, rules, config.gen, split)
            first, seen = {}, 0
            for inst in ds.all_instances():
                for value in (*inst.edges, inst.resolution_path, inst.descriptor):
                    assert first.setdefault(value, value) is value
                    seen += 1
            assert len(first) < seen  # the world repeats some tuple
        # read_suite shares one table across its worlds
        first, worlds_of = {}, {}
        for world_id, ds in read_suite(path).datasets.items():
            for inst in ds.all_instances():
                for kind, values in (("edge", inst.edges), ("descriptor", [inst.descriptor])):
                    for value in values:
                        assert first.setdefault(value, value) is value
                        worlds_of.setdefault((kind, value), set()).add(world_id)
        recurring = {kind for (kind, _), ids in worlds_of.items() if len(ids) > 1}
        assert recurring == {"edge", "descriptor"}  # both recur in another world

    def test_layout(self, small_suite):
        _, suite, path = small_suite
        assert (path / "manifest.json").exists()
        for world in suite.worlds:
            world_dir = path / f"rule_{world.world_id}"
            for name in (
                "rules.json",
                "world_graph.json",
                "train.jsonl",
                "valid.jsonl",
                "test.jsonl",
                "stats.json",
            ):
                assert (world_dir / name).exists()

    def test_manifest_similarity_matrix(self, small_suite):
        config, suite, path = small_suite
        manifest = json.loads((path / "manifest.json").read_text())
        sims = manifest["similarity"]
        n = len(suite.worlds)
        assert len(sims) == n and all(len(row) == n for row in sims)
        for i in range(n):
            assert sims[i][i] == config.rules_per_world
            for j in range(n):
                assert sims[i][j] == sims[j][i]

    def test_manifest_protocols(self, small_suite):
        config, suite, path = small_suite
        manifest = json.loads((path / "manifest.json").read_text())
        protocols = manifest["protocols"]
        all_ids = [w.world_id for w in suite.worlds]
        assert protocols["supervised"] == all_ids
        assert len(protocols["multitask"]["heldout"]) == (
            config.valid_worlds + config.test_worlds
        )
        assert protocols["continual"] == protocols["multitask"]["train"]

    def test_stats_match_independent_rereader(self, small_suite):
        _, suite, path = small_suite
        for world in suite.worlds:
            world_dir = path / f"rule_{world.world_id}"
            stats = json.loads((world_dir / "stats.json").read_text())
            lengths = []
            for split in ("train", "valid", "test"):
                for line in (world_dir / f"{split}.jsonl").read_text().splitlines():
                    lengths.append(len(json.loads(line)["descriptor"]))
            recomputed = round(sum(lengths) / len(lengths), 6)
            assert abs(stats["avg_resolution_length"] - recomputed) <= 1e-9

    def test_malformed_file_reports_context(self, small_suite, tmp_path):
        _, suite, path = small_suite
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(path, broken)
        target = broken / "rule_0" / "train.jsonl"
        lines = target.read_text().splitlines()
        lines[1] = '{"edges": oops'
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(SuiteFormatError, match="train.jsonl:2"):
            read_suite(broken)


INSTANCE_KEYS = ("descriptor", "edges", "query", "resolution_path", "target", "world_id")
NOT_INTEGERS = (True, False, 1.0, "x", None, [], {})
LINE_MUTATIONS = st.one_of(
    st.tuples(
        st.just("replace"),
        st.sampled_from(INSTANCE_KEYS),
        st.integers(0, 63),
        st.sampled_from(NOT_INTEGERS),
    ),
    st.tuples(st.just("drop"), st.sampled_from(INSTANCE_KEYS)),
    st.tuples(st.just("add"), st.text(max_size=3).filter(lambda key: key not in INSTANCE_KEYS)),
    st.tuples(st.just("query"), st.sampled_from([1, 3])),
)


def integer_slot(doc: dict, key: str, k: int) -> tuple:
    """Container and key of the ``k``-th integer (modulo their number) under ``key``."""
    if key in ("target", "world_id"):
        return doc, key
    if key == "edges":
        return doc["edges"][k // 3 % len(doc["edges"])], k % 3
    return doc[key], k % len(doc[key])


def mutate_line(doc: dict, mutation: tuple) -> None:
    kind, *args = mutation
    if kind == "replace":
        container, key = integer_slot(doc, *args[:2])
        container[key] = args[2]
    elif kind == "drop":
        del doc[args[0]]
    elif kind == "add":
        doc[args[0]] = 0
    else:
        doc["query"] = [*doc["query"], 0][: args[0]]


@pytest.fixture(scope="module")
def mutable_suite(small_suite, tmp_path_factory):
    """A copy of the tiny suite whose lines a test may alter and restore."""
    _, suite, path = small_suite
    copy = tmp_path_factory.mktemp("mutable") / "suite"
    shutil.copytree(path, copy)
    ids = [w.world_id for w in suite.worlds]
    # the example below: an earlier world holds the path of the last
    # world's first test line, whose item 1 is node 1
    line = (copy / f"rule_{ids[-1]}" / "test.jsonl").read_text().splitlines()[0]
    held = tuple(json.loads(line)["resolution_path"])
    assert held[1] == 1
    earlier = [inst for wid in ids[:-1] for inst in suite.datasets[wid].all_instances()]
    assert any(inst.resolution_path == held for inst in earlier)
    return ids, copy


class TestMalformedInstanceLine:
    # One mutation of one line of one world: an integer replaced by another
    # JSON type, a key dropped or added, or a query of one or three items.
    @settings(max_examples=300, deadline=None)
    @given(
        world=st.integers(0, 63),
        split=st.sampled_from(SPLIT_NAMES),
        line=st.integers(0, 63),
        mutation=LINE_MUTATIONS,
    )
    # true equals the 1 of the path, so the altered tuple equals one the
    # suite-wide table already holds
    @example(world=-1, split="test", line=0, mutation=("replace", "resolution_path", 1, True))
    def test_read_suite_refuses_it_naming_the_line(
        self, mutable_suite, world, split, line, mutation
    ):
        ids, path = mutable_suite
        file = path / f"rule_{ids[world % len(ids)]}" / f"{split}.jsonl"
        text = file.read_text()
        lines = text.splitlines()
        index = line % len(lines)
        doc = json.loads(lines[index])
        mutate_line(doc, mutation)
        lines[index] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        file.write_text("\n".join(lines) + "\n")
        try:
            with pytest.raises(SuiteFormatError, match=re.escape(f"{file}:{index + 1}: ")):
                read_suite(path)
        finally:
            file.write_text(text)
