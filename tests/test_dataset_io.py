import json
import random

import pytest

from logicworlds.dataset_io import (
    Difficulty,
    compute_stats,
    difficulty_bucket,
    extend_graph,
    instance_from_dict,
    instance_to_dict,
)
from logicworlds.errors import ConfigError, SuiteFormatError
from logicworlds.sampler import Instance, WorldDataset
from logicworlds.suite import generate_suite, generate_suite_to_disk, plan_suite, read_suite

from conftest import tiny_suite_config


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
        stats = compute_stats(ds)
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
            compute_stats(ds)

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
        stats = compute_stats(ds)
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
        assert instance_from_dict(doc) == inst


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
