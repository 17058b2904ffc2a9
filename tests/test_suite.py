import pytest

from logicworlds import GenConfig, SuiteConfig, generate_suite, symbolic_baseline_solve
from logicworlds.errors import ConfigError
from logicworlds.suite import assign_world_splits, plan_suite

from conftest import tiny_suite_config


class TestWorldSplits:
    def test_trailing_ids_become_heldout(self):
        splits = assign_world_splits(list(range(7)), valid_worlds=2, test_worlds=2)
        assert [splits[i] for i in range(7)] == [
            "train", "train", "train", "valid", "valid", "test", "test"
        ]

    def test_too_few_worlds_is_config_error(self):
        with pytest.raises(ConfigError):
            assign_world_splits([0, 1], valid_worlds=1, test_worlds=1)


class TestGenerateSuite:
    def test_world_filter(self):
        config = tiny_suite_config()
        suite = generate_suite(config, world_ids=[1])
        assert set(suite.datasets) == {1}
        assert len(suite.worlds) > 1  # the plan still covers the partition

    def test_unknown_world_id_is_config_error(self):
        config = tiny_suite_config()
        worlds = len(plan_suite(config).worlds)
        with pytest.raises(ConfigError, match=f"999.*{worlds} worlds"):
            generate_suite(config, world_ids=[1, 999])

    def test_minimum_walk_length_two(self):
        config = SuiteConfig(
            seed=3,
            num_relations=10,
            rules_per_world=8,
            stride=4,
            valid_worlds=1,
            test_worlds=1,
            gen=GenConfig(node_pool=200, graphs_per_split=(5, 2, 2), max_walk_len=2),
        )
        suite = generate_suite(config)
        for ds in suite.datasets.values():
            assert {len(i.descriptor) for i in ds.all_instances()} == {2}
            assert symbolic_baseline_solve(ds.rules, ds) == 1.0
