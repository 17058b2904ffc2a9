import pytest

from logicworlds import GenConfig, SuiteConfig, generate_suite, symbolic_baseline_solve
from logicworlds.errors import ConfigError
from logicworlds.suite import assign_world_splits, map_worlds, plan_suite

from conftest import tiny_suite_config


def square_unless_odd(x: int) -> int:
    if x % 2:
        raise ValueError(f"odd task {x}")
    return x * x


class TestMapWorlds:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_in_task_order(self, workers):
        tasks = [(x,) for x in range(0, 20, 2)]
        assert list(map_worlds(square_unless_odd, tasks, workers)) == [x * x for (x,) in tasks]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_task_raises_after_earlier_results(self, workers):
        results = map_worlds(square_unless_odd, [(0,), (2,), (3,), (4,), (5,)], workers)
        assert next(results) == 0
        assert next(results) == 4
        with pytest.raises(ValueError, match="odd task 3"):
            next(results)

    def test_workers_below_one_is_config_error_before_any_call(self):
        with pytest.raises(ConfigError, match="workers"):
            map_worlds(square_unless_odd, [(3,)], 0)


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
