import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logicworlds
from logicworlds import GenConfig, SuiteConfig, generate_suite, symbolic_baseline_solve
from logicworlds.dataset_io import write_manifest
from logicworlds.errors import ConfigError, SuiteFormatError
from logicworlds.rules import ruleset_to_dict, select_rules
from logicworlds.suite import (
    Suite,
    assign_world_splits,
    manifest_doc,
    map_worlds,
    plan_suite,
    read_plan,
    select_worlds,
)

from conftest import tiny_suite_config

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


def json_paths(doc, path=()):
    """Every path into a JSON document: the root's ``()``, then each key or index."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(value, (*path, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


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

    def test_importing_the_package_loads_no_process_pool(self):
        # a fresh interpreter: this one may have started a pool already
        code = "import sys, logicworlds; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(logicworlds.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "False"


class TestWorldSplits:
    def test_trailing_ids_become_heldout(self):
        splits = assign_world_splits(list(range(7)), valid_worlds=2, test_worlds=2)
        assert [splits[i] for i in range(7)] == [
            "train", "train", "train", "valid", "valid", "test", "test"
        ]

    def test_too_few_worlds_is_config_error(self):
        with pytest.raises(ConfigError):
            assign_world_splits([0, 1], valid_worlds=1, test_worlds=1)


class TestSelectWorlds:
    @pytest.mark.parametrize(
        ("world_ids", "expected"), [(None, [0, 1, 2, 3, 4]), ([4, 2, 0], [0, 2, 4])]
    )
    def test_plan_order_triples_of_each_worlds_rules_and_split(self, world_ids, expected):
        plan = plan_suite(tiny_suite_config())
        assert [w.world_id for w in plan.worlds] == [0, 1, 2, 3, 4]
        triples = select_worlds(plan, world_ids)
        assert [wid for wid, _, _ in triples] == expected
        for (wid, rules, split), world in zip(triples, (plan.worlds[i] for i in expected)):
            expected_rules = select_rules(plan.rules, world.rule_indices)
            assert ruleset_to_dict(rules) == ruleset_to_dict(expected_rules)
            assert split == plan.world_splits[wid]


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
        for wid, rules, _ in select_worlds(suite, None):
            ds = suite.datasets[wid]
            assert {len(i.descriptor) for i in ds.all_instances()} == {2}
            assert symbolic_baseline_solve(rules, ds) == 1.0


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    """A directory holding the tiny suite's ``manifest.json``, and its text."""
    path = tmp_path_factory.mktemp("plan")
    plan = plan_suite(tiny_suite_config())
    write_manifest(path, manifest_doc(plan))
    assert read_plan(path) == plan  # the unmutated manifest is read back
    return path, (path / "manifest.json").read_text()


class TestReadPlan:
    # One mutation at any depth: drop a key or list item, add a key to an
    # object, or replace a value by one of another type (bool, int and
    # float count as three). Outside config every manifest field is
    # derived, the master rules included, so any mutation there must be
    # refused.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_mutated_manifest_is_refused_naming_it_or_read(self, tiny_manifest, data):
        path, text = tiny_manifest
        doc = json.loads(text)
        paths = list(json_paths(doc))
        kind = data.draw(st.sampled_from(["drop", "add", "replace"]))
        if kind == "drop":
            where = data.draw(st.sampled_from(paths[1:]))
            del at(doc, where[:-1])[where[-1]]
        elif kind == "add":
            parent = data.draw(st.sampled_from([p for p in paths if isinstance(at(doc, p), dict)]))
            key = data.draw(st.text(max_size=3).filter(lambda k: k not in at(doc, parent)))
            where = (*parent, key)
            at(doc, parent)[key] = data.draw(json_values)
        else:
            where = data.draw(st.sampled_from(paths))
            old = at(doc, where)
            new = data.draw(json_values.filter(lambda v: type(v) is not type(old)))
            if where:
                at(doc, where[:-1])[where[-1]] = new
            else:
                doc = new
        (path / "manifest.json").write_text(json.dumps(doc))
        try:
            suite = read_plan(path)
        except SuiteFormatError as exc:
            assert f"{path / 'manifest.json'}:" in str(exc)
        else:
            assert isinstance(suite, Suite)
            assert where[:1] == ("config",), (kind, where)
