"""Whole-suite orchestration: generate, write, read.

A suite is the full artifact: master rules, the overlapping world
partition with train/valid/test world designations, one WorldGraph and
one certified dataset per world, plus the manifest tying them together.
Everything is a pure function of (config, seed); worlds get independent
sub-seeds, so they can be built in any order or in parallel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from . import seeds
from .config import SuiteConfig, config_from_dict
from .dataset_io import (
    compute_stats,
    read_manifest,
    read_world,
    ruleset_from_dict,
    ruleset_to_dict,
    world_dir_name,
    write_manifest,
    write_world,
)
from .errors import ConfigError
from .partition import WorldSpec, partition_rules, similarity_matrix
from .rules import RuleSet, generate_alphabet, generate_rules, select_rules
from .sampler import WorldDataset, build_dataset
from .worldgraph import WorldGraph, generate_world_graph

T = TypeVar("T")


@dataclass
class Suite:
    config: SuiteConfig
    rules: RuleSet  # master rules in partitioned order
    worlds: list[WorldSpec]
    world_splits: dict[int, str]
    graphs: dict[int, WorldGraph] = field(default_factory=dict)
    datasets: dict[int, WorldDataset] = field(default_factory=dict)


def plan_suite(config: SuiteConfig) -> Suite:
    """Build rules and the world partition; no per-world generation yet."""
    alphabet = generate_alphabet(
        config.num_relations,
        seeds.rng_for(config.seed, seeds.TAG_ALPHABET),
        config.symmetric_fraction,
    )
    master = generate_rules(alphabet, seeds.rng_for(config.seed, seeds.TAG_RULES))
    partition = partition_rules(
        master,
        config.rules_per_world,
        config.stride,
        seeds.rng_for(config.seed, seeds.TAG_PARTITION),
    )
    world_splits = assign_world_splits(
        [w.world_id for w in partition.worlds], config.valid_worlds, config.test_worlds
    )
    return Suite(
        config=config,
        rules=partition.rules,
        worlds=partition.worlds,
        world_splits=world_splits,
    )


def assign_world_splits(
    world_ids: list[int], valid_worlds: int, test_worlds: int
) -> dict[int, str]:
    """Designate worlds train/valid/test in id order: trailing ids become
    the test worlds, the ones before them the validation worlds."""
    if valid_worlds + test_worlds >= len(world_ids):
        raise ConfigError(
            f"{len(world_ids)} worlds cannot hold {valid_worlds} valid "
            f"+ {test_worlds} test worlds and still train"
        )
    splits = {}
    cut_test = len(world_ids) - test_worlds
    cut_valid = cut_test - valid_worlds
    for pos, wid in enumerate(world_ids):
        splits[wid] = "train" if pos < cut_valid else ("valid" if pos < cut_test else "test")
    return splits


def build_world(
    suite: Suite, world: WorldSpec
) -> tuple[WorldGraph, WorldDataset]:
    """Generate one world's graph and dataset from its derived sub-seeds.

    The world's rules are selected once; growth, the closure check,
    sampling and certification all use that one RuleSet (and its
    resolution memo).
    """
    config = suite.config
    world_rules = select_rules(suite.rules, list(world.rule_indices))
    graph = generate_world_graph(
        world_rules,
        config.gen,
        seeds.rng_for(config.seed, seeds.TAG_WORLDGRAPH, world.world_id),
        world_id=world.world_id,
    )
    dataset = build_dataset(
        graph,
        world_rules,
        config.gen,
        seeds.rng_for(config.seed, seeds.TAG_INSTANCE, world.world_id),
        world_id=world.world_id,
    )
    return graph, dataset


def _select_worlds(suite: Suite, world_ids: list[int] | None) -> list[WorldSpec]:
    """The plan's worlds, or those named by ``world_ids``, in plan order.

    A world id the plan does not have is a ConfigError.
    """
    if world_ids is None:
        return suite.worlds
    unknown = set(world_ids) - {w.world_id for w in suite.worlds}
    if unknown:
        n = len(suite.worlds)
        raise ConfigError(f"world ids {sorted(unknown)} not in the plan's {n} worlds")
    return [w for w in suite.worlds if w.world_id in world_ids]


def generate_suite(config: SuiteConfig, world_ids: list[int] | None = None) -> Suite:
    """Generate the whole suite in memory (optionally a subset of worlds)."""
    suite = plan_suite(config)
    for world in _select_worlds(suite, world_ids):
        graph, dataset = build_world(suite, world)
        suite.graphs[world.world_id] = graph
        suite.datasets[world.world_id] = dataset
    return suite


def protocol_orderings(suite: Suite) -> dict:
    """Manifest orderings for the supervised/multitask/continual setups."""
    ids = [w.world_id for w in suite.worlds]
    train = [wid for wid in ids if suite.world_splits[wid] == "train"]
    heldout = [wid for wid in ids if suite.world_splits[wid] != "train"]
    return {
        "supervised": ids,
        "multitask": {"train": train, "heldout": heldout},
        "continual": train,
    }


def read_suite(path: str | Path) -> Suite:
    """Load a suite directory back into memory."""
    root = Path(path)
    manifest = read_manifest(root)
    config = config_from_dict(
        {k: v for k, v in manifest["config"].items() if v is not None}
    )
    rules = ruleset_from_dict(manifest["rules"])
    worlds = [
        WorldSpec(world_id=w["world_id"], rule_indices=tuple(w["rule_indices"]))
        for w in manifest["worlds"]
    ]
    world_splits = {w["world_id"]: w["split"] for w in manifest["worlds"]}
    suite = Suite(
        config=config, rules=rules, worlds=worlds, world_splits=world_splits
    )
    for world in worlds:
        wid = world.world_id
        world_dir = root / world_dir_name(wid)
        if not world_dir.exists():
            continue
        graph, dataset, _ = read_world(root, wid)
        suite.graphs[wid] = graph
        suite.datasets[wid] = dataset
    return suite


def map_worlds(fn: Callable[..., T], tasks: list[tuple], workers: int) -> Iterator[T]:
    """Yield ``fn(*task)`` for each task, in task order.

    Worlds are independent, so with ``workers`` > 1 and more than one
    task the calls run in a process pool of ``min(workers, len(tasks))``
    processes; otherwise they run inline, one after another. ``fn`` must
    be a module-level function and its tasks and results picklable. The
    first exception, in task order, is raised as it would be inline, and
    the calls still queued are cancelled.
    """
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    if workers == 1 or len(tasks) <= 1:
        return (fn(*task) for task in tasks)
    return _map_in_pool(fn, tasks, min(workers, len(tasks)))


def _map_in_pool(fn: Callable[..., T], tasks: list[tuple], workers: int) -> Iterator[T]:
    # The platform's default start method: on Linux, fork starts workers
    # without re-importing the package (spawn costs each command about
    # 0.2 s on 2 CPUs), and the pool launches its forked workers before
    # it starts its own manager thread. Tasks and results are pickled, so
    # ``fn`` works under spawn as well.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            for future in futures:
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


@dataclass
class WrittenSuite(Mapping):
    """What :func:`generate_suite_to_disk` wrote.

    A read-only mapping from each built world's id to its sampling info,
    plus the plan's rule and world counts and each built world's
    instance count.
    """

    rules: int
    worlds: int
    sampling_info: dict[int, dict]
    instances: dict[int, int]

    def __getitem__(self, world_id: int) -> dict:
        return self.sampling_info[world_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self.sampling_info)

    def __len__(self) -> int:
        return len(self.sampling_info)


def _build_and_write(suite: Suite, world: WorldSpec, out: Path) -> tuple[dict, int]:
    graph, dataset = build_world(suite, world)
    stats = compute_stats(dataset, split=suite.world_splits[world.world_id])
    write_world(
        out,
        world.world_id,
        ruleset_to_dict(dataset.rules),
        graph,
        dataset,
        stats,
    )
    return dataset.sampling_info, len(dataset.all_instances())


def generate_suite_to_disk(
    config: SuiteConfig,
    out: str | Path,
    workers: int = 1,
    world_ids: list[int] | None = None,
) -> WrittenSuite:
    """Generate straight to disk, world by world (optionally in parallel).

    The only suite writer: it writes each world directory and the
    manifest. Returns the per-world sampling info keyed by world_id,
    with the plan's sizes and the instance counts (see
    :class:`WrittenSuite`).
    The result and the bytes on disk are independent of ``workers``. A
    world id the plan does not have, or ``workers`` < 1, is a
    ConfigError, raised before anything is written.
    """
    suite = plan_suite(config)
    selected = _select_worlds(suite, world_ids)
    out = Path(out)
    results = map_worlds(_build_and_write, [(suite, world, out) for world in selected], workers)
    out.mkdir(parents=True, exist_ok=True)
    written = WrittenSuite(
        rules=len(suite.rules.rules), worlds=len(suite.worlds), sampling_info={}, instances={}
    )
    for world, (sampling_info, instances) in zip(selected, results):
        written.sampling_info[world.world_id] = sampling_info
        written.instances[world.world_id] = instances
    worlds_doc = [
        {
            "world_id": w.world_id,
            "rule_indices": list(w.rule_indices),
            "split": suite.world_splits[w.world_id],
        }
        for w in suite.worlds
    ]
    write_manifest(
        out,
        config.to_dict(),
        ruleset_to_dict(suite.rules),
        worlds_doc,
        similarity_matrix(suite.worlds),
        protocol_orderings(suite),
    )
    return written
