"""Whole-suite orchestration: generate, write, read.

A suite is the full artifact: master rules, the overlapping world
partition with train/valid/test world designations, one WorldGraph and
one certified dataset per world, plus the manifest tying them together.
Everything is a pure function of (config, seed); worlds get independent
sub-seeds, so they can be built in any order or in parallel.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from . import seeds
from .config import SuiteConfig, config_from_dict
from .dataset_io import (
    _parse,
    _require_derived,
    read_manifest,
    read_world,
    write_manifest,
    write_world,
)
from .errors import ConfigError
from .partition import WorldSpec, partition_rules, similarity_matrix
from .rules import RuleSet, generate_alphabet, generate_rules, ruleset_to_dict, select_rules
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
    """Build rules and the world partition; no per-world generation yet.

    The one source of a suite's rules: the writer plans here, and
    :func:`read_plan` re-plans from the manifest's ``config``.
    """
    alphabet = generate_alphabet(
        config.num_relations,
        seeds.rng_for(config.seed, seeds.TAG_ALPHABET),
        config.symmetric_fraction,
    )
    master = generate_rules(alphabet, seeds.rng_for(config.seed, seeds.TAG_RULES))
    rules, worlds = partition_rules(
        master,
        config.rules_per_world,
        config.stride,
        seeds.rng_for(config.seed, seeds.TAG_PARTITION),
    )
    world_splits = assign_world_splits(
        [w.world_id for w in worlds], config.valid_worlds, config.test_worlds
    )
    return Suite(config=config, rules=rules, worlds=worlds, world_splits=world_splits)


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


def grow_and_sample(
    config: SuiteConfig, world_rules: RuleSet, world_id: int
) -> tuple[WorldGraph, WorldDataset]:
    """Grow one world's graph and sample its dataset from its derived sub-seeds.

    Growth, sampling and certification all use the one ``world_rules``
    (and its resolution memo).
    """
    graph = generate_world_graph(
        world_rules,
        config.gen,
        seeds.rng_for(config.seed, seeds.TAG_WORLDGRAPH, world_id),
        world_id=world_id,
    )
    dataset = build_dataset(
        graph,
        world_rules,
        config.gen,
        seeds.rng_for(config.seed, seeds.TAG_INSTANCE, world_id),
        world_id=world_id,
    )
    return graph, dataset


def select_worlds(suite: Suite, world_ids: list[int] | None) -> list[tuple[int, RuleSet, str]]:
    """``(world_id, rules, split)`` of the plan's worlds, or of those named by
    ``world_ids``, in plan order: ``rules`` is the world's slice of the master
    rules, ``select_rules(suite.rules, world.rule_indices)``.

    The one place that takes a world's rules and split from a plan, and so
    the one rule for which worlds a command, the writer or a reader covers.
    A world id the plan does not have is a ConfigError.
    """
    if world_ids is not None:
        unknown = set(world_ids) - {w.world_id for w in suite.worlds}
        if unknown:
            n = len(suite.worlds)
            raise ConfigError(f"world ids {sorted(unknown)} not in the plan's {n} worlds")
    return [
        (w.world_id, select_rules(suite.rules, w.rule_indices), suite.world_splits[w.world_id])
        for w in suite.worlds
        if world_ids is None or w.world_id in world_ids
    ]


def generate_suite(config: SuiteConfig, world_ids: list[int] | None = None) -> Suite:
    """Generate the whole suite in memory (optionally a subset of worlds)."""
    suite = plan_suite(config)
    for wid, rules, _ in select_worlds(suite, world_ids):
        suite.graphs[wid], suite.datasets[wid] = grow_and_sample(config, rules, wid)
    return suite


def manifest_doc(suite: Suite) -> dict:
    """The plan's ``manifest.json`` document, the one statement of its format:
    ``config`` and what it gives (the permuted master ``rules``, ``worlds``
    with splits, ``similarity``, the ``protocols`` orderings)."""
    ids = [w.world_id for w in suite.worlds]
    train = [wid for wid in ids if suite.world_splits[wid] == "train"]
    heldout = [wid for wid in ids if suite.world_splits[wid] != "train"]
    return {
        "config": suite.config.to_dict(),
        "rules": ruleset_to_dict(suite.rules),
        "worlds": [
            {
                "world_id": w.world_id,
                "rule_indices": list(w.rule_indices),
                "split": suite.world_splits[w.world_id],
            }
            for w in suite.worlds
        ],
        "similarity": similarity_matrix(suite.worlds),
        "protocols": {
            "supervised": ids,
            "multitask": {"train": train, "heldout": heldout},
            "continual": train,
        },
    }


def read_plan(path: str | Path) -> Suite:
    """Parse a suite's ``manifest.json`` into its plan; load no world.

    The one manifest parser: it parses only ``config`` and takes the plan
    from :func:`plan_suite`. A malformed ``config``, or any manifest but
    that plan's :func:`manifest_doc` (master ``rules`` included), is a
    SuiteFormatError naming the file (and the first key that differs).
    """
    file = Path(path) / "manifest.json"
    manifest = read_manifest(path)
    suite = _parse(file, lambda doc: plan_suite(config_from_dict(doc["config"])), manifest)
    _require_derived(file, manifest, manifest_doc(suite))
    return suite


def read_suite(path: str | Path) -> Suite:
    """Load a complete suite directory: its plan and every listed world,
    all through one share table, so equal instance tuples anywhere are one
    object (each world graph keeps its own edge keys).

    Each world is read by ``read_world`` against the plan, so a listed
    world without its directory, or one that ``read_world`` refuses, is a
    SuiteFormatError, as in ``validate``, ``solve`` and ``stats``; read one
    world of a partial suite with ``read_world``.
    """
    root = Path(path)
    suite = read_plan(root)
    gen, shared = suite.config.gen, {}
    for wid, rules, split in select_worlds(suite, None):
        suite.graphs[wid], suite.datasets[wid] = read_world(root, wid, rules, gen, split, shared)
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
    from concurrent.futures import ProcessPoolExecutor  # on use: it loads multiprocessing, ~2 MiB

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        try:
            for future in futures:
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)


def _build_and_write(
    config: SuiteConfig, world_id: int, world_rules: RuleSet, split: str, out: Path
) -> dict:
    graph, dataset = grow_and_sample(config, world_rules, world_id)
    write_world(out, world_id, world_rules, graph, dataset, split)
    return dataset.sampling_info


def generate_suite_to_disk(
    suite: Suite,
    out: str | Path,
    workers: int = 1,
    world_ids: list[int] | None = None,
) -> dict[int, dict]:
    """Build a planned suite straight to disk, world by world (optionally
    in parallel).

    The only suite writer: it writes each selected world's directory and
    the manifest of the whole plan. Returns each built world's sampling
    info, keyed by world_id. The result and the bytes on disk are
    independent of ``workers``. A world id the plan does not have, or
    ``workers`` < 1, is a ConfigError, raised before anything is written.
    """
    out = Path(out)
    # each task carries its world's rules, not the whole plan
    tasks = [(suite.config, *world, out) for world in select_worlds(suite, world_ids)]
    results = map_worlds(_build_and_write, tasks, workers)
    out.mkdir(parents=True, exist_ok=True)
    sampling_info = {wid: info for (_, wid, *_), info in zip(tasks, results)}
    write_manifest(out, manifest_doc(suite))
    return sampling_info
