"""Command-line entry point.

Subcommands::

    logicworlds generate --config cfg.json --out DIR [--seed N] [--workers N] [--world-id N]
    logicworlds validate SUITE_DIR [--workers N] [--world-id N]
    logicworlds solve SUITE_DIR [--workers N] [--world-id N]
    logicworlds stats SUITE_DIR [--accuracy FILE] [--world-id N]

``--workers`` (default: the CPUs this process may use) sets how many
worlds are built, certified or solved at once; output does not depend
on it. Exit codes: 0 success, 1 validation/generation failure, 2 I/O or
config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import SuiteConfig, load_config, load_json
from .dataset_io import compute_stats, difficulty_bucket, read_world, world_dir_name
from .errors import ConfigError, DegenerateWorldError, GenerationError, SuiteFormatError
from .resolver import symbolic_baseline_solve, validate_instance
from .rules import RuleSet
from .suite import Suite, generate_suite_to_disk, map_worlds, plan_suite, read_plan, select_worlds
from .worldgraph import GenConfig

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONFIG = 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SuiteFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GenerationError, DegenerateWorldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logicworlds",
        description="Generate and validate logic-grounded relation prediction benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument(
        "--workers",
        type=int,
        default=_usable_cpus(),
        help="worlds processed in parallel (default: %(default)s, the usable CPUs)",
    )
    world_id = argparse.ArgumentParser(add_help=False)
    world_id.add_argument("--world-id", type=int, help="only this world (default: every world)")

    gen = sub.add_parser("generate", parents=[workers, world_id], help="generate a suite onto disk")
    gen.add_argument("--config", type=Path, help="JSON config file (defaults otherwise)")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--out", type=Path, help="output directory")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser(
        "validate", parents=[workers, world_id], help="certify every instance of a suite"
    )
    val.add_argument("suite", type=Path)
    val.set_defaults(func=cmd_validate)

    sol = sub.add_parser(
        "solve", parents=[workers, world_id], help="run the symbolic baseline solver"
    )
    sol.add_argument("suite", type=Path)
    sol.set_defaults(func=cmd_solve)

    sta = sub.add_parser("stats", parents=[world_id], help="print per-world statistics")
    sta.add_argument("suite", type=Path)
    sta.add_argument("--accuracy", type=Path, help="JSON accuracy file for difficulty")
    sta.set_defaults(func=cmd_stats)
    return parser


def cmd_generate(args) -> int:
    config = load_config(args.config) if args.config else SuiteConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = args.out
    if out is None:
        raise ConfigError("no output directory (--out)")
    suite = plan_suite(config)
    info = generate_suite_to_disk(suite, out, workers=args.workers, world_ids=_only(args))

    distinct = [w["distinct_descriptors"] for w in info.values()]
    print(f"rules: {len(suite.rules)}")
    print(f"worlds: {len(info)} of {len(suite.worlds)}")
    # build_dataset emits exactly graphs_per_split instances per world or raises
    print(f"instances: {len(info) * sum(config.gen.graphs_per_split)}")
    # info is never empty: generate builds every world of the plan or the one
    # --world-id names, and assign_world_splits always leaves a train world
    print(
        f"descriptors: {sum(distinct)} pooled, "
        f"{sum(distinct) / len(distinct):.1f} mean per world"
    )
    print(f"wrote {out}")
    return EXIT_OK


def _only(args) -> list[int] | None:
    return None if args.world_id is None else [args.world_id]


def _planned_worlds(args) -> tuple[Suite, list[tuple]]:
    """The plan and, for each world the command covers, its task for
    ``validate_world``, ``solve_world`` or ``stats_world``: suite dir, world
    id, split, rules and gen of the plan, all that ``read_world`` needs."""
    suite = read_plan(args.suite)
    return suite, [
        (args.suite, wid, split, rules, suite.config.gen)
        for wid, rules, split in select_worlds(suite, _only(args))
    ]


VALIDATE_COUNTS = ("instances", "valid", "ambiguous", "shortcut_violations")


def validate_world(
    path: Path, wid: int, split: str, rules: RuleSet, gen: GenConfig
) -> dict[str, int]:
    """Certify every instance of one world. The world is read against its
    plan by ``read_world``, which refuses what the plan could not give:
    other rules or stats, a descriptor of other than 2 to ``max_walk_len``
    relations or shared between splits, and a split of other than its
    ``graphs_per_split`` instances. ``split``, ``rules`` (the world's
    slice of the master rules) and ``gen`` come from the plan."""
    _, ds = read_world(path, wid, rules, gen, split)
    counts = dict.fromkeys(VALIDATE_COUNTS, 0)
    for inst in ds.all_instances():
        report = validate_instance(rules, inst)
        counts["instances"] += 1
        counts["valid"] += report.is_valid
        counts["ambiguous"] += report.ambiguous
        counts["shortcut_violations"] += not report.shortcut_free
    return counts


def solve_world(path: Path, wid: int, split: str, rules: RuleSet, gen: GenConfig) -> float:
    """Baseline accuracy on one world, read against its plan (``read_world``;
    ``split``, ``rules`` and ``gen`` as for ``validate_world``). Paths are
    searched up to ``gen.max_walk_len``, the manifest's bound."""
    _, ds = read_world(path, wid, rules, gen, split)
    return symbolic_baseline_solve(rules, ds)


def stats_world(path: Path, wid: int, split: str, rules: RuleSet, gen: GenConfig) -> dict:
    """One world's ``stats.json`` document, ``compute_stats`` of the world
    read against its plan (``read_world``; arguments as for
    ``validate_world``), so ``stats`` prints only what every reader takes."""
    _, ds = read_world(path, wid, rules, gen, split)
    return compute_stats(ds, split)


def cmd_validate(args) -> int:
    _, tasks = _planned_worlds(args)
    results = map_worlds(validate_world, tasks, args.workers)
    totals = dict.fromkeys(VALIDATE_COUNTS, 0)
    per_world = {}
    for (_, wid, *_), counts in zip(tasks, results):
        per_world[world_dir_name(wid)] = counts
        for key in totals:
            totals[key] += counts[key]
    print(json.dumps({**totals, "worlds": per_world}, indent=2, sort_keys=True))
    return EXIT_OK if totals["valid"] == totals["instances"] else EXIT_INVALID


def cmd_solve(args) -> int:
    _, tasks = _planned_worlds(args)
    results = map_worlds(solve_world, tasks, args.workers)
    accuracies = []
    for (_, wid, *_), accuracy in zip(tasks, results):
        accuracies.append(accuracy)
        print(f"{world_dir_name(wid)} {accuracy:.3f}")
    print(f"aggregate {sum(accuracies) / len(accuracies):.3f}")
    return EXIT_OK


STATS_KEYS = ("num_classes", "num_descriptors", "avg_resolution_length", "avg_nodes", "avg_edges")


def cmd_stats(args) -> int:
    suite, tasks = _planned_worlds(args)
    scores = _load_accuracy(args.accuracy, suite.world_splits) if args.accuracy else None
    header = ["World", "Split", "NC", "ND", "ARL", "AN", "AE"]
    if scores is not None:
        header.append("D")
    rows, columns = [], [[] for _ in STATS_KEYS]
    for doc in map_worlds(stats_world, tasks, _usable_cpus()):
        values = [doc[key] for key in STATS_KEYS]
        for column, value in zip(columns, values):
            column.append(value)
        nc, nd, arl, an, ae = values
        row = [world_dir_name(doc["world_id"]), doc["split"], str(nc), str(nd),
               f"{arl:.2f}", f"{an:.3f}", f"{ae:.3f}"]
        if scores is not None:
            acc = scores.get(doc["world_id"])
            row.append(difficulty_bucket(acc).label if acc is not None else "-")
        rows.append(row)
    agg_row = ["AGG", "", *(f"{sum(c) / len(c):.2f}" for c in columns)]
    if scores is not None:
        agg_row.append("")
    _print_table(header, [*rows, agg_row])
    return EXIT_OK


def _load_accuracy(path: Path, world_splits: dict[int, str]) -> dict[int, float]:
    """World id -> accuracy from a JSON object whose keys name worlds of
    ``world_splits`` (the plan's), as ``rule_<n>`` or ``<n>`` with ``n`` the
    id in decimal, and whose values are JSON numbers in [0, 1]; anything
    else, or a world named by two keys, is a ConfigError naming the file
    and the key (both keys)."""
    doc = load_json(path, ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: accuracy file must map world names to numbers")
    names = {name: wid for wid in world_splits for name in (str(wid), world_dir_name(wid))}
    scores, keys = {}, {}
    for key, value in doc.items():
        wid = names.get(key)
        if wid is None or type(value) not in (int, float) or not 0 <= value <= 1:
            raise ConfigError(f"{path}: {key!r}: {value!r} is not a world's accuracy in [0, 1]")
        if keys.setdefault(wid, key) != key:
            raise ConfigError(f"{path}: {keys[wid]!r} and {key!r} name the same world")
        scores[wid] = value
    return scores


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


if __name__ == "__main__":
    sys.exit(main())
