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

from .config import SuiteConfig, load_config
from .dataset_io import (
    _load_json,
    _parse,
    compute_stats,
    difficulty_bucket,
    read_world,
    world_dir_name,
)
from .errors import ConfigError, DegenerateWorldError, GenerationError, SuiteFormatError
from .resolver import symbolic_baseline_solve, validate_instance
from .rules import RuleSet, select_rules
from .sampler import SPLIT_NAMES
from .suite import (
    Suite,
    generate_suite_to_disk,
    map_worlds,
    plan_suite,
    read_plan,
    select_worlds,
)

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

    gen = sub.add_parser("generate", parents=[workers], help="generate a suite onto disk")
    gen.add_argument("--config", type=Path, help="JSON config file (defaults otherwise)")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--out", type=Path, help="output directory")
    gen.add_argument("--world-id", type=int, help="build only this world")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser(
        "validate", parents=[workers], help="certify every instance of a suite"
    )
    val.add_argument("suite", type=Path)
    val.add_argument("--world-id", type=int, help="restrict to one world")
    val.set_defaults(func=cmd_validate)

    sol = sub.add_parser("solve", parents=[workers], help="run the symbolic baseline solver")
    sol.add_argument("suite", type=Path)
    sol.add_argument("--world-id", type=int, help="restrict to one world")
    sol.set_defaults(func=cmd_solve)

    sta = sub.add_parser("stats", help="print per-world statistics")
    sta.add_argument("suite", type=Path)
    sta.add_argument("--accuracy", type=Path, help="JSON accuracy file for difficulty")
    sta.add_argument("--world-id", type=int, help="restrict to one world")
    sta.set_defaults(func=cmd_stats)
    return parser


def cmd_generate(args) -> int:
    config = load_config(args.config) if args.config else SuiteConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out = args.out or (Path(config.output_dir) if config.output_dir else None)
    if out is None:
        raise ConfigError("no output directory (--out or config output_dir)")
    suite = plan_suite(config)
    info = generate_suite_to_disk(suite, out, workers=args.workers, world_ids=_only(args))

    distinct = [w["distinct_descriptors"] for w in info.values()]
    print(f"rules: {len(suite.rules)}")
    print(f"worlds: {len(info)} of {len(suite.worlds)}")
    # build_dataset emits exactly graphs_per_split instances per world or raises
    print(f"instances: {len(info) * sum(config.gen.graphs_per_split)}")
    if distinct:
        print(
            f"descriptors: {sum(distinct)} pooled, "
            f"{sum(distinct) / len(distinct):.1f} mean per world"
        )
    print(f"wrote {out}")
    return EXIT_OK


def _only(args) -> list[int] | None:
    return None if args.world_id is None else [args.world_id]


def _planned_worlds(args) -> tuple[Suite, list[int]]:
    """The suite's plan and the ids of the worlds the command covers."""
    suite = read_plan(args.suite)
    return suite, [w.world_id for w in select_worlds(suite, _only(args))]


VALIDATE_COUNTS = (
    "instances", "valid", "ambiguous", "shortcut_violations", "walk_len_violations",
    "split_leaks", "stats_mismatch", "rules_mismatch",
)


def validate_world(path: Path, wid: int, split: str, rules: RuleSet) -> dict[str, int]:
    """Certify one world: every instance, that each descriptor has 2 to
    ``max_walk_len`` relations, that no descriptor is shared between its
    train, valid and test splits (the inductive split), that its stored
    stats equal the ones recomputed from its instances under the
    manifest's ``split``, and that its ``rules.json`` holds ``rules``, the
    manifest's slice of the master rules."""
    _, ds, stats_doc = read_world(path, wid)
    instances = ds.all_instances()
    if not instances:
        raise SuiteFormatError(f"{path / world_dir_name(wid)}: world has no instances")
    counts = dict.fromkeys(VALIDATE_COUNTS, 0)
    for inst in instances:
        report = validate_instance(ds.rules, inst)
        counts["instances"] += 1
        counts["valid"] += report.is_valid
        counts["ambiguous"] += report.ambiguous
        counts["shortcut_violations"] += not report.shortcut_free
        counts["walk_len_violations"] += not 2 <= len(inst.descriptor) <= ds.max_walk_len
    train, valid, test = (
        {inst.descriptor for inst in ds.instances[name]} for name in SPLIT_NAMES
    )
    counts["split_leaks"] = len((train & valid) | (train & test) | (valid & test))
    expected = compute_stats(ds, split)
    counts["stats_mismatch"] = sum(
        stats_doc.get(key) != expected.get(key) for key in stats_doc.keys() | expected.keys()
    )
    counts["rules_mismatch"] = int(ds.rules != rules)
    return counts


def solve_world(path: Path, wid: int) -> float | None:
    """Baseline accuracy on one world, None when it has no instances."""
    _, ds, _ = read_world(path, wid)
    return symbolic_baseline_solve(ds.rules, ds)


def cmd_validate(args) -> int:
    suite = read_plan(args.suite)
    worlds = select_worlds(suite, _only(args))
    tasks = [
        (
            args.suite,
            w.world_id,
            suite.world_splits[w.world_id],
            select_rules(suite.rules, w.rule_indices),
        )
        for w in worlds
    ]
    results = map_worlds(validate_world, tasks, args.workers)
    totals = dict.fromkeys(VALIDATE_COUNTS, 0)
    per_world = {}
    for world, counts in zip(worlds, results):
        per_world[f"rule_{world.world_id}"] = counts
        for key in totals:
            totals[key] += counts[key]
    print(json.dumps({**totals, "worlds": per_world}, indent=2, sort_keys=True))
    ok = (
        totals["valid"] == totals["instances"]
        and totals["ambiguous"] == 0
        and totals["walk_len_violations"] == 0
        and totals["split_leaks"] == 0
        and totals["stats_mismatch"] == 0
        and totals["rules_mismatch"] == 0
    )
    return EXIT_OK if ok else EXIT_INVALID


def cmd_solve(args) -> int:
    _, wids = _planned_worlds(args)
    results = map_worlds(solve_world, [(args.suite, wid) for wid in wids], args.workers)
    accuracies = []
    for wid, accuracy in zip(wids, results):
        if accuracy is None:
            print(f"rule_{wid} no-instances")
            continue
        accuracies.append(accuracy)
        print(f"rule_{wid} {accuracy:.3f}")
    if accuracies:
        print(f"aggregate {sum(accuracies) / len(accuracies):.3f}")
    return EXIT_OK


def cmd_stats(args) -> int:
    _, wids = _planned_worlds(args)
    scores = _load_accuracy(args.accuracy) if args.accuracy else None
    header = ["World", "Split", "NC", "ND", "ARL", "AN", "AE"]
    if scores is not None:
        header.append("D")
    rows, columns = [], [[] for _ in STATS_KEYS]
    for wid in wids:
        stats_file = args.suite / world_dir_name(wid) / "stats.json"
        cells, values = _parse(stats_file, _stats_row, _load_json(stats_file))
        row = [f"rule_{wid}", *cells]
        for column, value in zip(columns, values):
            column.append(value)
        if scores is not None:
            acc = scores.get(wid)
            row.append(difficulty_bucket(acc).label if acc is not None else "-")
        rows.append(row)
    if rows:
        agg_row = ["AGG", "", *(f"{sum(c) / len(c):.2f}" for c in columns)]
        if scores is not None:
            agg_row.append("")
        rows.append(agg_row)
    _print_table(header, rows)
    return EXIT_OK


STATS_KEYS = ("num_classes", "num_descriptors", "avg_resolution_length", "avg_nodes", "avg_edges")


def _stats_row(doc: dict) -> tuple[list[str], list[float]]:
    """Table cells and NC/ND/ARL/AN/AE values of one world's stats.json."""
    split = doc["split"]
    values = [doc[key] for key in STATS_KEYS]
    for key, value in zip(STATS_KEYS, values):
        if not isinstance(value, (int, float)):
            raise TypeError(f"{key} is not a number: {value!r}")
    nc, nd, arl, an, ae = values
    return [str(split), str(nc), str(nd), f"{arl:.2f}", f"{an:.3f}", f"{ae:.3f}"], values


def _load_accuracy(path: Path) -> dict[int, float]:
    doc = _load_json(path)
    scores = {}
    try:
        for key, value in doc.items():
            scores[int(key.removeprefix("rule_"))] = float(value)
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"{path}: accuracy file must map world names to floats ({exc})")
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
