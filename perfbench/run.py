"""End-to-end benchmark of logicworlds: generate, validate, solve, load.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A run draws ``PLANS`` suite plans from ``--seed`` (the first plan uses
the seed itself as the config seed) and repeats rounds over them, one
step after another (closed loop, one client), for about ``--seconds``.
Every round runs, per plan, the CLI ``generate``, ``validate`` and
``solve`` as subprocesses and then ``read_suite`` in a fresh process,
and checks every output with ``checker.py``, which shares no code with
the program. Reported figures are per round (summed over the plans),
median over rounds. ``setup_s`` is the median of several fresh
interpreters that import the package and plan a suite.

With ``--trace 1`` each plan instead runs all four steps in one process
under ``traced.py`` and the per-layer metrics are reported. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HARD_LIMIT_S = 170  # every step is killed after this, to end within 180 s
SETUP_PROBES = 7
CLI = [sys.executable, "-m", "logicworlds.cli"]


PLANS = 5  # suite plans per run, drawn from the seed
GENERATE_WORKERS = 2  # untraced generate; the traced run is one process

# Config keys over the defaults, per workload.
WORKLOADS = {
    # Every world of each plan at 50/10/10 instances: per-world fixed costs
    # (graph growth, closure check, descriptor collection, directory and
    # manifest writes, the process pool) carry a large share, and each
    # descriptor is sampled fewer than twice per world.
    "all-worlds-small": {"graphs_per_split": [50, 10, 10]},
    # Every tenth window of each plan at 800/160/160 instances: per-instance
    # noise sampling, shortcut pruning, certification, resolution and JSONL
    # I/O dominate, and each descriptor repeats about 18 times per world.
    "instance-heavy": {"graphs_per_split": [800, 160, 160], "stride": 10},
}

END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "validate_s": "s",
    "solve_s": "s",
    "load_s": "s",
    "suite_bytes": "bytes",
    "peak_rss_mb": "MiB",
}


def describe(metric: str) -> tuple[str, str]:
    """Unit and better direction of a per-layer metric."""
    if metric.endswith("_s"):
        return "s", "lower"
    if metric == "dataset_io.bytes_written":
        return "bytes", "lower"
    if metric == "sampler.accept_ratio":
        return "ratio", "higher"
    if metric == "sampler.instances":
        return "count", "higher"
    return "count", "lower"


def plan_seeds(seed: int, count: int) -> list[int]:
    """The seed itself, then seeds hashed from it."""
    return [seed] + [
        int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "big")
        for k in range(1, count)
    ]


@dataclass
class StepResult:
    ok: bool
    seconds: float
    maxrss_kib: int
    stdout: str


@dataclass
class Tally:
    deadline: float
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_step(tally: Tally, cmd: list[str], log: Path) -> StepResult:
    """Run one process to its end; time it and take its tree's peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    tally.attempted += 1
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(0.0, tally.deadline - time.monotonic()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    if not ok:
        tally.failed += 1
        tail = log.with_suffix(".err").read_text(errors="replace")[-2000:]
        print(f"step failed ({proc.returncode}): {' '.join(cmd)}\n{tail}", file=sys.stderr)
    return StepResult(ok, seconds, usage.ru_maxrss, log.with_suffix(".out").read_text())


def check_plan(suite_dir: Path, validate_out: str, solve_out: str, loaded: dict) -> list[str]:
    """Every output of one plan's steps, checked against the checker's own reading."""
    try:
        check = checker.SuiteCheck(suite_dir).run()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{suite_dir.name}: unreadable suite ({exc!r})"]
    errors = list(check.errors)
    if len(check.world_ids) != check.manifest_worlds:
        errors.append(f"{len(check.world_ids)} world directories of {check.manifest_worlds}")
    errors += checker.check_validate_report(validate_out, check.world_ids, check.instances)
    errors += checker.check_solve_output(solve_out, check.world_ids)
    if loaded.get("worlds") != sorted(check.world_ids) or loaded.get("instances") != check.instances:
        errors.append(f"read_suite loaded {loaded.get('instances')} instances, expected {check.instances}")
    return errors


def check_world_alone(tally: Tally, cfg: Path, suite_dir: Path) -> None:
    """``generate --world-id 0`` must write the same bytes as the whole-suite run."""
    alone = suite_dir.with_name(f"{suite_dir.name}-world0")
    shutil.rmtree(alone, ignore_errors=True)
    cmd = CLI + ["generate", "--config", str(cfg), "--out", str(alone), "--world-id", "0", "--workers", "1"]
    if not run_step(tally, cmd, alone).ok:
        return
    same = checker.tree_digest(alone / "rule_0") == checker.tree_digest(suite_dir / "rule_0") and (
        (alone / "manifest.json").read_bytes() == (suite_dir / "manifest.json").read_bytes()
    )
    if not same:
        tally.errors.append(f"{suite_dir.name}: generate --world-id 0 wrote other bytes than the suite run")
    shutil.rmtree(alone)


def run_plan_untraced(tally: Tally, cfg: Path, suite_dir: Path) -> dict:
    steps = {
        "generate": CLI + ["generate", "--config", str(cfg), "--out", str(suite_dir),
                           "--workers", str(GENERATE_WORKERS)],
        "validate": CLI + ["validate", str(suite_dir)],
        "solve": CLI + ["solve", str(suite_dir)],
        "load": [sys.executable, str(HERE / "probe.py"), "load", str(suite_dir)],
    }
    results = {
        name: run_step(tally, cmd, suite_dir.with_name(f"{suite_dir.name}-{name}"))
        for name, cmd in steps.items()
    }
    if not all(r.ok for r in results.values()):
        return {}
    loaded = json.loads(results["load"].stdout)
    tally.errors += check_plan(suite_dir, results["validate"].stdout, results["solve"].stdout, loaded)
    return {
        "generate_s": results["generate"].seconds,
        "validate_s": results["validate"].seconds,
        "solve_s": results["solve"].seconds,
        "load_s": loaded["seconds"],
        "suite_bytes": checker.tree_bytes(suite_dir),
        "peak_rss_mb": max(r.maxrss_kib for r in results.values()) / 1024,
    }


def run_plan_traced(tally: Tally, cfg: Path, suite_dir: Path, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "traced.py"), str(cfg), str(suite_dir), str(spans)]
    result = run_step(tally, cmd, suite_dir.parent / f"{suite_dir.name}-traced")
    tally.attempted += 3  # the child runs generate, validate, solve and load
    if not result.ok:
        tally.failed += 3
        return {}
    info = json.loads(result.stdout.splitlines()[-1])
    failed_steps = sum(code != 0 for code in info["codes"].values())
    tally.failed += failed_steps
    if failed_steps:
        return {}
    tally.errors += info["errors"]
    tally.errors += check_plan(suite_dir, info["validate_report"], info["solve_output"], info["load"])
    return info["metrics"]


def combine(per_plan: list[dict]) -> dict:
    """Round totals over plans; peaks take the maximum, ratios are recomputed."""
    total: dict[str, float] = {}
    for metrics in per_plan:
        for name, value in metrics.items():
            if name == "peak_rss_mb":
                total[name] = max(total.get(name, 0.0), value)
            else:
                total[name] = total.get(name, 0) + value
    if "sampler.accept_ratio" in total:
        total["sampler.accept_ratio"] = total["sampler.instances"] / total["sampler.sample_instance_calls"]
    return total


def bench(args, work: Path) -> tuple[dict, dict]:
    tally = Tally(deadline=time.monotonic() + HARD_LIMIT_S)
    seeds = plan_seeds(args.seed, PLANS)
    configs = []
    for k, seed in enumerate(seeds):
        cfg = work / f"config-{k}.json"
        cfg.write_text(json.dumps({**WORKLOADS[args.workload], "seed": seed}))
        configs.append(cfg)
    print(f"{args.workload}: seed {args.seed}, plan seeds {seeds}")

    setup = []
    for i in range(SETUP_PROBES):
        probe = [sys.executable, str(HERE / "probe.py"), "setup", str(configs[i % len(configs)])]
        result = run_step(tally, probe, work / f"setup-{i}")
        if result.ok:
            setup.append(result.seconds)

    spans_dir = OUT / "spans"
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    rounds: list[dict] = []
    digests: dict[int, set[str]] = {}
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        per_plan = []
        for k, cfg in enumerate(configs):
            suite_dir = work / f"suite-{k}"
            shutil.rmtree(suite_dir, ignore_errors=True)
            if args.trace:
                spans = spans_dir / f"{args.workload}-plan{k}.tsv.gz"
                metrics = run_plan_traced(tally, cfg, suite_dir, spans)
            else:
                metrics = run_plan_untraced(tally, cfg, suite_dir)
            if metrics:
                per_plan.append(metrics)
                digests.setdefault(k, set()).add(checker.tree_digest(suite_dir))
                if k == 0:
                    check_world_alone(tally, cfg, suite_dir)
        round_metrics = combine(per_plan)
        rounds.append(round_metrics)
        shown = ", ".join(
            f"{name} {round_metrics[name]:.4g}" for name in END_TO_END if name in round_metrics
        )
        print(f"round {len(rounds)}: {shown}")
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            break

    for k, found in sorted(digests.items()):
        print(f"plan {k} (seed {seeds[k]}) sha256 {' '.join(sorted(found))}")
        if len(found) > 1:
            tally.errors.append(f"plan {k}: suite bytes differ between rounds of one run")

    if args.trace:
        names = sorted(rounds[0]) if rounds and rounds[0] else []
        units = {name: describe(name)[0] for name in names}
    else:
        names = list(END_TO_END)
        units = END_TO_END
    metrics = {}
    for name in names:
        values = setup if name == "setup_s" else [r[name] for r in rounds if name in r]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not tally.errors and len(metrics) == len(names) and bool(names),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, {"plan_seeds": seeds, "rounds": rounds, "setup_runs": setup}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stop as on Ctrl-C, so that run_step kills the step it is waiting for
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "logicworlds" / "cli.py").is_file():
        print(f"error: no logicworlds sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **details}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
