"""Traced run of one suite plan, all steps in one process.

    python3 traced.py CONFIG_JSON SUITE_DIR SPANS_TSV_GZ

Runs ``generate --workers 1``, ``validate`` and ``solve`` through
``logicworlds.cli.main`` and then ``read_suite``, with a timing wrapper
installed on every public function listed in ``WRAPPED``. A wrapper
replaces the function under every name it is looked up by, in every
module of the package, so ``sampler.validate_instance`` and
``cli.validate_instance`` are both timed. Spans (id, parent, name,
start, end, self time) stay in memory and are written to SPANS_TSV_GZ
at the end. Prints one JSON object: the exit code of each step, the output
the checks need and the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import logicworlds
from logicworlds import cli, dataset_io, partition, resolver, rules, sampler, suite, worldgraph

MODULES = (logicworlds, cli, dataset_io, partition, resolver, rules, sampler, suite, worldgraph)
STEPS = ("generate", "validate", "solve", "load")


class Tracer:
    """Spans kept in memory, with self time, call counts and counters per step."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.next_id = 0
        self.step = ""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.distinct = defaultdict(set)

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            key = f"{tracer.step}.{name}"
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.close(key, span_id, parent, start, end, frame[1])
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def close(self, key, span_id, parent, start, end, child) -> None:
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.spans.append((span_id, parent, key, start, end, duration - child))
        self.total[key] += duration
        self.self_time[key] += duration - child
        self.calls[key] += 1

    def run_step(self, step: str, fn) -> int:
        """Run one step under a root span named ``<step>.step``."""
        self.step = step
        return self.wrap("step", fn)()

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart\tend\tself\n")
            for span in sorted(self.spans):
                out.write("\t".join(map(str, span)) + "\n")


def _count_graph(tracer, args, graph):
    tracer.count["worldgraph.graphs"] += 1
    tracer.count["worldgraph.edges"] += len(graph.edges)


def _count_pairs(tracer, args, collection):
    tracer.count["sampler.descriptor_pairs"] += len(collection.pairs)


def _count_instances(tracer, args, dataset):
    tracer.count["sampler.instances"] += len(dataset.all_instances())


def _count_resolution(tracer, args, result):
    tracer.distinct[f"{tracer.step}.resolver.resolve_descriptor"].add(tuple(args[1]))


def _count_world_bytes(tracer, args, result):
    world_dir = Path(args[0]) / dataset_io.world_dir_name(args[1])
    tracer.count["dataset_io.bytes_written"] += sum(p.stat().st_size for p in world_dir.iterdir())


def _count_manifest_bytes(tracer, args, result):
    tracer.count["dataset_io.bytes_written"] += (Path(args[0]) / "manifest.json").stat().st_size


# (module, function, counter hook run after the call returns)
WRAPPED = (
    (cli, "cmd_generate", None),
    (cli, "cmd_validate", None),
    (cli, "cmd_solve", None),
    (suite, "generate_suite_to_disk", None),
    (suite, "plan_suite", None),
    (suite, "read_suite", None),
    (rules, "generate_rules", None),
    (partition, "partition_rules", None),
    (partition, "similarity_matrix", None),
    (worldgraph, "generate_world_graph", _count_graph),
    (worldgraph, "closure_check", None),
    (sampler, "collect_descriptors", _count_pairs),
    (sampler, "usable_pairs", None),
    (sampler, "split_descriptors", None),
    (sampler, "sample_instance", None),
    (sampler, "build_dataset", _count_instances),
    (resolver, "validate_instance", None),
    (resolver, "resolve_descriptor", _count_resolution),
    (resolver, "symbolic_baseline_solve", None),
    (dataset_io, "write_world", _count_world_bytes),
    (dataset_io, "compute_stats", None),
    (dataset_io, "write_manifest", _count_manifest_bytes),
    (dataset_io, "read_world", None),
    (dataset_io, "read_manifest", None),
)


def _replace_everywhere(original, replacement) -> int:
    """Rebind every module-level name bound to ``original``."""
    replaced = 0
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    for module, name, after in WRAPPED:
        original = getattr(module, name)
        label = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        if not _replace_everywhere(original, tracer.wrap(label, original, after)):
            raise RuntimeError(f"{label} is bound under no module name")

    original_paths = resolver.iter_simple_path_labels

    def counted_paths(*args, **kwargs):
        for labels in original_paths(*args, **kwargs):
            tracer.count[f"{tracer.step}.resolver.simple_paths"] += 1
            yield labels

    _replace_everywhere(original_paths, counted_paths)


def per_layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics, summed over the plan's worlds."""
    m = {
        "cli.cmd_generate.self_s": t.self_time["generate.cli.cmd_generate"],
        "suite.generate_suite_to_disk.self_s": t.self_time["generate.suite.generate_suite_to_disk"],
        "suite.plan_suite_s": t.total["generate.suite.plan_suite"],
        "suite.read_suite.self_s": t.self_time["load.suite.read_suite"],
        "rules.generate_rules_s": t.total["generate.rules.generate_rules"],
        "partition.partition_rules_s": t.total["generate.partition.partition_rules"],
        "partition.similarity_matrix_s": t.total["generate.partition.similarity_matrix"],
        "worldgraph.generate_world_graph_s": t.total["generate.worldgraph.generate_world_graph"],
        "worldgraph.closure_check_s": t.total["generate.worldgraph.closure_check"],
        "worldgraph.graphs": t.count["worldgraph.graphs"],
        "worldgraph.edges": t.count["worldgraph.edges"],
        "sampler.collect_descriptors_s": t.total["generate.sampler.collect_descriptors"],
        "sampler.descriptor_pairs": t.count["sampler.descriptor_pairs"],
        "sampler.usable_pairs_s": t.total["generate.sampler.usable_pairs"],
        "sampler.split_descriptors_s": t.total["generate.sampler.split_descriptors"],
        "sampler.sample_instance_s": t.total["generate.sampler.sample_instance"],
        "sampler.sample_instance_calls": t.calls["generate.sampler.sample_instance"],
        "sampler.instances": t.count["sampler.instances"],
        "sampler.build_dataset.self_s": t.self_time["generate.sampler.build_dataset"],
        "solve.resolver.symbolic_baseline_solve_s": t.total["solve.resolver.symbolic_baseline_solve"],
        "dataset_io.write_world_s": t.total["generate.dataset_io.write_world"],
        "dataset_io.bytes_written": t.count["dataset_io.bytes_written"],
        "dataset_io.compute_stats_s": t.total["generate.dataset_io.compute_stats"],
        "dataset_io.write_manifest_s": t.total["generate.dataset_io.write_manifest"],
        "dataset_io.read_manifest_s": sum(
            t.total[f"{step}.dataset_io.read_manifest"] for step in STEPS
        ),
    }
    calls = m["sampler.sample_instance_calls"]
    m["sampler.accept_ratio"] = m["sampler.instances"] / calls if calls else 0.0
    for step in ("generate", "validate"):
        m[f"{step}.resolver.validate_instance_s"] = t.total[f"{step}.resolver.validate_instance"]
        m[f"{step}.resolver.validate_instance_calls"] = t.calls[f"{step}.resolver.validate_instance"]
    for step in ("generate", "validate", "solve"):
        key = f"{step}.resolver.resolve_descriptor"
        m[f"{key}_calls"] = t.calls[key]
        m[f"{key}_distinct"] = len(t.distinct[key])
        m[f"{key}_s"] = t.total[key]
        m[f"{step}.resolver.simple_paths"] = t.count[f"{step}.resolver.simple_paths"]
    for step in ("validate", "solve", "load"):
        m[f"{step}.dataset_io.read_world_s"] = t.total[f"{step}.dataset_io.read_world"]
    for step in ("validate", "solve"):
        m[f"cli.cmd_{step}.self_s"] = t.self_time[f"{step}.cli.cmd_{step}"]
    for step in STEPS:
        m[f"{step}.step_s"] = t.total[f"{step}.step"]
        m[f"{step}.other.self_s"] = t.self_time[f"{step}.step"]
    return m


def self_time_errors(t: Tracer) -> list[str]:
    """Self times of a step's spans must add up to the step's wall time."""
    errors = []
    for step in STEPS:
        wall = t.total[f"{step}.step"]
        summed = sum(v for k, v in t.self_time.items() if k.startswith(f"{step}."))
        if abs(summed - wall) > 1e-6 * max(1.0, wall):
            errors.append(f"trace: {step} self times add up to {summed}, step took {wall}")
    return errors


def main(config_path: str, suite_dir: str, spans_path: str) -> dict:
    tracer = Tracer()
    install(tracer)
    captured: dict[str, str] = {}
    codes: dict[str, int] = {}

    def cli_step(step: str, argv: list[str]):
        def call() -> int:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            captured[step] = buffer.getvalue()
            return code

        return call

    loaded = {}

    def load() -> int:
        result = suite.read_suite(suite_dir)
        loaded["worlds"] = sorted(result.datasets)
        loaded["instances"] = sum(len(ds.all_instances()) for ds in result.datasets.values())
        return 0

    steps = {
        "generate": cli_step(
            "generate",
            ["generate", "--config", config_path, "--out", suite_dir, "--workers", "1"],
        ),
        "validate": cli_step("validate", ["validate", suite_dir]),
        "solve": cli_step("solve", ["solve", suite_dir]),
        "load": load,
    }
    for step, fn in steps.items():
        try:
            codes[step] = tracer.run_step(step, fn)
        except Exception:
            traceback.print_exc()
            codes[step] = 1
    tracer.write_spans(Path(spans_path))
    return {
        "codes": codes,
        "validate_report": captured.get("validate", ""),
        "solve_output": captured.get("solve", ""),
        "load": loaded,
        "errors": self_time_errors(tracer),
        "metrics": per_layer_metrics(tracer),
    }


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
