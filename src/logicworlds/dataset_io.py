"""Per-world statistics, difficulty buckets, extended graphs, suite I/O.

On-disk layout of a suite (all JSON/JSONL, byte-deterministic given the
config and seed):

    <out>/manifest.json        master rules, world list + splits,
                               similarity matrix, resolved config,
                               protocol orderings
    <out>/rule_<id>/rules.json         the world's rule subset
    <out>/rule_<id>/world_graph.json   {"nodes": n, "edges": [[u, r, v], ...]}
    <out>/rule_<id>/{train,valid,test}.jsonl   one instance per line
    <out>/rule_<id>/stats.json         compute_stats: NC/ND/ARL/AN/AE + sampling info

Instance lines follow the schema
``{"edges": [[u, r, v], ...], "query": [u, v], "target": r,
"resolution_path": [...], "descriptor": [...], "world_id": n}``
with node ids dense per instance.
"""

from __future__ import annotations

import enum
import json
import shutil
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, SuiteFormatError
from .rules import RelationId, ruleset_from_dict, ruleset_to_dict
from .sampler import SPLIT_NAMES, Instance, WorldDataset
from .worldgraph import WorldGraph, worldgraph_from_dict, worldgraph_to_json

EASY_THRESHOLD = 0.70
MEDIUM_THRESHOLD = 0.54

FLOAT_DIGITS = 6  # fixed serialization precision, round-half-even


class Difficulty(enum.IntEnum):
    """World difficulty by solver accuracy; ordering Easy < Medium < Hard."""

    EASY = 0
    MEDIUM = 1
    HARD = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


def difficulty_bucket(accuracy: float) -> Difficulty:
    """Bucket thresholds: >= 0.70 Easy, >= 0.54 Medium, below Hard."""
    if not 0.0 <= accuracy <= 1.0:
        raise ConfigError(f"accuracy {accuracy} outside [0, 1]")
    if accuracy >= EASY_THRESHOLD:
        return Difficulty.EASY
    if accuracy >= MEDIUM_THRESHOLD:
        return Difficulty.MEDIUM
    return Difficulty.HARD


def compute_stats(ds: WorldDataset, split: str = "train") -> dict:
    """The world's ``stats.json`` document, tagged with its world ``split``.

    NC, ND, ARL, AN and AE aggregate over all instances of the dataset
    (every split pooled); the means are rounded to FLOAT_DIGITS.
    """
    instances = ds.all_instances()
    if not instances:
        raise ConfigError("cannot compute statistics of an empty dataset")
    n = len(instances)

    def mean(total: int) -> float:
        # an integer sum divided once: the correctly rounded quotient
        return round(total / n, FLOAT_DIGITS)

    return {
        "world_id": ds.world_id,
        "split": split,
        "num_classes": len({inst.target for inst in instances}),
        "num_descriptors": len({inst.descriptor for inst in instances}),
        "avg_resolution_length": mean(sum(len(inst.descriptor) for inst in instances)),
        "avg_nodes": mean(sum(inst.node_count for inst in instances)),
        "avg_edges": mean(sum(len(inst.edges) for inst in instances)),
        "instances": {name: len(ds.instances[name]) for name in SPLIT_NAMES},
        "max_walk_len": ds.max_walk_len,
        "sampling_info": ds.sampling_info,
    }


@dataclass(frozen=True)
class ExtendedGraph:
    """Unlabeled graph with one degree-2 edge-node per original edge.

    Original node ids are preserved; edge-nodes get dense fresh ids
    above the largest original id, in input edge order, each carrying
    the relation of its originating edge.
    """

    original_nodes: tuple[int, ...]
    edge_nodes: tuple[int, ...]
    edge_node_labels: tuple[RelationId, ...]
    links: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return len(self.original_nodes) + len(self.edge_nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)


def extend_graph(edges: list[tuple[int, RelationId, int]]) -> ExtendedGraph:
    """Replace every labeled edge by an edge-node linked to its endpoints."""
    originals = sorted({n for u, _, v in edges for n in (u, v)})
    next_id = max(originals) + 1 if originals else 0
    edge_nodes = []
    labels = []
    links = []
    for u, r, v in edges:
        edge_nodes.append(next_id)
        labels.append(r)
        links.append((u, next_id))
        links.append((next_id, v))
        next_id += 1
    return ExtendedGraph(
        original_nodes=tuple(originals),
        edge_nodes=tuple(edge_nodes),
        edge_node_labels=tuple(labels),
        links=tuple(links),
    )


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SuiteFormatError(f"{path}: missing suite file")
    except json.JSONDecodeError as exc:
        raise SuiteFormatError(f"{path}:{exc.lineno}: {exc.msg}")


def _parse(path: Path, parse, doc):
    """``parse(doc)``, with a malformed record reported against its file."""
    try:
        return parse(doc)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise SuiteFormatError(f"{path}: bad record ({exc!r})")


def world_dir_name(world_id: int) -> str:
    return f"rule_{world_id}"


def instance_to_dict(inst: Instance, world_id: int) -> dict:
    return {
        "edges": [[u, r, v] for u, r, v in inst.edges],
        "query": [inst.source, inst.sink],
        "target": inst.target,
        "resolution_path": list(inst.resolution_path),
        "descriptor": list(inst.descriptor),
        "world_id": world_id,
    }


def instance_from_dict(data: dict) -> Instance:
    return Instance(
        edges=tuple((u, r, v) for u, r, v in data["edges"]),
        source=data["query"][0],
        sink=data["query"][1],
        target=data["target"],
        resolution_path=tuple(data["resolution_path"]),
        descriptor=tuple(data["descriptor"]),
    )


def write_world(
    path: Path, world_id: int, graph: WorldGraph, ds: WorldDataset, world_split: str
) -> None:
    """Write one world directory atomically (temp dir + rename); ``world_split``
    is the world's manifest split, recorded in its ``stats.json``."""
    final = path / world_dir_name(world_id)
    tmp = path / f".tmp_{world_dir_name(world_id)}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    _dump_json(tmp / "rules.json", ruleset_to_dict(ds.rules))
    (tmp / "world_graph.json").write_text(worldgraph_to_json(graph) + "\n")
    for split in SPLIT_NAMES:
        lines = [
            json.dumps(
                instance_to_dict(inst, world_id), sort_keys=True, separators=(",", ":")
            )
            for inst in ds.instances[split]
        ]
        (tmp / f"{split}.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
    _dump_json(tmp / "stats.json", compute_stats(ds, world_split))
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)


def read_world(path: Path, world_id: int) -> tuple[WorldGraph, WorldDataset, dict]:
    """Inverse of :func:`write_world`; returns (graph, dataset, stats doc).

    The dataset carries the world's rules; the stats doc is the parsed
    ``stats.json`` as stored. An instance line whose ``world_id`` is not
    ``world_id`` is a SuiteFormatError naming its file and line.
    """
    world_path = path / world_dir_name(world_id)
    rules_file = world_path / "rules.json"
    world_rules = _parse(rules_file, ruleset_from_dict, _load_json(rules_file))
    graph_file = world_path / "world_graph.json"
    graph = _parse(graph_file, worldgraph_from_dict, _load_json(graph_file))
    stats_file = world_path / "stats.json"
    stats_doc = _load_json(stats_file)
    max_walk_len, sampling_info = _parse(
        stats_file, itemgetter("max_walk_len", "sampling_info"), stats_doc
    )
    instances: dict[str, list[Instance]] = {}
    for split in SPLIT_NAMES:
        file = world_path / f"{split}.jsonl"
        items = []
        try:
            text = file.read_text()
        except FileNotFoundError:
            raise SuiteFormatError(f"{file}: missing split file")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                items.append(instance_from_dict(doc))
                line_world = doc["world_id"]
            except (KeyError, IndexError, ValueError, TypeError) as exc:
                raise SuiteFormatError(f"{file}:{lineno}: bad instance record ({exc})")
            if line_world != world_id:
                raise SuiteFormatError(
                    f"{file}:{lineno}: instance of world {line_world!r} in world {world_id}"
                )
        instances[split] = items
    ds = WorldDataset(
        world_id=world_id,
        instances=instances,
        max_walk_len=max_walk_len,
        sampling_info=sampling_info,
        rules=world_rules,
    )
    return graph, ds, stats_doc


def write_manifest(
    path: Path,
    config_doc: dict,
    rules_doc: dict,
    worlds_doc: list[dict],
    similarity: list[list[int]],
    protocols: dict,
) -> None:
    _dump_json(
        path / "manifest.json",
        {
            "config": config_doc,
            "seed": config_doc["seed"],
            "rules": rules_doc,
            "worlds": worlds_doc,
            "similarity": similarity,
            "protocols": protocols,
        },
    )


def read_manifest(path: Path) -> dict:
    file = path / "manifest.json"
    manifest = _load_json(file)
    for key in ("config", "rules", "worlds", "similarity", "protocols"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise SuiteFormatError(f"{file}: missing key {key!r}")
    if not isinstance(manifest["worlds"], list):
        raise SuiteFormatError(f"{file}: worlds is not a list")
    for pos, world in enumerate(manifest["worlds"]):
        for key in ("world_id", "split"):
            if not isinstance(world, dict) or key not in world:
                raise SuiteFormatError(f"{file}: worlds[{pos}] has no {key}")
    return manifest


__all__ = [
    "Difficulty",
    "ExtendedGraph",
    "compute_stats",
    "difficulty_bucket",
    "extend_graph",
    "instance_from_dict",
    "instance_to_dict",
    "read_manifest",
    "read_world",
    "world_dir_name",
    "write_manifest",
    "write_world",
]
