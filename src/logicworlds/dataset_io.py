"""Per-world statistics, difficulty buckets, extended graphs, suite I/O.

On-disk layout of a suite (byte-deterministic given the config and seed):

    <out>/manifest.json        suite.manifest_doc: resolved config and what
                               it gives: master rules, world list + splits,
                               similarity matrix, protocol orderings
    <out>/rule_<id>/rules.json         the world's slice of the master rules
    <out>/rule_<id>/world_graph.json   {"nodes": n, "edges": [[u, r, v], ...]}
    <out>/rule_<id>/{train,valid,test}.jsonl   one instance per line
    <out>/rule_<id>/stats.json         compute_stats: NC/ND/ARL/AN/AE + sampling info

Instance lines follow the schema
``{"edges": [[u, r, v], ...], "query": [u, v], "target": r,
"resolution_path": [...], "descriptor": [...], "world_id": n}``
with node ids dense per instance. Every ``.json`` file and every
``.jsonl`` line is in one form: the compact, key-sorted text of
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, a file's
followed by a newline. Files go through the stdlib encoder; instance
lines through :func:`instance_to_json`, which writes that text without
building the document first.

Loaded instances share immutable tuples: :func:`read_world` parses
every line through one share table, so equal edge triples, resolution
paths and descriptors are one tuple object; ``suite.read_suite`` passes
one table to all its worlds. Most tuples recur: plan 0 of the seed-2026
``all-worlds-small`` benchmark holds 90,431 distinct edge triples summed
over its worlds one by one, and 18,705 suite-wide. World graphs share
their ``(u, v)`` edge keys through a pair table of their own, which
``read_suite`` also passes to all its worlds: that plan's 134 graphs hold
66,902 keys, 26,165 of them distinct suite-wide.
"""

from __future__ import annotations

import enum
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from .config import _unique_keys, load_json, read_text
from .errors import ConfigError, SuiteFormatError
from .rules import RelationId, RuleSet, ruleset_to_dict
from .sampler import SPLIT_NAMES, Instance, WorldDataset
from .worldgraph import GenConfig, WorldGraph, worldgraph_from_dict

EASY_THRESHOLD = 0.70
MEDIUM_THRESHOLD = 0.54

FLOAT_DIGITS = 6  # fixed serialization precision, round-half-even
# 1.0 stays text, never 1; a key named twice is a ValueError, not the last value kept
_decode_instance_line = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_float=str).decode
_SAMPLING_KEYS = ("descriptor_pairs", "distinct_descriptors", "truncated_edges")


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


def compute_stats(ds: WorldDataset, split: str) -> dict:
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
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_text(text, encoding="utf-8")


def _parse(path: Path, parse, doc):
    """``parse(doc)``, with a malformed record reported against its file."""
    try:
        return parse(doc)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise SuiteFormatError(f"{path}: bad record ({exc!r})")


def _require_derived(path: Path, found, derived: dict) -> None:
    """Refuse ``found``, a document parsed from ``path``, unless it is the
    object ``derived`` that the writer renders there: a SuiteFormatError
    naming the file and the first key, in sorted order, that differs."""
    if not isinstance(found, dict):
        raise SuiteFormatError(f"{path}: not a JSON object")
    for key in sorted(found.keys() | derived.keys()):
        if key not in found or key not in derived or not _same_json(found[key], derived[key]):
            raise SuiteFormatError(f"{path}: {key} is not the one the writer would write")


def _same_json(a, b) -> bool:
    """Equal as JSON text, so 6.0 or true does not pass for 6 or 1. Equal
    reprs (which keep them apart too) are the quick test; canonical text,
    blind to key order, decides."""
    return repr(a) == repr(b) or json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _check_sampling_info(path: Path, info, num_descriptors: int, graph_edges: int) -> None:
    """Refuse a ``sampling_info`` other than the writer's three counts:
    exactly ``descriptor_pairs``, ``distinct_descriptors`` and
    ``truncated_edges``, each a non-negative integer, with
    ``descriptor_pairs >= distinct_descriptors >= num_descriptors`` and
    ``truncated_edges <= graph_edges``; a SuiteFormatError naming ``path``
    and the key."""
    if not isinstance(info, dict):
        raise SuiteFormatError(f"{path}: sampling_info is not a JSON object")
    differ = sorted(info.keys() ^ set(_SAMPLING_KEYS))
    if differ:
        key = differ[0]
        held = "holds" if key in info else "lacks"
        raise SuiteFormatError(f"{path}: sampling_info {held} {key}")
    for key in _SAMPLING_KEYS:
        if type(info[key]) is not int or info[key] < 0:
            raise SuiteFormatError(f"{path}: sampling_info {key} {info[key]!r} is not a count")
    pairs, distinct, truncated = (info[key] for key in _SAMPLING_KEYS)
    if not pairs >= distinct >= num_descriptors:
        raise SuiteFormatError(
            f"{path}: sampling_info distinct_descriptors {distinct} is not between the "
            f"{num_descriptors} of num_descriptors and the {pairs} of descriptor_pairs"
        )
    if truncated > graph_edges:
        raise SuiteFormatError(
            f"{path}: sampling_info truncated_edges {truncated} exceeds the "
            f"{graph_edges} edges of the world graph"
        )


def world_dir_name(world_id: int) -> str:
    return f"rule_{world_id}"


def instance_to_json(inst: Instance, world_id: int) -> str:
    """One instance line: the text of ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))`` for the instance schema, formatted directly
    (a test pins the two equal)."""
    edges = ",".join([f"[{u},{r},{v}]" for u, r, v in inst.edges])
    return (
        f'{{"descriptor":[{",".join(map(str, inst.descriptor))}],"edges":[{edges}],'
        f'"query":[{inst.source},{inst.sink}],'
        f'"resolution_path":[{",".join(map(str, inst.resolution_path))}],'
        f'"target":{inst.target},"world_id":{world_id}}}'
    )


def instance_from_dict(data: dict, shared: dict) -> Instance:
    """Parse one instance document. Each edge triple, resolution path and
    descriptor is looked up in ``shared``, so equal ones parsed with the
    same table come back as one tuple. The document must hold the six keys
    of the schema and a two-item ``query``, or ValueError is raised.
    ``query``, ``target`` and the items of a tuple entering the table must be
    ints, or TypeError is raised; a bool or float equal to a held tuple
    passes, which read_world rules out."""
    (source, sink), target = data["query"], data["target"]
    if len(data) != 6:
        raise ValueError(f"keys {sorted(data)} are not the six of the instance schema")
    if type(source) is not int or type(sink) is not int or type(target) is not int:
        raise TypeError(f"query {data['query']!r} and target {target!r} must be integers")
    get = shared.get
    edges = [(u, r, v) for u, r, v in data["edges"]]
    path = tuple(data["resolution_path"])
    descriptor = tuple(data["descriptor"])
    return Instance(
        edges=tuple([get(edge) or _share(edge, shared) for edge in edges]),
        source=source,
        sink=sink,
        target=target,
        resolution_path=get(path) or _share(path, shared),
        descriptor=get(descriptor) or _share(descriptor, shared),
    )


def _share(item: tuple, shared: dict) -> tuple:
    """Enter ``item`` into ``shared`` once all its items are ints (or raise TypeError)."""
    for x in item:
        if type(x) is not int:
            raise TypeError(f"{x!r} in {list(item)!r} is not an integer")
    shared[item] = item
    return item


def write_world(
    path: Path, world_id: int, rules: RuleSet, graph: WorldGraph, ds: WorldDataset, world_split: str
) -> None:
    """Write one world directory atomically (temp dir + rename); ``rules`` is
    the world's slice of the master rules, written as its ``rules.json``, and
    ``world_split`` its manifest split, recorded in its ``stats.json``."""
    final = path / world_dir_name(world_id)
    tmp = path / f".tmp_{world_dir_name(world_id)}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    _dump_json(tmp / "rules.json", ruleset_to_dict(rules))
    _dump_json(tmp / "world_graph.json", {"edges": graph.edge_list(), "nodes": graph.node_count})
    for split in SPLIT_NAMES:
        lines = [instance_to_json(inst, world_id) + "\n" for inst in ds.instances[split]]
        (tmp / f"{split}.jsonl").write_text("".join(lines), encoding="utf-8")
    _dump_json(tmp / "stats.json", compute_stats(ds, world_split))
    if final.exists():
        shutil.rmtree(final)
    tmp.rename(final)


def read_world(
    path: Path, world_id: int, rules: RuleSet, gen: GenConfig, split: str,
    shared: dict | None = None, pairs: dict | None = None,
) -> tuple[WorldGraph, WorldDataset]:
    """Inverse of :func:`write_world`; returns (graph, dataset).

    The world is read against its plan: ``rules`` and ``split`` are the
    world's, as ``suite.select_worlds`` gives them, and ``gen`` the
    manifest config's. Everything the plan fixes is required, and anything
    else is a SuiteFormatError naming the file (and the line, or the first
    key that differs):
    - ``rules.json`` must be ``ruleset_to_dict(rules)``;
    - ``world_graph.json`` must pass ``worldgraph_from_dict``: integers,
      no pair twice, the edges in growth order, which puts every id below
      ``nodes`` on an edge; and each relation must be of ``0..K-1``;
    - each instance line must keep the schema, name no key twice, hold
      no ``true`` or ``false``, be of world ``world_id``, label every edge
      with a relation of the alphabet, have a descriptor of 2 to
      ``gen.max_walk_len`` relations of the alphabet, and share no
      descriptor with an earlier split of the world (the inductive split);
    - each split file must hold its ``gen.graphs_per_split`` instances;
    - ``stats.json`` must be ``compute_stats(dataset, split)`` of what was
      read, ``sampling_info`` taken from the file and held to the
      writer's three counts by :func:`_check_sampling_info`.
    Equal tuples of the instances are one object of ``shared``, the share
    table, which the caller may pass to several calls (a new one if None).
    A tuple's items are type-checked once, when it enters the table, so the
    outcome does not depend on which tuples it holds. Likewise the graph's
    edge keys are the tuples of ``pairs``, a pair table the caller may pass
    to several calls; with None the graph keeps its own keys, since one
    graph never holds a pair twice.
    """
    world_path = path / world_dir_name(world_id)
    rules_file = world_path / "rules.json"
    _require_derived(rules_file, load_json(rules_file, SuiteFormatError), ruleset_to_dict(rules))
    graph_file = world_path / "world_graph.json"
    graph_doc = load_json(graph_file, SuiteFormatError)
    graph = _parse(graph_file, lambda doc: worldgraph_from_dict(doc, pairs), graph_doc)
    K = rules.alphabet.size
    for r in graph.edges.values():
        if not 0 <= r < K:
            raise SuiteFormatError(f"{graph_file}: relation {r} outside 0..{K - 1}")
    stats_file = world_path / "stats.json"
    stats_doc = load_json(stats_file, SuiteFormatError)
    instances: dict[str, list[Instance]] = {}
    shared = {} if shared is None else shared  # one tuple per distinct edge, path and descriptor
    split_of: dict[tuple, str] = {}  # descriptor -> the split it first appeared in
    max_len = gen.max_walk_len
    for name, count in zip(SPLIT_NAMES, gen.graphs_per_split):
        file = world_path / f"{name}.jsonl"
        items = []
        for lineno, line in enumerate(read_text(file, SuiteFormatError).splitlines(), start=1):
            try:
                if "true" in line or "false" in line:  # a bool equals 1 or 0; never written
                    raise ValueError("true or false in an instance line")
                doc = _decode_instance_line(line)
                inst = instance_from_dict(doc, shared)
                line_world = doc["world_id"]
            except (KeyError, IndexError, ValueError, TypeError, RecursionError) as exc:
                raise SuiteFormatError(f"{file}:{lineno}: bad instance record ({exc})")
            if type(line_world) is not int or line_world != world_id:
                raise SuiteFormatError(
                    f"{file}:{lineno}: instance of world {line_world!r} in world {world_id}"
                )
            for _, r, _ in inst.edges:
                if not 0 <= r < K:
                    raise SuiteFormatError(f"{file}:{lineno}: relation {r} outside 0..{K - 1}")
            descriptor = inst.descriptor
            if not 2 <= len(descriptor) <= max_len:
                raise SuiteFormatError(
                    f"{file}:{lineno}: descriptor length {len(descriptor)} outside 2..{max_len}"
                )
            if descriptor not in split_of:  # a repeated descriptor was checked when first seen
                for r in descriptor:
                    if not 0 <= r < K:
                        raise SuiteFormatError(f"{file}:{lineno}: relation {r} outside 0..{K - 1}")
            first = split_of.setdefault(descriptor, name)
            if first != name:
                raise SuiteFormatError(
                    f"{file}:{lineno}: descriptor {list(descriptor)} of the {first} split"
                )
            items.append(inst)
        if len(items) != count:
            raise SuiteFormatError(
                f"{file}: {len(items)} instances, not the {count} of graphs_per_split"
            )
        instances[name] = items
    ds = WorldDataset(
        world_id=world_id,
        instances=instances,
        max_walk_len=max_len,
        sampling_info=stats_doc.get("sampling_info") if isinstance(stats_doc, dict) else None,
    )
    derived = compute_stats(ds, split)
    _require_derived(stats_file, stats_doc, derived)
    num_descriptors = derived["num_descriptors"]
    _check_sampling_info(stats_file, ds.sampling_info, num_descriptors, len(graph.edges))
    return graph, ds


def write_manifest(path: Path, doc: dict) -> None:
    """Write ``doc``, the plan's ``suite.manifest_doc``, as ``path/manifest.json``."""
    _dump_json(path / "manifest.json", doc)


def read_manifest(path: str | Path):
    """The parsed ``path/manifest.json`` as stored; ``suite.read_plan`` checks it."""
    return load_json(Path(path) / "manifest.json", SuiteFormatError)


__all__ = [
    "Difficulty",
    "ExtendedGraph",
    "compute_stats",
    "difficulty_bucket",
    "extend_graph",
    "instance_from_dict",
    "instance_to_json",
    "read_manifest",
    "read_world",
    "world_dir_name",
    "write_manifest",
    "write_world",
]
