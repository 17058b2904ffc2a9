"""Per-query instance sampling from a WorldGraph.

For every edge (u, r, v) of the world graph, the alternate walks from u
to v of length 2..e are enumerated by ``resolver.iter_simple_path_labels``,
the one walk that also certifies and solves instances; their label
sequences are the *descriptors*. Distinct descriptors are partitioned
into train/valid/test, which makes the splits inductive: an evaluation
query can only be resolved by composing rules in a combination never
seen in training.

An instance embeds one resolution path in a noisy neighborhood sampled
by bounded BFS into one insertion-ordered edge map, with any path
shorter than the resolution path pruned away newest noise edge first,
so the query distance equals the descriptor length. Each emitted
instance is certified by the symbolic resolver before it enters the
dataset; one that fails is a GenerationError, never resampled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import ConfigError, DegenerateWorldError, GenerationError
from .resolver import (
    _distances_to,
    instance_adjacency,
    iter_simple_path_labels,
    resolve_descriptor,
    validate_instance,
)
from .rules import RelationId, RuleSet
from .seeds import rng_for
from .worldgraph import GenConfig, NodeId, WorldGraph

SPLIT_NAMES = ("train", "valid", "test")
MAX_WALKS_PER_EDGE = 10_000

# ((u, v), r, far): an edge (u, r, v) seen from one endpoint, keyed as
# the noise loop stores it, with the other endpoint
IncidentEdge = tuple[tuple[NodeId, NodeId], RelationId, NodeId]


@dataclass(frozen=True)
class DescriptorPair:
    """One world-graph edge together with an alternate walk resolving it."""

    edge: tuple[NodeId, RelationId, NodeId]
    descriptor: tuple[RelationId, ...]
    path: tuple[NodeId, ...]  # representative walk, first in DFS order


@dataclass
class DescriptorCollection:
    pairs: list[DescriptorPair]
    truncated_edges: int = 0

    def distinct_descriptors(self) -> list[tuple[RelationId, ...]]:
        """Distinct label sequences in first-appearance order."""
        seen: dict[tuple[RelationId, ...], None] = {}
        for pair in self.pairs:
            seen.setdefault(pair.descriptor, None)
        return list(seen)


@dataclass(frozen=True, slots=True)
class Instance:
    """A single relation-prediction query graph.

    Node ids are dense per instance (0..n-1, in order of first
    appearance along the resolution path, then the noise edges).
    """

    edges: tuple[tuple[NodeId, RelationId, NodeId], ...]
    source: NodeId
    sink: NodeId
    target: RelationId
    resolution_path: tuple[NodeId, ...]
    descriptor: tuple[RelationId, ...]

    @property
    def node_count(self) -> int:
        nodes = {self.source, self.sink}
        for u, _, v in self.edges:
            nodes.add(u)
            nodes.add(v)
        return len(nodes)


@dataclass
class WorldDataset:
    """All certified instances of one world, grouped by split."""

    world_id: int
    instances: dict[str, list[Instance]]
    max_walk_len: int
    sampling_info: dict = field(default_factory=dict)

    def all_instances(self) -> list[Instance]:
        return [inst for split in SPLIT_NAMES for inst in self.instances[split]]


def collect_descriptors(
    g: WorldGraph, e: int, max_walks_per_edge: int = MAX_WALKS_PER_EDGE
) -> DescriptorCollection:
    """Enumerate alternate walks for every edge of the world graph.

    An edge's alternate walks are the simple directed paths of 2..e edges
    between its endpoints, in the depth-first order of
    ``resolver.iter_simple_path_labels`` over successors sorted by (node,
    label). Identical (edge, descriptor) combinations are deduplicated
    keeping the first walk found. An edge's enumeration stops at its
    ``max_walks_per_edge + 1``-th walk, and the edge counts in
    ``truncated_edges``.
    """
    if e < 2:
        raise ConfigError(f"max walk length must be at least 2, got {e}")
    succ, pred = instance_adjacency((u, r, v) for (u, v), r in sorted(g.edges.items()))
    tables: dict[NodeId, dict[NodeId, int]] = {}  # one distance table per sink
    pairs: list[DescriptorPair] = []
    truncated = 0
    for (u, v), r in g.edges.items():
        distances = tables.get(v)
        if distances is None:
            distances = tables[v] = _distances_to(pred, v)
        walks: dict[tuple[RelationId, ...], tuple[NodeId, ...]] = {}
        count = 0
        for labels, nodes in iter_simple_path_labels(succ, u, v, e, to_sink=distances):
            if len(labels) < 2:
                continue  # the edge itself
            count += 1
            if count > max_walks_per_edge:
                truncated += 1
                break
            if labels not in walks:
                walks[labels] = (*nodes, v)
        pairs += [DescriptorPair((u, r, v), labels, path) for labels, path in walks.items()]
    return DescriptorCollection(pairs=pairs, truncated_edges=truncated)


def split_descriptors(
    descriptors: list[tuple[RelationId, ...]],
    fractions: tuple[float, float, float],
    rng: random.Random,
) -> dict[tuple[RelationId, ...], str]:
    """Partition distinct descriptor values, each listed once, into train/valid/test.

    A shuffled copy is cut by largest-remainder rounding of the fractions,
    with every split guaranteed at least one descriptor. Instances inherit
    the split of their descriptor, which keeps the splits inductive.
    """
    if not (all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ConfigError("split fractions must be positive and sum to 1")
    descriptors = list(descriptors)
    if len(descriptors) < len(SPLIT_NAMES):
        raise DegenerateWorldError(
            f"only {len(descriptors)} descriptors, cannot populate all splits"
        )
    rng.shuffle(descriptors)
    sizes = _largest_remainder(len(descriptors), fractions)
    assignment: dict[tuple[RelationId, ...], str] = {}
    start = 0
    for name, size in zip(SPLIT_NAMES, sizes):
        for descriptor in descriptors[start : start + size]:
            assignment[descriptor] = name
        start += size
    return assignment


def _largest_remainder(n: int, fractions: tuple[float, ...]) -> list[int]:
    raw = [n * f for f in fractions]
    sizes = [math.floor(x) for x in raw]
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in range(n - sum(sizes)):
        sizes[order[i % len(order)]] += 1
    # every split must hold at least one item
    for i, size in enumerate(sizes):
        while sizes[i] == 0:
            donor = max(range(len(sizes)), key=lambda j: sizes[j])
            sizes[donor] -= 1
            sizes[i] += 1
    return sizes


def sample_instance(
    g: WorldGraph,
    pair: DescriptorPair,
    cfg: GenConfig,
    rng: random.Random,
    adjacency: dict[NodeId, list[IncidentEdge]],
) -> Instance:
    """Embed the resolution path in a BFS-sampled noisy neighborhood.

    The instance's edges are one insertion-ordered map, listed in its
    order: the resolution path's edges, then each noise edge as it is
    drawn, with probability ``noise_gamma ** depth`` up to
    ``noise_depth`` levels from each path node (``adjacency`` is
    :func:`incident_adjacency` of ``g``). The direct (u, v) edge is
    dropped, then noise edges creating a path shorter than the
    resolution path are deleted newest-first until the query distance
    equals the descriptor length.
    """
    source, target, sink = pair.edge
    path = pair.path

    edges: dict[tuple[NodeId, NodeId], RelationId] = {}
    for a, b in zip(path, path[1:]):
        edges[(a, b)] = g.edges[(a, b)]
    probabilities = [cfg.noise_gamma**depth for depth in range(1, cfg.noise_depth + 1)]

    draw = rng.random
    incident = adjacency.get
    for anchor in path:
        frontier = [anchor]
        for p in probabilities:
            next_frontier: list[NodeId] = []
            for node in frontier:
                for key, r, far in incident(node, ()):
                    if key not in edges and draw() < p:
                        edges[key] = r
                        next_frontier.append(far)
            frontier = next_frontier

    # the direct edge can only have entered as noise: the resolution
    # path has length >= 2, so (source, sink) is never one of its edges
    edges.pop((source, sink), None)

    _remove_shortcuts(edges, source, sink, len(pair.descriptor))

    # nodes numbered as the edges are listed: the path's edges come first,
    # so its nodes are 0..len(path) - 1 in path order
    renumber: dict[NodeId, int] = {}
    final_edges = [
        (renumber.setdefault(u, len(renumber)), r, renumber.setdefault(v, len(renumber)))
        for (u, v), r in edges.items()
    ]

    return Instance(
        edges=tuple(final_edges),
        source=renumber[source],
        sink=renumber[sink],
        target=target,
        resolution_path=tuple(renumber[n] for n in path),
        descriptor=pair.descriptor,
    )


def incident_adjacency(g: WorldGraph) -> dict[NodeId, list[IncidentEdge]]:
    """Node -> incident edges in both directions, in (u, r, v) order.

    Each entry is ``((u, v), r, far)``: the graph's own edge key, the
    label, and the other endpoint; one sort orders every node's list.
    """
    adj: dict[NodeId, list[IncidentEdge]] = {}
    for key, r in sorted(g.edges.items(), key=lambda item: (item[0][0], item[1], item[0][1])):
        u, v = key
        adj.setdefault(u, []).append((key, r, v))
        adj.setdefault(v, []).append((key, r, u))
    return adj


def _remove_shortcuts(
    edges: dict[tuple[NodeId, NodeId], RelationId],
    source: NodeId,
    sink: NodeId,
    resolution_len: int,
) -> None:
    """Delete newest offending noise edge until distance(u, v) = |descriptor|.

    ``edges`` is in insertion order, its first ``resolution_len`` keys the
    resolution path's edges. Each round's BFS stops after
    ``resolution_len - 1`` levels; within them it visits nodes as an
    unbounded one does, so it finds the same path.
    """
    # one sorted out-adjacency serves every BFS; deletions are mirrored in it
    out: dict[NodeId, list[NodeId]] = {}
    for u, v in sorted(edges):
        out.setdefault(u, []).append(v)
    successors = out.get
    position: dict[tuple[NodeId, NodeId], int] = {}  # set at the first shortcut
    while True:
        parent = {source: source}
        frontier = [source]
        for _ in range(resolution_len - 1):
            next_frontier: list[NodeId] = []
            for node in frontier:
                for v in successors(node, ()):
                    if v not in parent:
                        parent[v] = node
                        next_frontier.append(v)
                if sink in parent:
                    break
            if sink in parent or not next_frontier:
                break
            frontier = next_frontier
        if sink not in parent:
            return
        if not position:
            position = {key: i for i, key in enumerate(edges)}
            keys = list(position)
        # only noise edges are deleted, so the resolution path survives
        newest, v = 0, sink
        while v != source:
            newest = max(newest, position[(parent[v], v)])
            v = parent[v]
        assert newest >= resolution_len, "a shorter path cannot consist of resolution edges only"
        u, v = keys[newest]
        del edges[(u, v)]
        out[u].remove(v)


def usable_pairs(
    rules: RuleSet, collection: DescriptorCollection, world_id: int = 0
) -> list[DescriptorPair]:
    """The collection's pairs, each checked to resolve to exactly its edge label.

    A world graph grows only by refining an edge into a 2-path, and its
    closure is conflict-free, so every alternate walk of an edge resolves
    to that edge's label and nothing else. A pair that does not is a
    GenerationError naming the world, the edge and the descriptor.
    """
    for pair in collection.pairs:
        resolved = resolve_descriptor(rules, pair.descriptor)
        if resolved != {pair.edge[1]}:
            raise GenerationError(
                f"world {world_id}: edge {pair.edge} has the alternate walk "
                f"{list(pair.descriptor)} resolving to {sorted(resolved)}"
            )
    return collection.pairs


def build_dataset(
    g: WorldGraph,
    rules: RuleSet,
    cfg: GenConfig,
    rng: random.Random,
    world_id: int = 0,
) -> WorldDataset:
    """Sample and certify a full per-world dataset.

    Descriptors are sampled with replacement within each split's pool
    (distinct noise draws differentiate repeated descriptors) until the
    configured per-split instance counts are reached. Each instance is
    drawn once, from its own sub-seed, and must pass resolver
    validation; one that fails is a GenerationError naming the world,
    the split and the instance index. ``sampling_info`` holds the
    ``descriptor_pairs``, ``distinct_descriptors`` and ``truncated_edges``
    counts of the world's :func:`collect_descriptors`.
    """
    collection = collect_descriptors(g, cfg.max_walk_len)
    pairs = usable_pairs(rules, collection, world_id)
    assignment = split_descriptors(collection.distinct_descriptors(), cfg.split_fractions, rng)

    pools: dict[str, dict[tuple[RelationId, ...], list[DescriptorPair]]] = {
        name: {} for name in SPLIT_NAMES
    }
    for pair in pairs:
        split = assignment[pair.descriptor]
        pools[split].setdefault(pair.descriptor, []).append(pair)

    adjacency = incident_adjacency(g)
    instances: dict[str, list[Instance]] = {name: [] for name in SPLIT_NAMES}
    for split, count in zip(SPLIT_NAMES, cfg.graphs_per_split):
        # split_descriptors gives every split a descriptor, and each has a pair
        pool = pools[split]
        descriptors = list(pool)
        seeds = [rng.getrandbits(64) for _ in range(count)]
        for index in range(count):
            inst_rng = rng_for(seeds[index], 0)
            descriptor = descriptors[inst_rng.randrange(len(descriptors))]
            candidates = pool[descriptor]
            pair = candidates[inst_rng.randrange(len(candidates))]
            inst = sample_instance(g, pair, cfg, inst_rng, adjacency)
            if not validate_instance(rules, inst).is_valid:
                raise GenerationError(
                    f"world {world_id}: {split} instance {index} failed certification"
                )
            instances[split].append(inst)

    info = {
        "descriptor_pairs": len(collection.pairs),
        "distinct_descriptors": len(assignment),
        "truncated_edges": collection.truncated_edges,
    }
    return WorldDataset(
        world_id=world_id,
        instances=instances,
        max_walk_len=cfg.max_walk_len,
        sampling_info=info,
    )
