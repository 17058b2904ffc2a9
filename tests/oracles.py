"""Reference implementations the package's fast paths are checked against.

None of these run in the package. Each recomputes a result the naive
way so a test can pin the package's version equal to it:

- :func:`brute_force_resolve` resolves a descriptor by folding every
  binary bracketing, against ``resolver.resolve_descriptor``;
- :func:`shortest_distance` is the directed hop count of an instance;
- :func:`reference_simple_path_labels` is the recursive simple-path walk
  the iterative ``resolver.iter_simple_path_labels`` replaced, on its own
  sorted adjacency and distance table;
- :func:`reference_collect_descriptors` is the recursive per-source walk
  ``sampler.collect_descriptors`` replaced with that iterative one;
- :func:`reference_validate_instance` certifies an instance by walking
  every simple path of resolution length with that recursive walk, and
  checks its resolution path against the edge set with no walk at all,
  against ``resolver.validate_instance``;
- :func:`instance_to_dict` is the instance line's JSON document, whose
  ``json.dumps`` text ``dataset_io.instance_to_json`` must equal.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Sequence

from logicworlds.errors import ConfigError
from logicworlds.resolver import (
    ValidationReport,
    _distances_to,
    instance_adjacency,
    resolve_descriptor,
)
from logicworlds.rules import RelationId, RuleSet, compose
from logicworlds.sampler import MAX_WALKS_PER_EDGE, DescriptorCollection, DescriptorPair, Instance
from logicworlds.worldgraph import WorldGraph

BRUTE_FORCE_MAX_LEN = 12  # Catalan(11) = 58786 bracketings; enough for an oracle


@lru_cache(maxsize=None)
def _tree_shapes(n: int) -> tuple:
    """All full binary tree shapes over n leaves; None marks a leaf."""
    if n == 1:
        return (None,)
    shapes = []
    for split in range(1, n):
        for left in _tree_shapes(split):
            for right in _tree_shapes(n - split):
                shapes.append((split, left, right))
    return tuple(shapes)


def _fold(shape, labels: Sequence[RelationId], offset: int, rules: RuleSet):
    if shape is None:
        return labels[offset]
    split, left, right = shape
    a = _fold(left, labels, offset, rules)
    if a is None:
        return None
    b = _fold(right, labels, offset + split, rules)
    if b is None:
        return None
    return compose(rules, a, b)


def brute_force_resolve(
    rules: RuleSet, labels: Sequence[RelationId]
) -> frozenset[RelationId]:
    """Union over every binary bracketing, folded one tree at a time.

    Deliberately naive; guards at length 12 where the bracketing count
    becomes unreasonable for an oracle.
    """
    n = len(labels)
    if n < 1:
        raise ConfigError("descriptor must contain at least one label")
    if n > BRUTE_FORCE_MAX_LEN:
        raise ConfigError(f"brute force refused beyond length {BRUTE_FORCE_MAX_LEN}")
    results = set()
    for shape in _tree_shapes(n):
        value = _fold(shape, labels, 0, rules)
        if value is not None:
            results.add(value)
    return frozenset(results)


def shortest_distance(rev: dict[int, list[int]], source: int, sink: int) -> int | None:
    """Directed hop count over predecessor lists ``rev``, None when unreachable."""
    return _distances_to(rev, sink).get(source)


def reference_simple_path_labels(edges, source, sink, max_len):
    """``(labels, nodes)`` of the simple source->sink paths of at most
    ``max_len`` edges, walked recursively; ``nodes`` are the path's nodes
    before the sink.

    It builds its own sorted successor lists, reverse adjacency and
    distance table, sharing no code with the resolver's walk.
    """
    adj = {}
    for u, r, v in edges:
        adj.setdefault(u, []).append((v, r))
    for nbrs in adj.values():
        nbrs.sort()
    rev = {}
    for u, nbrs in adj.items():
        for v, _ in nbrs:
            rev.setdefault(v, []).append(u)
    to_sink = {sink: 0}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in rev.get(v, ()):
            if u not in to_sink:
                to_sink[u] = to_sink[v] + 1
                queue.append(u)
    if source not in to_sink:
        return
    path_labels = []
    path_nodes = [source]
    visited = {source}

    def walk(node):
        for v, r in adj.get(node, ()):
            length = len(path_labels) + 1
            if v == sink:
                yield tuple(path_labels) + (r,), tuple(path_nodes)
                continue
            if v in visited or length >= max_len:
                continue
            if to_sink.get(v, max_len + 1) > max_len - length:
                continue
            visited.add(v)
            path_labels.append(r)
            path_nodes.append(v)
            yield from walk(v)
            path_nodes.pop()
            path_labels.pop()
            visited.remove(v)

    yield from walk(source)


def reference_collect_descriptors(
    g: WorldGraph, e: int, max_walks_per_edge: int = MAX_WALKS_PER_EDGE
) -> DescriptorCollection:
    """Every edge's alternate walks of 2..e edges from one recursive walk per
    source over successors sorted by (node, label), which closes a target
    at its ``max_walks_per_edge + 1``-th walk and stops once every target
    of the source is closed.

    It consults the visited set before entering a node but not before
    recording a walk's end, so on a cyclic graph it also records walks
    that return to a node they passed; world graphs are acyclic.
    """
    adj = {}
    for (u, v), r in g.edges.items():
        adj.setdefault(u, []).append((v, r))
    for nbrs in adj.values():
        nbrs.sort()
    by_edge = {(u, r, v): {} for (u, v), r in g.edges.items()}
    targets_of = {}
    for (u, v), r in g.edges.items():
        targets_of.setdefault(u, {})[v] = r
    truncated = set()

    for source, targets in targets_of.items():
        walk_counts = {v: 0 for v in targets}
        open_targets = set(targets)
        path_nodes = [source]
        path_labels = []
        visited = {source}

        def walk(node):
            if not open_targets:
                return
            depth = len(path_labels)
            for v, r in adj.get(node, ()):
                if not open_targets:
                    return
                length = depth + 1
                if v in targets and length >= 2 and v in open_targets:
                    walk_counts[v] += 1
                    if walk_counts[v] > max_walks_per_edge:
                        truncated.add((source, targets[v], v))
                        open_targets.discard(v)
                    else:
                        by_edge[(source, targets[v], v)].setdefault(
                            tuple(path_labels) + (r,), tuple(path_nodes) + (v,)
                        )
                if v not in visited and length < e:
                    visited.add(v)
                    path_nodes.append(v)
                    path_labels.append(r)
                    walk(v)
                    path_labels.pop()
                    path_nodes.pop()
                    visited.remove(v)

        walk(source)

    pairs = [
        DescriptorPair(edge=edge, descriptor=descriptor, path=path)
        for edge, walks in by_edge.items()
        for descriptor, path in walks.items()
    ]
    return DescriptorCollection(pairs=pairs, truncated_edges=len(truncated))


def reference_validate_instance(rules: RuleSet, inst: Instance) -> ValidationReport:
    """Every soundness check, with the same-length paths found by
    :func:`reference_simple_path_labels`, kept to ``|descriptor|`` edges.

    The resolution path is checked on its own, with no walk: it has
    |descriptor| + 1 nodes, starts at the query's source, ends at its
    sink, repeats no node before the sink nor after the source (so only
    a sink that is the source may recur), and each of its steps is an
    edge of the instance labelled with the descriptor's relation there.
    """
    if not inst.descriptor:
        return ValidationReport(
            resolved=frozenset(),
            target_hit=False,
            ambiguous=False,
            shortcut_free=False,
            path_consistent=False,
        )
    resolved = resolve_descriptor(rules, inst.descriptor)
    target_hit = inst.target in resolved
    ambiguous = len(resolved) > 1

    n = len(inst.descriptor)
    path = inst.resolution_path
    edge_set = set(inst.edges)
    spelled = (
        len(path) == n + 1
        and path[0] == inst.source
        and path[-1] == inst.sink
        and len(set(path[:-1])) == len(set(path[1:])) == n
        and all((a, r, b) in edge_set for a, r, b in zip(path, inst.descriptor, path[1:]))
    )

    _, rev = instance_adjacency(inst.edges)
    shortcut_free = shortest_distance(rev, inst.source, inst.sink) == n

    consistent = all(
        resolve_descriptor(rules, labels) <= {inst.target}
        for labels, _ in reference_simple_path_labels(inst.edges, inst.source, inst.sink, n)
        if len(labels) == n
    )

    return ValidationReport(
        resolved=resolved,
        target_hit=target_hit,
        ambiguous=ambiguous,
        shortcut_free=shortcut_free,
        path_consistent=spelled and consistent,
    )


def instance_to_dict(inst: Instance, world_id: int) -> dict:
    """The JSON document of one instance line."""
    return {
        "edges": [[u, r, v] for u, r, v in inst.edges],
        "query": [inst.source, inst.sink],
        "target": inst.target,
        "resolution_path": list(inst.resolution_path),
        "descriptor": list(inst.descriptor),
        "world_id": world_id,
    }
