"""Symbolic resolution of descriptors and instance graphs.

A descriptor resolves to the set of relations derivable by composing
its labels under some binary bracketing. :func:`resolve_descriptor`
computes that set with the program's one rule engine, the closure
fixpoint of :mod:`.worldgraph`, run over the descriptor as a path graph
and memoized per world rule set (each distinct label tuple is resolved
once per :class:`RuleSet`); :func:`brute_force_resolve` recomputes it by
enumerating every bracketing explicitly and exists only to cross-check
the engine.

Instance graphs are validated against the four soundness conditions a
query must satisfy (target resolvable and unambiguous, descriptor/path
agreement, no shortcut, all same-length paths consistent); certification
recomputes every check from the instance alone, taking nothing from the
sampler. :func:`symbolic_baseline_solve` is the perfect-accuracy
reference solver used as the in-repo baseline.

Both walk an instance the same way: one pass over its edges builds the
sorted successor lists and the predecessor lists
(:func:`instance_adjacency`), one reverse BFS over the latter gives every
node's distance to the sink, and an iterative depth-first walk over the
former enumerates simple paths, pruned by that table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ConfigError
from .rules import RelationId, RuleSet, compose
from .worldgraph import derive_closure

if TYPE_CHECKING:  # pragma: no cover
    from .sampler import Instance, WorldDataset

BRUTE_FORCE_MAX_LEN = 12  # Catalan(11) = 58786 bracketings; enough for an oracle


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the per-instance soundness checks.

    ``path_consistent`` covers both descriptor/path agreement and the
    requirement that every simple source-to-sink path of resolution
    length resolves to a subset of {target}.
    """

    resolved: frozenset[RelationId]
    target_hit: bool
    ambiguous: bool
    shortcut_free: bool
    path_consistent: bool

    @property
    def is_valid(self) -> bool:
        return (
            self.target_hit
            and not self.ambiguous
            and self.shortcut_free
            and self.path_consistent
        )


def resolve_descriptor(
    rules: RuleSet, labels: Sequence[RelationId]
) -> frozenset[RelationId]:
    """Relations derivable for the full descriptor span, memoized per rule set.

    The descriptor is read as a path graph 0 -> 1 -> ... -> n; the
    closure engine's labels on the pair (0, n) are its resolutions.
    """
    key = tuple(labels)
    resolved = rules._resolved.get(key)
    if resolved is None:
        if not key:
            raise ConfigError("descriptor must contain at least one label")
        path = [(i, r, i + 1) for i, r in enumerate(key)]
        derived = derive_closure(path, rules).get((0, len(key)), ())
        resolved = rules._resolved[key] = frozenset(derived)
    return resolved


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


def instance_adjacency(
    edges: Iterable[tuple[int, RelationId, int]]
) -> tuple[dict[int, list[tuple[int, RelationId]]], dict[int, list[int]]]:
    """Successor and predecessor lists of an instance, in one pass over its edges.

    Successor lists are sorted by (node, label) for deterministic walks;
    predecessor lists feed the reverse BFS of :func:`_distances_to`,
    whose result does not depend on their order.
    """
    out: dict[int, list[tuple[int, RelationId]]] = {}
    rev: dict[int, list[int]] = {}
    for u, r, v in edges:
        out.setdefault(u, []).append((v, r))
        rev.setdefault(v, []).append(u)
    for nbrs in out.values():
        nbrs.sort()
    return out, rev


def shortest_distance(rev: dict[int, list[int]], source: int, sink: int) -> int | None:
    """Directed hop count over predecessor lists ``rev``, None when unreachable."""
    return _distances_to(rev, sink).get(source)


def _distances_to(rev: dict[int, list[int]], sink: int) -> dict[int, int]:
    """Reverse BFS over predecessor lists: node -> hop distance to the sink."""
    dist = {sink: 0}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in rev.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def iter_simple_path_labels(
    adj: dict[int, list[tuple[int, RelationId]]],
    source: int,
    sink: int,
    max_len: int,
    exact_len: int | None = None,
    *,
    to_sink: dict[int, int],
) -> Iterator[tuple[RelationId, ...]]:
    """Label sequences of simple directed source->sink paths, depth first.

    Paths longer than ``max_len`` edges are skipped, as are prefixes that
    cannot reach the sink within budget (pruning by ``to_sink``, the
    :func:`_distances_to` table of ``sink``). One explicit stack of
    successor iterators replaces recursion, so a path costs no nested
    generator per edge.
    """
    if source not in to_sink:
        return
    budget = max_len if exact_len is None else exact_len
    labels: list[RelationId] = []
    path = [source]
    visited = {source}
    stack = [iter(adj.get(source, ()))]
    while stack:
        length = len(labels) + 1
        for v, r in stack[-1]:
            if v == sink:
                # simple paths end at the sink, never pass through it
                if exact_len is None or length == exact_len:
                    yield (*labels, r)
                continue
            # a node missing from to_sink cannot reach the sink: its
            # default distance, budget, always exceeds the remainder
            if v in visited or length >= max_len or to_sink.get(v, budget) > budget - length:
                continue
            visited.add(v)
            labels.append(r)
            path.append(v)
            stack.append(iter(adj.get(v, ())))
            break
        else:
            stack.pop()
            if labels:
                labels.pop()
                visited.remove(path.pop())


def validate_instance(rules: RuleSet, inst: "Instance") -> ValidationReport:
    """Run all soundness checks for one query instance.

    Total on arbitrary input: a degenerate record (e.g. an empty
    descriptor) yields an all-failing report rather than an error.
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

    edge_labels = {(u, v): r for u, r, v in inst.edges}
    path_labels = []
    matches = len(inst.resolution_path) == len(inst.descriptor) + 1
    if matches:
        for a, b in zip(inst.resolution_path, inst.resolution_path[1:]):
            r = edge_labels.get((a, b))
            if r is None:
                matches = False
                break
            path_labels.append(r)
        matches = matches and tuple(path_labels) == tuple(inst.descriptor)

    adj, rev = instance_adjacency(inst.edges)
    to_sink = _distances_to(rev, inst.sink)
    n = len(inst.descriptor)
    shortcut_free = to_sink.get(inst.source) == n

    path_consistent = matches
    if path_consistent:
        for labels in iter_simple_path_labels(
            adj, inst.source, inst.sink, n, exact_len=n, to_sink=to_sink
        ):
            if not resolve_descriptor(rules, labels) <= {inst.target}:
                path_consistent = False
                break

    return ValidationReport(
        resolved=resolved,
        target_hit=target_hit,
        ambiguous=ambiguous,
        shortcut_free=shortcut_free,
        path_consistent=path_consistent,
    )


def solve_instance(
    rules: RuleSet, inst: "Instance", max_len: int
) -> RelationId | None:
    """Predict by resolving every simple source->sink path up to max_len.

    Returns the unique resolvable relation; ties break toward the
    smallest relation id; None when nothing resolves.
    """
    adj, rev = instance_adjacency(inst.edges)
    to_sink = _distances_to(rev, inst.sink)
    candidates: set[RelationId] = set()
    for labels in iter_simple_path_labels(
        adj, inst.source, inst.sink, max_len, to_sink=to_sink
    ):
        candidates |= resolve_descriptor(rules, labels)
    return min(candidates) if candidates else None


def symbolic_baseline_solve(rules: RuleSet, dataset: "WorldDataset") -> float | None:
    """Fraction of dataset queries the path-resolution solver answers correctly.

    Returns None for an empty dataset rather than reporting 0.
    """
    total = 0
    correct = 0
    for instances in dataset.instances.values():
        for inst in instances:
            total += 1
            if solve_instance(rules, inst, dataset.max_walk_len) == inst.target:
                correct += 1
    if total == 0:
        return None
    return correct / total
