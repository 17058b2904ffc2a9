"""Symbolic resolution of descriptors and instance graphs.

A descriptor resolves to the set of relations derivable by composing
its labels under some binary bracketing. :func:`resolve_descriptor`
computes that set with the program's one rule engine, the closure
fixpoint of :mod:`.worldgraph`, run over the descriptor as a path graph
and memoized per world rule set (each distinct label tuple is resolved
once per :class:`RuleSet`).

Instance graphs are validated against the soundness conditions a query
must satisfy (target resolvable and unambiguous, no shortcut, every
simple source-to-sink path of |descriptor| edges resolving within
{target} and the resolution path one of them), each recomputed from the
instance alone. :func:`symbolic_baseline_solve` is the perfect-accuracy
reference solver used as the in-repo baseline.

:func:`iter_simple_path_labels`, a depth-first walk over successor
lists pruned by every node's distance to the sink (one reverse BFS), is
the program's one simple-path walk: ``sampler.collect_descriptors``
walks each world-graph edge's alternates with it, the solver an
instance's paths up to ``max_walk_len`` edges and the certifier up to
|descriptor| edges. When the source lies exactly |descriptor| hops from
the sink, the pruning admits only nodes one hop nearer at each step, so
the certifier walks just the paths of that length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import ConfigError
from .rules import RelationId, RuleSet
from .worldgraph import derive_closure

if TYPE_CHECKING:  # pragma: no cover
    from .sampler import Instance, WorldDataset


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the per-instance soundness checks.

    ``path_consistent``: every simple source->sink path of |descriptor|
    edges resolves to a subset of {target}, and the resolution path is
    one of them, its edges spelling the descriptor.
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


def instance_adjacency(
    edges: Iterable[tuple[int, RelationId, int]]
) -> tuple[dict[int, list[tuple[int, RelationId]]], dict[int, list[int]]]:
    """Successor and predecessor lists of a graph, in one pass over its edges.

    Both lists keep edge order, and so does the walk. Only descriptor
    collection depends on it and passes edges sorted; the solver takes the
    smallest of all resolved relations and the certifier stops at the
    first inconsistent path.
    """
    succ: dict[int, list[tuple[int, RelationId]]] = {}
    pred: dict[int, list[int]] = {}
    for u, r, v in edges:
        succ.setdefault(u, []).append((v, r))
        pred.setdefault(v, []).append(u)
    return succ, pred


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
    *,
    to_sink: dict[int, int],
) -> Iterator[tuple[tuple[RelationId, ...], list[int]]]:
    """``(labels, nodes)`` of each simple directed source->sink path of at
    most ``max_len`` edges, depth first in successor order.

    ``nodes`` is the walk's own list of the path's nodes before the sink,
    valid until the walk resumes; a caller that keeps it copies it.
    A node is entered only when ``to_sink``, the :func:`_distances_to`
    table of ``sink``, puts it within the edges left, which also keeps
    paths to ``max_len``, and only once per path (the short ``path`` list
    is the visited set). One explicit stack of successor iterators
    replaces recursion, so a path costs no nested generator per edge.
    """
    labels: list[RelationId] = []
    path = [source]
    distance = to_sink.get
    stack = [iter(adj.get(source, ()))]
    while stack:
        remaining = max_len - len(labels) - 1  # edges left after the next one
        for v, r in stack[-1]:
            if v == sink:
                # simple paths end at the sink, never pass through it
                yield (*labels, r), path
                continue
            # nodes that cannot reach the sink, like every successor of a
            # source that cannot, default to max_len, beyond any remainder
            if distance(v, max_len) > remaining or v in path:
                continue
            labels.append(r)
            path.append(v)
            stack.append(iter(adj.get(v, ())))
            break
        else:
            stack.pop()
            if labels:
                labels.pop()
                path.pop()


def validate_instance(rules: RuleSet, inst: "Instance") -> ValidationReport:
    """Run all soundness checks for one query instance.

    One walk decides ``path_consistent``; where a node pair carries two
    labels, either edge may spell the descriptor. Total on arbitrary
    input: a degenerate record (e.g. an empty descriptor) yields an
    all-failing report rather than an error.
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

    succ, pred = instance_adjacency(inst.edges)
    to_sink = _distances_to(pred, inst.sink)
    n = len(inst.descriptor)
    shortcut_free = to_sink.get(inst.source) == n

    allowed = {inst.target}
    path_consistent = False  # until the walk meets the resolution path
    for labels, nodes in iter_simple_path_labels(succ, inst.source, inst.sink, n, to_sink=to_sink):
        if len(labels) == n:  # shorter paths pass a shortcut, already a failed check
            if not resolve_descriptor(rules, labels) <= allowed:
                path_consistent = False
                break
            if labels == inst.descriptor and (*nodes, inst.sink) == inst.resolution_path:
                path_consistent = True

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
    for labels, _ in iter_simple_path_labels(adj, inst.source, inst.sink, max_len, to_sink=to_sink):
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
