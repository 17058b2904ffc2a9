"""Symbolic resolution of descriptors and instance graphs.

A descriptor resolves to the set of relations derivable by composing
its labels under some binary bracketing. :func:`resolve_descriptor`
computes that set with the program's one rule engine, the closure
fixpoint of :mod:`.worldgraph`, run over the descriptor as a path graph
and memoized per world rule set (each distinct label tuple is resolved
once per :class:`RuleSet`).

Instance graphs are validated against the four soundness conditions a
query must satisfy (target resolvable and unambiguous, descriptor/path
agreement, no shortcut, all same-length paths consistent); certification
recomputes every check from the instance alone, taking nothing from the
sampler. :func:`symbolic_baseline_solve` is the perfect-accuracy
reference solver used as the in-repo baseline.

Both build an instance's successor and predecessor lists in one pass
over its edges and take every node's distance to the sink from one
reverse BFS. When the source lies exactly |descriptor| hops from the
sink, certification walks only the paths whose distance drops by one
per step: those are all simple paths of that length. A greater or
missing distance leaves no such path; a smaller one (a shortcut) falls
back to :func:`iter_simple_path_labels`, the depth-first walk of simple
paths pruned by the distance table, which the solver uses throughout.
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


def instance_adjacency(
    edges: Iterable[tuple[int, RelationId, int]]
) -> tuple[dict[int, list[tuple[int, RelationId]]], dict[int, list[int]]]:
    """Successor and predecessor lists of an instance, in one pass over its edges.

    Both lists keep edge order. No caller depends on walk order: the
    solver takes the smallest of all resolved relations and the certifier
    stops at the first inconsistent path.
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


def _layered_path_labels(
    succ: dict[int, list[tuple[int, RelationId]]],
    source: int,
    n: int,
    to_sink: dict[int, int],
) -> Iterator[tuple[RelationId, ...]]:
    """Label sequences of the source->sink paths of ``n`` edges, given
    ``to_sink[source] == n``: an edge lowers the distance by at most one,
    so they are the walks whose distance drops by one at each step, simple
    without a visited set.
    """
    labels: list[RelationId] = []
    stack = [iter(succ.get(source, ()))]
    while stack:
        want = n - len(labels) - 1  # the next node's distance to the sink
        for v, r in stack[-1]:
            if to_sink.get(v) != want:
                continue
            if want == 0:
                yield (*labels, r)
                continue
            labels.append(r)
            stack.append(iter(succ.get(v, ())))
            break
        else:
            stack.pop()
            if labels:
                labels.pop()


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

    succ, pred = instance_adjacency(inst.edges)
    path_labels = []
    matches = len(inst.resolution_path) == len(inst.descriptor) + 1
    if matches:
        for a, b in zip(inst.resolution_path, inst.resolution_path[1:]):
            # a repeated (a, b) pair counts with its last label
            found = [r for v, r in succ.get(a, ()) if v == b]
            if not found:
                matches = False
                break
            path_labels.append(found[-1])
        matches = matches and tuple(path_labels) == tuple(inst.descriptor)

    to_sink = _distances_to(pred, inst.sink)
    n = len(inst.descriptor)
    distance = to_sink.get(inst.source)
    shortcut_free = distance == n

    path_consistent = matches
    # no simple path of n edges exists when the distance exceeds n
    if path_consistent and distance is not None and distance <= n:
        if shortcut_free:
            paths = _layered_path_labels(succ, inst.source, n, to_sink)
        else:
            paths = iter_simple_path_labels(
                succ, inst.source, inst.sink, n, exact_len=n, to_sink=to_sink
            )
        allowed = {inst.target}
        for labels in paths:
            if not resolve_descriptor(rules, labels) <= allowed:
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
