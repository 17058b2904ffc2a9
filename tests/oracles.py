"""Reference implementations the package's fast paths are checked against.

None of these run in the package. Each recomputes a result the naive
way so a test can pin the package's version equal to it:

- :func:`brute_force_resolve` resolves a descriptor by folding every
  binary bracketing, against ``resolver.resolve_descriptor``;
- :func:`shortest_distance` is the directed hop count of an instance;
- :func:`reference_validate_instance` certifies an instance by walking
  every simple path of resolution length, against
  ``resolver.validate_instance`` and its layered walk;
- :func:`instance_to_dict` is the instance line's JSON document, whose
  ``json.dumps`` text ``dataset_io.instance_to_json`` must equal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from logicworlds.errors import ConfigError
from logicworlds.resolver import (
    ValidationReport,
    _distances_to,
    instance_adjacency,
    iter_simple_path_labels,
    resolve_descriptor,
)
from logicworlds.rules import RelationId, RuleSet, compose
from logicworlds.sampler import Instance

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


def reference_validate_instance(rules: RuleSet, inst: Instance) -> ValidationReport:
    """Every soundness check, with the same-length paths found by walking
    every simple source->sink path of ``|descriptor|`` edges."""
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
