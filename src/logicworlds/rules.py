"""Relation alphabets and binary Horn rules.

A relation alphabet is a set of K relation symbols (dense ids 0..K-1)
equipped with an inverse involution; self-inverse relations are called
symmetric. Rules are binary Horn clauses ``[r_i, r_j] => r_k``: an edge
labeled r_i followed by one labeled r_j implies an edge labeled r_k
between the endpoints.

A generated rule set satisfies four structural guarantees, restated by
:func:`check_consistency` as diagnostics:

* body-uniqueness: no two rules share an ordered body,
* no rule repeats a body relation as its head,
* closure under rule inversion,
* the relation-dependency digraph (arcs body -> head) is acyclic.
"""

from __future__ import annotations

import math
import random
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ConfigError

RelationId = int


@dataclass(frozen=True)
class RelationAlphabet:
    """K relation symbols with an inverse involution."""

    size: int
    inverse: tuple[RelationId, ...]

    def __post_init__(self) -> None:
        if self.size < 1 or len(self.inverse) != self.size:
            raise ConfigError(f"inverse map must cover all {self.size} relations")
        for r, inv in enumerate(self.inverse):
            if not 0 <= inv < self.size or self.inverse[inv] != r:
                raise ConfigError("inverse map is not an involution")

    def is_symmetric(self, r: RelationId) -> bool:
        return self.inverse[r] == r


@dataclass(frozen=True)
class BinaryRule:
    """Horn clause ``[body[0], body[1]] => head``."""

    body: tuple[RelationId, RelationId]
    head: RelationId

    def arcs(self) -> tuple[tuple[RelationId, RelationId], ...]:
        """Dependency arcs body relation -> head relation."""
        return tuple((b, self.head) for b in set(self.body))


@dataclass
class RuleSet:
    """An ordered list of binary rules over one alphabet.

    Treated as immutable after construction: the body lookup table is
    built once and ``_resolved`` memoizes descriptor resolutions.
    Construction does not validate (see :func:`check_consistency`), so
    violating sets can be built in tests.
    """

    alphabet: RelationAlphabet
    rules: tuple[BinaryRule, ...]
    _by_body: dict[tuple[RelationId, RelationId], BinaryRule] = field(
        init=False, repr=False, compare=False
    )
    _resolved: dict[tuple[RelationId, ...], frozenset[RelationId]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        by_body = {}
        for rule in self.rules:
            by_body.setdefault(rule.body, rule)
        self._by_body = by_body
        self._resolved = {}

    def __len__(self) -> int:
        return len(self.rules)

    def head_symbols(self) -> tuple[RelationId, ...]:
        """Distinct head relations, ascending."""
        return tuple(sorted({rule.head for rule in self.rules}))


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    detail: str


def generate_alphabet(
    K: int, rng: random.Random, symmetric_fraction: float = 0.5
) -> RelationAlphabet:
    """Draw an alphabet with roughly ``symmetric_fraction`` self-inverse symbols.

    The remaining relations are matched into disjoint inverse pairs; an
    odd leftover is promoted to symmetric so the inverse map stays a
    total involution.
    """
    if K < 2:
        raise ConfigError(f"need at least 2 relations, got {K}")
    if not 0.0 <= symmetric_fraction <= 1.0:
        raise ConfigError("symmetric_fraction must lie in [0, 1]")
    n_symmetric = math.ceil(K * symmetric_fraction)
    if (K - n_symmetric) % 2:
        n_symmetric += 1
    ids = list(range(K))
    rng.shuffle(ids)
    inverse = [0] * K
    for r in ids[:n_symmetric]:
        inverse[r] = r
    paired = ids[n_symmetric:]
    for a, b in zip(paired[::2], paired[1::2]):
        inverse[a] = b
        inverse[b] = a
    return RelationAlphabet(size=K, inverse=tuple(inverse))


def invert_rule(rule: BinaryRule, alphabet: RelationAlphabet) -> BinaryRule:
    """Inverse clause: body order reversed, every symbol inverted."""
    inv = alphabet.inverse
    return BinaryRule(
        body=(inv[rule.body[1]], inv[rule.body[0]]), head=inv[rule.head]
    )


def generate_rules(alphabet: RelationAlphabet, rng: random.Random) -> RuleSet:
    """Sample a consistent rule set over the alphabet.

    Candidate triples (r_i, r_j, r_k) are visited in an rng-permuted
    order. Cyclical candidates (head repeating a body relation) are
    rejected outright. A surviving candidate is installed together with
    its inverse rule; if the inverse's body is already occupied, the
    occupying rule and its own inverse partner are removed first, so the
    set stays closed under inversion at every step. A candidate whose
    inverse shares its body but not its head is unsatisfiable and
    skipped. A final sweep drops later-inserted rule pairs that
    participate in dependency cycles.
    """
    K = alphabet.size
    candidates = [
        (i, j, k)
        for i in range(K)
        for j in range(K)
        for k in range(K)
        if k != i and k != j
    ]
    rng.shuffle(candidates)

    body_to_group: dict[tuple[RelationId, RelationId], int] = {}
    groups: list[list[BinaryRule] | None] = []

    def install(pair: list[BinaryRule]) -> None:
        gid = len(groups)
        groups.append(pair)
        for rule in pair:
            body_to_group[rule.body] = gid

    def evict(body: tuple[RelationId, RelationId]) -> None:
        gid = body_to_group[body]
        for rule in groups[gid] or ():
            del body_to_group[rule.body]
        groups[gid] = None

    for i, j, k in candidates:
        rule = BinaryRule(body=(i, j), head=k)
        if rule.body in body_to_group:
            continue
        inverse = invert_rule(rule, alphabet)
        if inverse == rule:
            install([rule])
        elif inverse.body == rule.body:
            # The pair would need two heads on one body: drop both.
            continue
        else:
            if inverse.body in body_to_group:
                evict(inverse.body)
            install([rule, inverse])

    kept: list[BinaryRule] = []
    arcs: set[tuple[RelationId, RelationId]] = set()
    for group in groups:
        if group is None:
            continue
        new_arcs = {arc for rule in group for arc in rule.arcs()}
        if _is_acyclic(K, arcs | new_arcs):
            arcs |= new_arcs
            kept.extend(group)

    if not kept:
        warnings.warn(
            f"alphabet of {K} relations yielded an empty rule set", stacklevel=2
        )
    return RuleSet(alphabet=alphabet, rules=tuple(kept))


def _is_acyclic(n: int, arcs: set[tuple[int, int]]) -> bool:
    """Kahn's algorithm over relation nodes 0..n-1."""
    out: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in arcs:
        out[a].append(b)
        indeg[b] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def check_consistency(rules: RuleSet) -> list[Diagnostic]:
    """Diagnostics for every structural violation; empty means consistent."""
    diagnostics: list[Diagnostic] = []
    seen_bodies: dict[tuple[RelationId, RelationId], int] = {}
    for idx, rule in enumerate(rules.rules):
        if rule.body in seen_bodies:
            diagnostics.append(
                Diagnostic(
                    kind="duplicate-body",
                    detail=f"rules {seen_bodies[rule.body]} and {idx} share body {rule.body}",
                )
            )
        else:
            seen_bodies[rule.body] = idx
        if rule.head in rule.body:
            diagnostics.append(
                Diagnostic(
                    kind="head-in-body",
                    detail=f"rule {idx} repeats {rule.head} in head and body",
                )
            )

    present = {(rule.body, rule.head) for rule in rules.rules}
    for idx, rule in enumerate(rules.rules):
        inverse = invert_rule(rule, rules.alphabet)
        if (inverse.body, inverse.head) not in present:
            diagnostics.append(
                Diagnostic(
                    kind="missing-inverse",
                    detail=f"rule {idx} has no inverse {inverse.body} => {inverse.head}",
                )
            )

    arcs = {arc for rule in rules.rules for arc in rule.arcs()}
    if not _is_acyclic(rules.alphabet.size, arcs):
        diagnostics.append(
            Diagnostic(kind="dependency-cycle", detail="body->head digraph has a cycle")
        )
    return diagnostics


def compose(rules: RuleSet, r_a: RelationId, r_b: RelationId) -> RelationId | None:
    """Head of the unique rule with body ``(r_a, r_b)``, or None."""
    rule = rules._by_body.get((r_a, r_b))
    return None if rule is None else rule.head


def select_rules(rules: RuleSet, indices: Sequence[int]) -> RuleSet:
    """Sub-ruleset over the same alphabet (a world's ``rule_indices`` slice)."""
    return RuleSet(alphabet=rules.alphabet, rules=tuple(rules.rules[i] for i in indices))


def ruleset_to_dict(rules: RuleSet) -> dict:
    """JSON form: ``{"K": ..., "inverse": [...], "rules": [{"body": [i, j], "head": k}]}``."""
    return {
        "K": rules.alphabet.size,
        "inverse": list(rules.alphabet.inverse),
        "rules": [
            {"body": [rule.body[0], rule.body[1]], "head": rule.head}
            for rule in rules.rules
        ],
    }


def ruleset_from_dict(data: dict) -> RuleSet:
    alphabet = RelationAlphabet(size=data["K"], inverse=tuple(data["inverse"]))
    rules = tuple(
        BinaryRule(body=(r["body"][0], r["body"][1]), head=r["head"])
        for r in data["rules"]
    )
    return RuleSet(alphabet=alphabet, rules=rules)
