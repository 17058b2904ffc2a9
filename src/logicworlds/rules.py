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

    Candidate triples (r_i, r_j, r_k), r_k not in the body, are visited
    once each in an rng-permuted order. A candidate whose body is taken
    is skipped. A candidate whose inverse shares its body but not its
    head is unsatisfiable and skipped, leaving the body free. Any other
    candidate takes its body and its inverse's: it is kept together with
    its inverse rule (or alone, if self-inverse) unless the pair's arcs
    would close a cycle in the dependency digraph of the rules kept so
    far; then both are dropped, and their bodies stay taken.
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

    taken: set[tuple[RelationId, RelationId]] = set()
    kept: list[BinaryRule] = []
    out: list[set[RelationId]] = [set() for _ in range(K)]  # the kept arcs, acyclic
    for i, j, k in candidates:
        if (i, j) in taken:  # most bodies are taken: skip before building a rule
            continue
        rule = BinaryRule(body=(i, j), head=k)
        inverse = invert_rule(rule, alphabet)
        if inverse == rule:
            group = (rule,)
        elif inverse.body == rule.body:
            # The pair would need two heads on one body: drop both.
            continue
        else:
            # Bodies are only ever taken with their inverse bodies, so the
            # taken set is closed under (i, j) -> (inv j, inv i): the
            # inverse body of a free body is free too.
            group = (rule, inverse)
        taken.update(r.body for r in group)
        new_arcs = {(a, b) for r in group for a, b in r.arcs() if b not in out[a]}
        for a, b in new_arcs:
            out[a].add(b)
        # a cycle now runs through a new arc: its head reaches its tail
        if any(_reaches(out, b, a) for a, b in new_arcs):
            for a, b in new_arcs:
                out[a].discard(b)
        else:
            kept.extend(group)

    if not kept:
        warnings.warn(
            f"alphabet of {K} relations yielded an empty rule set", stacklevel=2
        )
    return RuleSet(alphabet=alphabet, rules=tuple(kept))


def _reaches(out: list[set[int]], source: int, target: int) -> bool:
    """Whether a path of arcs ``out`` leads from ``source`` to ``target``."""
    stack, seen = [source], {source}
    while stack:
        v = stack.pop()
        if v == target:
            return True
        ahead = out[v] - seen
        seen |= ahead
        stack.extend(ahead)
    return False


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

    out: list[set[RelationId]] = [set() for _ in range(rules.alphabet.size)]
    for rule in rules.rules:
        for a, b in rule.arcs():
            out[a].add(b)
    # a cycle runs through some arc: its head reaches its tail
    if any(_reaches(out, b, a) for a, heads in enumerate(out) for b in heads):
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
