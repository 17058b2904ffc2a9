"""WorldGraph generation by recursive rule expansion.

Each world grows a labeled multigraph by repeatedly rewriting an edge
(u, r_t, v) into (u, r_i, y), (y, r_j, v) for a rule [r_i, r_j] => r_t
and a fresh node y. Rule choice is weighted, with weights decaying by
``gamma`` per use so every rule of the world gets exercised; a cycle
completes when all rules have fired at least once since the last reset.

Growth numbers each node as it makes it and never removes or relabels
an edge, so its edge map, in insertion order, records every step
(:func:`growth_steps`), and the graph's and the current cycle's
expandable edges are kept in append-only lists rather than rescanned.

Rule grammars are not confluent, so an expansion could derive a second
label for a pair that already carries an edge. The generator maintains
the derivation fixpoint incrementally and rejects such expansions
outright. The fixpoint is unique, so the one growth ends with is the
closure of the finished graph, and its pinned pairs are the graph's
edges; nothing is chased a second time. :func:`closure_check` runs a
from-scratch pass of the same engine over any graph, for tests and
readers.

That fixpoint (:class:`_ClosureState`) is the program's only rule
engine: :func:`derive_closure` also resolves descriptors, read as path
graphs, for the resolver.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import ConfigError, DegenerateWorldError
from .rules import Diagnostic, RelationId, RuleSet

NodeId = int

# Growth step tags
SEED_FRESH = "seed-fresh"
EXPAND = "expand"

EDGE_CAP_PER_RULE = 50


@dataclass(frozen=True)
class GenConfig:
    """Knobs for world-graph growth and instance sampling."""

    gamma: float = 0.8
    max_expansions: int = 5
    cycles: int = 2
    node_pool: int = 500
    max_walk_len: int = 10
    graphs_per_split: tuple[int, int, int] = (5000, 1000, 1000)
    noise_gamma: float = 0.8
    noise_depth: int = 2
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ConfigError("gamma must lie in (0, 1]")
        if not 0 <= self.noise_gamma <= 1:
            raise ConfigError("noise_gamma must lie in [0, 1]")
        if self.max_expansions < 2:
            raise ConfigError("max_expansions must be at least 2")
        if self.cycles < 1 or self.node_pool < 3 or self.noise_depth < 1:
            raise ConfigError("cycles, node_pool and noise_depth must be positive")
        if self.max_walk_len < 2:
            raise ConfigError("max_walk_len must be at least 2")
        if len(self.graphs_per_split) != 3 or any(n <= 0 for n in self.graphs_per_split):
            raise ConfigError("graphs_per_split needs three positive counts")
        # all(f > 0) rather than any(f <= 0): NaN passes no comparison
        if len(self.split_fractions) != 3 or not all(f > 0 for f in self.split_fractions):
            raise ConfigError("split_fractions needs three positive values")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ConfigError("split_fractions must sum to 1")


@dataclass
class WorldGraph:
    """Labeled graph with dense node ids and at most one edge per ordered pair."""

    node_count: int
    edges: dict[tuple[NodeId, NodeId], RelationId]

    def edge_list(self) -> list[tuple[NodeId, RelationId, NodeId]]:
        return [(u, r, v) for (u, v), r in self.edges.items()]


def growth_steps(graph: WorldGraph) -> Iterator[tuple]:
    """Growth's steps, read off ``graph.edges`` in order: a fresh seed
    ``(SEED_FRESH, u, r, v)`` is an edge on the next two node ids, and an
    expansion ``(EXPAND, u, r_i, r_j, v, y)`` the edges (u, y), (y, v)
    through the next id y, where (u, v) is an earlier edge. Edges out of
    that order are a ValueError naming the first; so is a wrong ``node_count``."""
    edges, y = iter(graph.edges.items()), 0  # y: the next node id
    for (u, x), r in edges:
        if u == y and x == y + 1:
            yield (SEED_FRESH, u, r, x)
        else:
            # each step makes its edges' larger id, so once all pass, (u, v) is earlier
            (x2, v), r_j = next(edges, ((None, None), None))
            if not (x == x2 == y > u and y > v and (u, v) in graph.edges):
                raise ValueError(f"edge {[u, r, x]!r} is out of growth order")
            yield (EXPAND, u, r, r_j, v, x)
        y = x + 1
    if y != graph.node_count:
        raise ValueError(f"the edges make node ids 0..{y - 1}, not 0..{graph.node_count - 1}")


def rule_usage(graph: WorldGraph, world_rules: RuleSet) -> dict[int, int]:
    """Lifetime use count per rule index over :func:`growth_steps`: an
    expansion's body names its rule, and a body that is no rule of
    ``world_rules`` is a ValueError naming the step."""
    by_body = {rule.body: idx for idx, rule in enumerate(world_rules.rules)}
    counts = {idx: 0 for idx in range(len(world_rules.rules))}
    for step in growth_steps(graph):
        if step[0] == EXPAND:
            idx = by_body.get(step[2:4])
            if idx is None:
                raise ValueError(f"step {step!r} expands by no rule of the world")
            counts[idx] += 1
    return counts


class _Conflict(Exception):
    """A derivation contradicts a pinned edge label."""


class _ClosureState:
    """Derivation fixpoint of a fact set, by semi-naive forward chaining.

    ``labels`` maps each ordered pair to the relations derived on it;
    the two adjacency indexes hold the same facts by source and by
    destination. A pair in ``edge_labels`` is pinned to its edge label:
    deriving any other label there is a conflict. The generator pins
    every edge it adds, so it can reject an expansion whose derivations
    would contradict an edge label instead of discovering the conflict
    after the fact; rule sets are not confluent in general, so such
    rejections are the only way to guarantee a conflict-free graph.
    With nothing pinned nothing conflicts, and ``labels`` is the plain
    closure (:func:`derive_closure`).
    """

    def __init__(self, rules: RuleSet) -> None:
        self._lookup = rules._by_body
        self.labels: dict[tuple[NodeId, NodeId], set[RelationId]] = {}
        self._by_src: dict[NodeId, list[tuple[NodeId, RelationId]]] = {}
        self._by_dst: dict[NodeId, list[tuple[NodeId, RelationId]]] = {}
        self.edge_labels: dict[tuple[NodeId, NodeId], RelationId] = {}

    def try_add_edges(self, new_edges: list[tuple[NodeId, RelationId, NodeId]]) -> bool:
        """Pin and add edges and propagate; on any conflict roll back and refuse.

        Each new edge must lie on a pair that carries no edge yet.
        """
        for u, r, v in new_edges:
            if any(label != r for label in self.labels.get((u, v), ())):
                return False
        for u, r, v in new_edges:
            self.edge_labels[(u, v)] = r
        if self.add_facts(new_edges):
            return True
        for u, _, v in new_edges:
            del self.edge_labels[(u, v)]
        return False

    def add_facts(self, facts: Iterable[tuple[NodeId, RelationId, NodeId]]) -> bool:
        """Add facts and forward-chain to the fixpoint.

        A derivation contradicting a pinned label stops the chase: every
        fact this call added is taken back, leaving the state exactly as
        it was, and the result is False.
        """
        labels, by_src, by_dst = self.labels, self._by_src, self._by_dst
        pins, lookup = self.edge_labels, self._lookup
        added: list[tuple[NodeId, RelationId, NodeId]] = []

        def add(u: NodeId, r: RelationId, v: NodeId) -> None:
            key = (u, v)
            cell = labels.get(key)
            if cell is not None and r in cell:
                return
            pin = pins.get(key)
            if pin is not None and pin != r:
                raise _Conflict
            if cell is None:
                cell = labels[key] = set()
            cell.add(r)
            by_src.setdefault(u, []).append((v, r))
            by_dst.setdefault(v, []).append((u, r))
            added.append((u, r, v))

        try:
            for u, r, v in facts:
                add(u, r, v)
            # iterating a list visits what is appended meanwhile: a FIFO queue
            for u, a, x in added:
                for v, b in list(by_src.get(x, ())):
                    rule = lookup.get((a, b))
                    if rule is not None:
                        add(u, rule.head, v)
                for w, c in list(by_dst.get(u, ())):
                    rule = lookup.get((c, a))
                    if rule is not None:
                        add(w, rule.head, x)
        except _Conflict:
            # newest first: each fact is then the last entry of both its lists
            for u, r, v in reversed(added):
                labels[(u, v)].discard(r)
                if not labels[(u, v)]:
                    del labels[(u, v)]
                for index, node in ((by_src, u), (by_dst, v)):
                    index[node].pop()
                    if not index[node]:
                        del index[node]
            return False
        return True


_EXPANSION_RETRIES = 10
_MAX_STALLED_CYCLES = 25


def generate_world_graph(
    world_rules: RuleSet,
    cfg: GenConfig,
    rng: random.Random,
    world_id: int = 0,
) -> WorldGraph:
    """Grow a WorldGraph over one world's rules from one sub-seed drawn from ``rng``.

    Growth refuses every expansion that would contradict an edge label,
    so the graph's edges are the closure engine's pinned pairs and
    :func:`closure_check` finds no edge conflict in the result. A
    weighted draw whose weights ``gamma`` has all decayed to 0.0 is a
    ConfigError naming the world.
    """
    if not world_rules.rules:
        raise DegenerateWorldError(f"world {world_id} has no rules")
    rng = random.Random(rng.getrandbits(64))
    rules = world_rules.rules
    heads = list(world_rules.head_symbols())
    by_head: dict[RelationId, list[int]] = {}
    for idx, rule in enumerate(rules):
        by_head.setdefault(rule.head, []).append(idx)

    closure = _ClosureState(world_rules)
    # a refused batch only unpins what it has just pinned, so the pinned
    # pairs are the graph's edges, in insertion order
    edges = closure.edge_labels
    # Growth never removes or relabels an edge, so these append-only lists
    # equal a scan of ``edges`` (and of the current cycle's edges) for
    # edges whose label heads a rule, in insertion order.
    expandable: list[tuple[NodeId, RelationId, NodeId]] = []
    cycle_expandable: list[tuple[NodeId, RelationId, NodeId]] = []
    weights = [1.0] * len(rules)
    used = [0] * len(rules)
    completed = 0
    next_node = 0
    edge_cap = EDGE_CAP_PER_RULE * len(rules)
    stalled_cycles = 0

    def fresh() -> NodeId:
        nonlocal next_node
        next_node += 1
        return next_node - 1

    def remaining() -> int:
        return cfg.node_pool - next_node

    def draw(population: list, draw_weights: list[float]):
        # a tiny gamma can decay every weight of a draw to 0.0
        if sum(draw_weights) <= 0.0:
            raise ConfigError(f"world {world_id}: gamma={cfg.gamma} decays every rule weight to 0")
        return rng.choices(population, weights=draw_weights)[0]

    def track_expandable(u: NodeId, r: RelationId, v: NodeId) -> None:
        if r in by_head:
            expandable.append((u, r, v))
            cycle_expandable.append((u, r, v))

    def expand_edge(u: NodeId, r_t: RelationId, v: NodeId) -> bool:
        """One rewrite of (u, r_t, v); refused if it would break closure."""
        nonlocal next_node
        rule_ids = by_head[r_t]
        idx = draw(rule_ids, [weights[i] for i in rule_ids])
        r_i, r_j = rules[idx].body
        y = next_node  # allocate only on success
        if not closure.try_add_edges([(u, r_i, y), (y, r_j, v)]):
            return False
        next_node += 1
        track_expandable(u, r_i, y)
        track_expandable(y, r_j, v)
        weights[idx] *= cfg.gamma
        used[idx] += 1
        return True

    while remaining() > 0 and completed < cfg.cycles and len(edges) < edge_cap:
        steps = rng.randint(2, cfg.max_expansions)
        cycle_expandable.clear()
        nodes_before = next_node
        for step in range(steps):
            if remaining() < 1:
                break
            if step == 0:
                use_fresh = remaining() >= 3 and (not expandable or rng.random() < 0.5)
                if use_fresh:
                    # head choice follows the decayed rule weights, so
                    # heads whose rules are still unused get seeded first
                    head_weights = [sum(weights[i] for i in by_head[h]) for h in heads]
                    r_t = draw(heads, head_weights)
                    u, v = fresh(), fresh()
                    # a fresh disconnected pair can neither collide with an
                    # existing edge nor contradict any derivation
                    accepted = closure.try_add_edges([(u, r_t, v)])
                    assert accepted
                    track_expandable(u, r_t, v)
                else:
                    # node_pool >= 3 makes the first seed fresh, and its label
                    # heads a rule: from then on ``expandable`` is never empty
                    u, r_t, v = expandable[rng.randrange(len(expandable))]
                    cycle_expandable.append((u, r_t, v))
            # the seed heads a rule, so the cycle always has a candidate; a
            # refused rewrite changes neither the candidates nor the weights
            cand_weights = [
                sum(weights[i] for i in by_head[e[1]]) for e in cycle_expandable
            ]
            expanded = False
            for _ in range(_EXPANSION_RETRIES):
                u, r_t, v = draw(cycle_expandable, cand_weights)
                if expand_edge(u, r_t, v):
                    expanded = True
                    break
            if not expanded and step > 0:
                break
        if min(used) >= 1:  # the world has rules, so ``used`` is not empty
            completed += 1
            weights = [1.0] * len(rules)
            used = [0] * len(rules)
        if next_node == nodes_before:
            # an unproductive cycle can be bad luck (every expansion
            # draw rejected); only a long run of them means a dead end
            stalled_cycles += 1
            if stalled_cycles >= _MAX_STALLED_CYCLES:
                break
        else:
            stalled_cycles = 0

    return WorldGraph(node_count=next_node, edges=edges)


def derive_closure(
    facts: Iterable[tuple[NodeId, RelationId, NodeId]], rules: RuleSet
) -> dict[tuple[NodeId, NodeId], set[RelationId]]:
    """Forward-chain all rules over the ``(u, r, v)`` facts to a label fixpoint."""
    closure = _ClosureState(rules)
    closure.add_facts(facts)  # nothing pinned, so nothing is refused
    return closure.labels


def closure_check(graph: WorldGraph, rules: RuleSet) -> list[Diagnostic]:
    """Diagnostics from the derivation fixpoint.

    ``edge-conflict``: a pair carrying an edge derives a second label.
    ``derivation-ambiguity``: an edgeless pair derives two or more labels.
    Growth refuses every expansion that would cause an edge conflict, so
    a generated graph has none; ambiguities are allowed.
    """
    found: dict[tuple[NodeId, NodeId], Diagnostic] = {}
    for (u, v), derived in derive_closure(graph.edge_list(), rules).items():
        edge_label = graph.edges.get((u, v))
        if edge_label is not None:
            extras = sorted(derived - {edge_label})
            if extras:
                found[(u, v)] = Diagnostic(
                    kind="edge-conflict",
                    detail=f"pair ({u}, {v}) has edge {edge_label} but derives {extras}",
                )
        elif len(derived) > 1:
            found[(u, v)] = Diagnostic(
                kind="derivation-ambiguity",
                detail=f"pair ({u}, {v}) derives {sorted(derived)}",
            )
    return [found[pair] for pair in sorted(found)]  # sorts what it reports, not every pair


def worldgraph_from_dict(data: dict, pairs: dict | None = None) -> WorldGraph:
    """Parse ``{"nodes": n, "edges": [[u, r, v], ...]}``: ``n`` >= 0 and each
    id a JSON integer, not a bool (else TypeError); no (u, v) pair twice
    and the edges in growth order, which puts every id of ``0..n-1`` and
    no other on an edge (else ValueError, from :func:`growth_steps`).

    ``pairs`` is an optional pair table: each edge is keyed by the table's
    tuple equal to its (u, v), entered once the edge passes its type
    checks, so graphs parsed with one table share equal keys and no bool
    or float enters it."""
    nodes, edges = data["nodes"], {}
    if type(nodes) is not int or nodes < 0:
        raise TypeError(f"nodes {nodes!r} is not a non-negative integer")
    share = None if pairs is None else pairs.setdefault
    for u, r, v in data["edges"]:
        if type(u) is not int or type(r) is not int or type(v) is not int:
            raise TypeError(f"edge {[u, r, v]!r} is not three integers")
        key = (u, v)
        edges[key if share is None else share(key, key)] = r
    if len(edges) != len(data["edges"]):
        raise ValueError("a (u, v) pair carries two edges")
    graph = WorldGraph(node_count=nodes, edges=edges)
    deque(growth_steps(graph), maxlen=0)  # reads every step, or refuses the order
    return graph
