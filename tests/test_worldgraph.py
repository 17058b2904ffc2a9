import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicworlds.errors import ConfigError, DegenerateWorldError
from logicworlds.rules import generate_alphabet, generate_rules
from logicworlds.worldgraph import (
    EDGE_CAP_PER_RULE,
    EXPAND,
    SEED_EXISTING,
    SEED_FRESH,
    _EXPANSION_RETRIES,
    _MAX_STALLED_CYCLES,
    GenConfig,
    WorldGraph,
    _ClosureState,
    closure_check,
    derive_closure,
    generate_world_graph,
    replay_trace,
    rule_usage,
    worldgraph_from_dict,
)

from conftest import make_rules


def reference_closure(edges, rules):
    """Naive fixpoint: compose every pair of facts until nothing new appears."""
    head_of = {rule.body: rule.head for rule in rules.rules}
    facts = set(edges)
    while True:
        derived = {
            (u, head_of[(a, b)], w)
            for u, a, x in facts
            for y, b, w in facts
            if x == y and (a, b) in head_of
        }
        if derived <= facts:
            break
        facts |= derived
    labels = {}
    for u, r, v in facts:
        labels.setdefault((u, v), set()).add(r)
    return labels


def reference_expand(world_rules, cfg, rng):
    """The rescanning growth loop, kept as the reference: it rebuilds the
    expandable edges from every edge each cycle and re-filters the cycle's
    edges on every retry. The generator's incremental lists must
    reproduce its edges, node count and trace exactly."""
    rules = world_rules.rules
    heads = list(world_rules.head_symbols())
    by_head = {}
    for idx, rule in enumerate(rules):
        by_head.setdefault(rule.head, []).append(idx)

    edges = {}
    trace = []
    closure = _ClosureState(world_rules)
    weights = [1.0] * len(rules)
    used = [0] * len(rules)
    completed = 0
    next_node = 0
    edge_cap = EDGE_CAP_PER_RULE * len(rules)
    stalled_cycles = 0

    def fresh():
        nonlocal next_node
        next_node += 1
        return next_node - 1

    def remaining():
        return cfg.node_pool - next_node

    def expandable(items):
        return [e for e in items if e[1] in by_head]

    def expand_edge(u, r_t, v):
        """One rewrite of (u, r_t, v); refused if it would break closure."""
        nonlocal next_node
        rule_ids = by_head[r_t]
        idx = rng.choices(rule_ids, weights=[weights[i] for i in rule_ids])[0]
        r_i, r_j = rules[idx].body
        y = next_node  # allocate only on success
        if not closure.try_add_edges([(u, r_i, y), (y, r_j, v)]):
            return False
        next_node += 1
        edges[(u, y)] = r_i
        edges[(y, v)] = r_j
        trace.append((EXPAND, u, r_i, r_j, v, y))
        cycle_edges.extend([(u, r_i, y), (y, r_j, v)])
        weights[idx] *= cfg.gamma
        used[idx] += 1
        return True

    while remaining() > 0 and completed < cfg.cycles and len(edges) < edge_cap:
        steps = rng.randint(2, cfg.max_expansions)
        cycle_edges = []
        nodes_before = next_node
        for step in range(steps):
            if remaining() < 1:
                break
            if step == 0:
                existing = expandable([(u, r, v) for (u, v), r in edges.items()])
                use_fresh = remaining() >= 3 and (not existing or rng.random() < 0.5)
                if use_fresh:
                    # head choice follows the decayed rule weights, so
                    # heads whose rules are still unused get seeded first
                    head_weights = [sum(weights[i] for i in by_head[h]) for h in heads]
                    r_t = rng.choices(heads, weights=head_weights)[0]
                    u, v = fresh(), fresh()
                    # a fresh disconnected pair can neither collide with an
                    # existing edge nor contradict any derivation
                    accepted = closure.try_add_edges([(u, r_t, v)])
                    assert accepted
                    edges[(u, v)] = r_t
                    trace.append((SEED_FRESH, u, r_t, v))
                elif existing:
                    u, r_t, v = existing[rng.randrange(len(existing))]
                    trace.append((SEED_EXISTING, u, r_t, v))
                else:
                    break
                cycle_edges.append((u, r_t, v))
            expanded = False
            for _ in range(_EXPANSION_RETRIES):
                candidates = expandable(cycle_edges)
                if not candidates:
                    break
                cand_weights = [
                    sum(weights[i] for i in by_head[e[1]]) for e in candidates
                ]
                u, r_t, v = rng.choices(candidates, weights=cand_weights)[0]
                if expand_edge(u, r_t, v):
                    expanded = True
                    break
            if not expanded and step > 0:
                break
        if used and min(used) >= 1:
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

    return WorldGraph(node_count=next_node, edges=edges, trace=trace)


def has_edge_conflict(edges, rules):
    labels = reference_closure(edges, rules)
    return any(labels[(u, v)] != {r} for u, r, v in edges)


RELATIONS = 4


@st.composite
def rule_sets(draw):
    """Rule sets with distinct bodies over RELATIONS relations."""
    relation = st.integers(0, RELATIONS - 1)
    bodies = draw(st.lists(st.tuples(relation, relation), max_size=8, unique=True))
    heads = draw(st.lists(relation, min_size=len(bodies), max_size=len(bodies)))
    return make_rules(list(zip(bodies, heads)), size=RELATIONS)


def labelled_edges(nodes=6, max_size=12):
    """Edges (u, r, v) with at most one edge per ordered pair; cycles allowed."""
    return st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)),
        max_size=max_size,
        unique=True,
    ).flatmap(
        lambda pairs: st.lists(
            st.integers(0, RELATIONS - 1), min_size=len(pairs), max_size=len(pairs)
        ).map(lambda labels: [(u, r, v) for (u, v), r in zip(pairs, labels)])
    )


@st.composite
def growth_rule_sets(draw):
    """Non-empty rule sets: small random grammars, or generated alphabets
    and rules as a suite draws them."""
    if draw(st.booleans()):
        return draw(rule_sets().filter(lambda rules: rules.rules))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return generate_rules(generate_alphabet(draw(st.integers(2, 16)), rng), rng)


growth_configs = st.builds(
    GenConfig,
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    max_expansions=st.integers(2, 8),
    cycles=st.integers(1, 3),
    node_pool=st.integers(3, 250),
)


def generated_sample(seed, k=12, cfg=None):
    rng = random.Random(seed)
    alpha = generate_alphabet(k, rng)
    rules = generate_rules(alpha, rng)
    cfg = cfg or GenConfig(node_pool=200)
    graph = generate_world_graph(rules, cfg, rng)
    return rules, cfg, graph


class TestTraceReplay:
    def test_replay_reproduces_edge_map(self):
        for seed in range(8):
            _, _, graph = generated_sample(seed)
            assert replay_trace(graph.trace) == graph.edges

    def test_no_pair_ever_relabeled(self):
        for seed in range(8):
            _, _, graph = generated_sample(seed)
            seen = {}
            for event in graph.trace:
                added = []
                if event[0] == SEED_FRESH:
                    _, u, r, v = event
                    added = [((u, v), r)]
                elif event[0] == EXPAND:
                    _, u, r_i, r_j, v, y = event
                    added = [((u, y), r_i), ((y, v), r_j)]
                for key, r in added:
                    assert seen.setdefault(key, r) == r
            assert len(seen) == len(graph.edges)


class TestSingleRuleExpansion:
    def test_seed_edge_expands_into_labeled_chain(self):
        rules = make_rules([((0, 2), 3)], size=4)
        cfg = GenConfig(node_pool=10, cycles=1, max_expansions=2)
        graph = generate_world_graph(rules, cfg, random.Random(0))
        seeds = [e for e in graph.trace if e[0] == SEED_FRESH]
        expands = [e for e in graph.trace if e[0] == EXPAND]
        assert seeds and expands
        _, a, r, b = seeds[0]
        assert r == 3  # the only head symbol
        _, u, r_i, r_j, v, c = expands[0]
        assert (u, r_i, r_j, v) == (a, 0, 2, b)
        assert graph.edges[(a, c)] == 0 and graph.edges[(c, b)] == 2
        # the walk a -> c -> b reads off the rule body
        assert [graph.edges[(a, c)], graph.edges[(c, b)]] == [0, 2]


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = generated_sample(3)[2]
        b = generated_sample(3)[2]
        assert a.edges == b.edges and a.node_count == b.node_count

    def test_every_rule_used_at_least_cycles_times(self):
        rules, cfg, graph = generated_sample(1, k=10, cfg=GenConfig(node_pool=400))
        usage = rule_usage(graph.trace, rules)
        assert min(usage.values()) >= cfg.cycles

    def test_edge_cap_bounds_growth(self):
        rules, cfg, graph = generated_sample(2)
        assert len(graph.edges) <= 50 * len(rules.rules)

    def test_no_closure_conflicts_after_generation(self):
        for seed in range(6):
            rules, _, graph = generated_sample(seed, k=14)
            kinds = [d.kind for d in closure_check(graph, rules)]
            assert "edge-conflict" not in kinds

    def test_empty_world_rejected(self):
        rules = make_rules([], size=3)
        with pytest.raises(DegenerateWorldError):
            generate_world_graph(rules, GenConfig(node_pool=10), random.Random(0))


class TestClosureCheck:
    def test_consistent_chain_has_no_diagnostics(self):
        rules = make_rules([((0, 2), 3)], size=4)
        graph = WorldGraph(node_count=3, edges={(0, 2): 3, (0, 1): 0, (1, 2): 2})
        assert closure_check(graph, rules) == []

    def test_injected_conflicting_edge(self):
        rules = make_rules([((0, 2), 3)], size=4)
        graph = WorldGraph(node_count=3, edges={(0, 1): 0, (1, 2): 2, (0, 2): 1})
        diags = closure_check(graph, rules)
        assert [d.kind for d in diags] == ["edge-conflict"]
        assert "derives [3]" in diags[0].detail

    def test_ambiguous_edgeless_pair_reported(self):
        rules = make_rules([((0, 0), 2), ((1, 1), 3)], size=4)
        graph = WorldGraph(
            node_count=4,
            edges={(0, 1): 0, (1, 2): 0, (0, 3): 1, (3, 2): 1},
        )
        diags = closure_check(graph, rules)
        assert [d.kind for d in diags] == ["derivation-ambiguity"]


class TestClosureEngine:
    @settings(max_examples=300, deadline=None)
    @given(rules=rule_sets(), edges=labelled_edges())
    def test_derive_closure_equals_naive_fixpoint(self, rules, edges):
        assert derive_closure(edges, rules) == reference_closure(edges, rules)

    @settings(max_examples=300, deadline=None)
    @given(rules=rule_sets(), edges=labelled_edges(), cuts=st.lists(st.integers(0, 12)))
    # an edge on a pair that already derives another label, which is rare in random draws
    @example(
        rules=make_rules([((0, 1), 2)], size=RELATIONS),
        edges=[(0, 0, 1), (1, 1, 2), (0, 3, 2)],
        cuts=[2],
    )
    def test_batch_refused_exactly_on_conflict_and_rolled_back(self, rules, edges, cuts):
        bounds = sorted({0, len(edges), *(c for c in cuts if c < len(edges))})
        batches = [edges[a:b] for a, b in zip(bounds, bounds[1:])]
        closure = _ClosureState(rules)
        accepted = []
        for batch in batches:
            before = (
                {pair: set(cell) for pair, cell in closure.labels.items()},
                {node: list(facts) for node, facts in closure._by_src.items()},
                {node: list(facts) for node, facts in closure._by_dst.items()},
                dict(closure.edge_labels),
            )
            refused = has_edge_conflict(accepted + batch, rules)
            assert closure.try_add_edges(batch) is not refused
            if refused:
                after = (closure.labels, closure._by_src, closure._by_dst, closure.edge_labels)
                assert after == before
            else:
                accepted += batch
                assert closure.labels == reference_closure(accepted, rules)
                assert closure.edge_labels == {(u, v): r for u, r, v in accepted}


class TestGenConfig:
    def test_rejects_bad_decay(self):
        with pytest.raises(ConfigError):
            GenConfig(gamma=0.0)
        with pytest.raises(ConfigError):
            GenConfig(noise_gamma=1.5)

    def test_zero_noise_allowed(self):
        assert GenConfig(noise_gamma=0.0).noise_gamma == 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            GenConfig(max_expansions=1)
        with pytest.raises(ConfigError):
            GenConfig(graphs_per_split=(5, 0, 5))
        with pytest.raises(ConfigError):
            GenConfig(split_fractions=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            GenConfig(split_fractions=(math.nan, 0.5, 0.5))


class TestIncrementalGrowth:
    @settings(max_examples=150, deadline=None)
    @given(rules=growth_rule_sets(), cfg=growth_configs, seed=st.integers(0, 2**64))
    @example(rules=make_rules([((0, 1), 2)]), cfg=GenConfig(gamma=1e-200), seed=0)
    def test_growth_equals_rescanning_reference(self, rules, cfg, seed):
        # generate_world_graph grows from one sub-seed drawn from its rng
        sub_seed = random.Random(seed).getrandbits(64)
        try:
            ref = reference_expand(rules, cfg, random.Random(sub_seed))
        except ValueError as exc:
            # under a tiny gamma every weight of a draw can underflow to 0:
            # the reference's draw fails, the generator names world and gamma
            assert str(exc) == "Total of weights must be greater than zero"
            message = f"world 7: gamma={cfg.gamma} decays every rule weight to 0"
            with pytest.raises(ConfigError, match=re.escape(message)):
                generate_world_graph(rules, cfg, random.Random(seed), world_id=7)
            return
        graph = generate_world_graph(rules, cfg, random.Random(seed))
        # node_pool >= 3, so growth always seeds fresh first: ``expandable``
        # is never empty when an existing edge is to be seeded
        assert graph.trace[0][0] == SEED_FRESH
        assert list(graph.edges.items()) == list(ref.edges.items())
        assert graph.node_count == ref.node_count
        assert graph.trace == ref.trace
        # growth's refusals alone keep the finished graph free of conflicts
        kinds = [d.kind for d in closure_check(graph, rules)]
        assert "edge-conflict" not in kinds


class TestSerialization:
    def test_round_trip(self):
        _, _, graph = generated_sample(4)
        doc = json.loads(json.dumps({"edges": graph.edge_list(), "nodes": graph.node_count}))
        assert worldgraph_from_dict(doc) == WorldGraph(graph.node_count, graph.edges)
