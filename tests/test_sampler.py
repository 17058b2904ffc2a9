import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicworlds.errors import ConfigError, DegenerateWorldError
from logicworlds.resolver import instance_adjacency, resolve_descriptor, validate_instance
from logicworlds.rules import RelationId, generate_alphabet, generate_rules
from logicworlds.sampler import (
    MAX_WALKS_PER_EDGE,
    SPLIT_NAMES,
    DescriptorPair,
    IncidentEdge,
    Instance,
    _remove_shortcuts,
    build_dataset,
    collect_descriptors,
    incident_adjacency,
    sample_instance,
    split_descriptors,
)
from logicworlds.worldgraph import GenConfig, NodeId, WorldGraph, generate_world_graph

from oracles import reference_collect_descriptors, shortest_distance


def chain_graph():
    """Edge (0, 3, 2) with the alternate walk 0 ->0-> 1 ->2-> 2."""
    return WorldGraph(node_count=3, edges={(0, 2): 3, (0, 1): 0, (1, 2): 2})


def generated_world(seed=1, k=10, cfg=None):
    rng = random.Random(seed)
    alpha = generate_alphabet(k, rng)
    rules = generate_rules(alpha, rng)
    cfg = cfg or GenConfig(node_pool=200, graphs_per_split=(30, 8, 8))
    graph = generate_world_graph(rules, cfg, rng)
    return rules, cfg, graph


class TestCollectDescriptors:
    def test_single_alternate_walk(self):
        collection = collect_descriptors(chain_graph(), e=10)
        assert len(collection.pairs) == 1
        pair = collection.pairs[0]
        assert pair.edge == (0, 3, 2)
        assert pair.descriptor == (0, 2)
        assert pair.path == (0, 1, 2)
        assert collection.truncated_edges == 0

    def test_minimum_walk_length_enforced(self):
        with pytest.raises(ConfigError):
            collect_descriptors(chain_graph(), e=1)

    def test_descriptor_lengths_within_bounds(self):
        _, cfg, graph = generated_world()
        collection = collect_descriptors(graph, cfg.max_walk_len)
        assert collection.pairs
        for pair in collection.pairs:
            assert 2 <= len(pair.descriptor) <= cfg.max_walk_len
            # descriptor reads off the walk's labels
            labels = tuple(
                graph.edges[(a, b)] for a, b in zip(pair.path, pair.path[1:])
            )
            assert labels == pair.descriptor

    def test_deduplicates_edge_descriptor_combinations(self):
        _, cfg, graph = generated_world(seed=2)
        collection = collect_descriptors(graph, cfg.max_walk_len)
        keys = [(p.edge, p.descriptor) for p in collection.pairs]
        assert len(keys) == len(set(keys))

    def test_walk_cap_flags_truncation(self):
        _, _, graph = generated_world(seed=3)
        capped = collect_descriptors(graph, 10, max_walks_per_edge=1)
        uncapped = collect_descriptors(graph, 10)
        assert capped.truncated_edges > 0
        assert len(capped.pairs) <= len(uncapped.pairs)

    def test_resolvable_descriptors_match_their_edge_label(self):
        # conflict-free expansion guarantees every alternate walk either
        # resolves to exactly the edge's label or to nothing at all
        rules, cfg, graph = generated_world(seed=10)
        cache = {}
        resolvable = 0
        for pair in collect_descriptors(graph, cfg.max_walk_len).pairs:
            resolved = cache.get(pair.descriptor)
            if resolved is None:
                resolved = cache[pair.descriptor] = resolve_descriptor(
                    rules, pair.descriptor
                )
            assert resolved <= {pair.edge[1]}
            resolvable += bool(resolved)
        assert resolvable > 0

    def test_default_scale_descriptor_count_envelope(self):
        # full-scale worlds carry tens to thousands of distinct
        # descriptors; loose envelope only
        rules, cfg, graph = generated_world(
            seed=11, k=20, cfg=GenConfig(graphs_per_split=(30, 8, 8))
        )
        distinct = collect_descriptors(graph, cfg.max_walk_len).distinct_descriptors()
        assert 20 <= len(distinct) <= 10_000


@st.composite
def dag_world_graphs(draw):
    """A world graph of up to 8 nodes whose edges run forward in a drawn
    node order (so it is acyclic), in drawn insertion order."""
    n = draw(st.integers(2, 8))
    order = draw(st.permutations(range(n)))
    forward = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    keys = draw(st.lists(st.sampled_from(forward), unique=True, max_size=len(forward)))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)))
    return WorldGraph(node_count=n, edges=dict(zip(keys, labels)))


class TestCollectDescriptorsReference:
    @settings(max_examples=300, deadline=None)
    @given(dag_world_graphs(), st.integers(2, 5))
    def test_equals_the_recursive_per_source_walk(self, graph, e):
        for cap in (1, 2, MAX_WALKS_PER_EDGE):
            walked = collect_descriptors(graph, e, max_walks_per_edge=cap)
            reference = reference_collect_descriptors(graph, e, max_walks_per_edge=cap)
            # pairs in order, each with its first walk, and the truncation count
            assert walked == reference

    def test_cyclic_graph_records_no_walk_through_a_node_twice(self):
        # 0 -> 1 -> 2 -> 1 returns to 1; no edge has a simple alternate walk
        graph = WorldGraph(node_count=3, edges={(0, 1): 0, (1, 2): 1, (2, 1): 2})
        assert collect_descriptors(graph, 3).pairs == []

    def test_walk_longer_than_the_recursion_limit(self):
        n = 1_500
        edges = {(i, i + 1): 0 for i in range(n - 1)}
        edges[(0, n - 1)] = 1
        collection = collect_descriptors(WorldGraph(node_count=n, edges=edges), n)
        assert collection.pairs == [
            DescriptorPair(edge=(0, 1, n - 1), descriptor=(0,) * (n - 1), path=tuple(range(n)))
        ]


def dummy_descriptors(n):
    return [(i, i + 1) for i in range(n)]


class TestSplitDescriptors:
    def test_largest_remainder_8_1_1(self, rng):
        assignment = split_descriptors(dummy_descriptors(10), (0.8, 0.1, 0.1), rng)
        counts = {name: 0 for name in SPLIT_NAMES}
        for split in assignment.values():
            counts[split] += 1
        assert counts == {"train": 8, "valid": 1, "test": 1}

    def test_partition_is_disjoint_and_total(self, rng):
        descriptors = dummy_descriptors(23)
        assignment = split_descriptors(descriptors, (0.7, 0.15, 0.15), rng)
        assert len(assignment) == 23
        assert set(assignment.values()) == set(SPLIT_NAMES)

    def test_deterministic_given_seed(self):
        descriptors = dummy_descriptors(17)
        a = split_descriptors(descriptors, (0.7, 0.15, 0.15), random.Random(9))
        b = split_descriptors(descriptors, (0.7, 0.15, 0.15), random.Random(9))
        assert a == b

    def test_too_few_descriptors(self, rng):
        with pytest.raises(DegenerateWorldError):
            split_descriptors(dummy_descriptors(2), (0.7, 0.15, 0.15), rng)

    def test_every_split_populated_even_when_skewed(self, rng):
        assignment = split_descriptors(dummy_descriptors(3), (0.98, 0.01, 0.01), rng)
        assert sorted(assignment.values()) == sorted(SPLIT_NAMES)

    def test_bad_fractions(self, rng):
        with pytest.raises(ConfigError):
            split_descriptors(dummy_descriptors(5), (0.5, 0.5, 0.5), rng)
        with pytest.raises(ConfigError):
            split_descriptors(dummy_descriptors(5), (math.nan, 0.5, 0.5), rng)


class TestSampleInstance:
    def test_zero_noise_gives_bare_path(self):
        graph = chain_graph()
        pair = collect_descriptors(graph, 10).pairs[0]
        cfg = GenConfig(node_pool=10, noise_gamma=0.0)
        inst = sample_instance(graph, pair, cfg, random.Random(0), incident_adjacency(graph))
        assert inst.edges == ((0, 0, 1), (1, 2, 2))
        assert inst.resolution_path == (0, 1, 2)
        assert (inst.source, inst.sink, inst.target) == (0, 2, 3)

    def test_distance_equals_descriptor_length(self):
        rules, cfg, graph = generated_world(seed=4)
        pairs = collect_descriptors(graph, cfg.max_walk_len).pairs
        local = random.Random(0)
        for pair in pairs[:60]:
            inst = sample_instance(graph, pair, cfg, local, incident_adjacency(graph))
            _, rev = instance_adjacency(inst.edges)
            assert shortest_distance(rev, inst.source, inst.sink) == len(
                inst.descriptor
            )

    def test_no_direct_query_edge(self):
        rules, cfg, graph = generated_world(seed=5)
        pairs = collect_descriptors(graph, cfg.max_walk_len).pairs
        local = random.Random(1)
        for pair in pairs[:60]:
            inst = sample_instance(graph, pair, cfg, local, incident_adjacency(graph))
            assert all((u, v) != (inst.source, inst.sink) for u, _, v in inst.edges)

    def test_node_ids_dense_from_zero(self):
        rules, cfg, graph = generated_world(seed=6)
        pair = collect_descriptors(graph, cfg.max_walk_len).pairs[0]
        inst = sample_instance(graph, pair, cfg, random.Random(2), incident_adjacency(graph))
        nodes = {n for e in inst.edges for n in (e[0], e[2])}
        assert nodes == set(range(len(nodes)))
        assert inst.source == 0


class TestRemoveShortcuts:
    def test_nested_shortcuts_lose_their_newest_edge_each_round(self):
        # resolution path 0-1-2-3-4-5 (length 5); the outer shortcut
        # 0-7-5 (length 2) nests around the inner one 1-6-4 (0-1-6-4-5,
        # length 4)
        path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        noise_order = [(1, 6), (0, 7), (6, 4), (7, 5)]
        edges = {key: 0 for key in path + noise_order}
        _remove_shortcuts(edges, 0, 5, 5)
        # round 1 drops (7, 5), newer than (0, 7); round 2 drops (6, 4),
        # newer than (1, 6); round 3 finds distance 5 and stops
        assert list(edges) == path + [(1, 6), (0, 7)]


def reference_remove_shortcuts(edges, noise_order, source, sink, resolution_len):
    """Shortcut pruning with an unbounded BFS per round, kept as the reference.

    Each round takes the first BFS path to the sink at whatever depth it
    lies, and pruning stops once that path is as long as the resolution
    path.
    """
    insertion = {key: i for i, key in enumerate(noise_order)}
    out = {}
    for u, v in edges:
        out.setdefault(u, []).append(v)
    for nbrs in out.values():
        nbrs.sort()
    while True:
        path = reference_shortest_path(out, source, sink)
        assert path is not None, "resolution path edges are never deleted"
        if len(path) - 1 >= resolution_len:
            return
        offending = [(a, b) for a, b in zip(path, path[1:]) if (a, b) in insertion]
        newest = max(offending, key=insertion.__getitem__)
        del edges[newest]
        out[newest[0]].remove(newest[1])


def reference_shortest_path(out, source, sink):
    parent = {source: source}
    frontier = [source]
    while frontier:
        next_frontier = []
        for node in frontier:
            for v in out.get(node, ()):
                if v not in parent:
                    parent[v] = node
                    if v == sink:
                        path = [v]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    next_frontier.append(v)
        frontier = next_frontier
    return None


def reference_incident_adjacency(g: WorldGraph) -> dict[NodeId, list[IncidentEdge]]:
    """Node -> incident edges in both directions, in (u, r, v) order.

    The builder as it was written with a triple list per node, each
    sorted and rebuilt on its own, kept as the reference.
    """
    adj: dict[NodeId, list[tuple[NodeId, RelationId, NodeId]]] = {}
    for (u, v), r in g.edges.items():
        adj.setdefault(u, []).append((u, r, v))
        adj.setdefault(v, []).append((u, r, v))
    return {
        node: [((u, v), r, v if u == node else u) for u, r, v in sorted(edges)]
        for node, edges in adj.items()
    }


def reference_sample_instance(
    g: WorldGraph,
    pair: DescriptorPair,
    cfg: GenConfig,
    rng: random.Random,
    adjacency: dict[NodeId, list[IncidentEdge]] | None = None,
) -> Instance:
    """Embed the resolution path in a BFS-sampled noisy neighborhood.

    Neighbor edges join with probability ``noise_gamma ** depth`` up to
    ``noise_depth`` levels from each path node. The direct (u, v) edge
    is dropped, then noise edges creating a path shorter than the
    resolution path are deleted newest-first until the query distance
    equals the descriptor length. Resolution edges are never deleted.

    The sampler as it was written with a second record of the noise
    edges, ``noise_order``, kept as the reference: it lists every drawn
    noise edge, the dropped direct edge and the pruned edges included,
    and the instance lists the path's edges and then those that remain.
    It prunes with :func:`reference_remove_shortcuts`.
    """
    source, target, sink = pair.edge
    path = pair.path
    if adjacency is None:
        adjacency = reference_incident_adjacency(g)

    edges: dict[tuple[NodeId, NodeId], RelationId] = {}
    for a, b in zip(path, path[1:]):
        edges[(a, b)] = g.edges[(a, b)]
    noise_order: list[tuple[NodeId, NodeId]] = []
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
                        noise_order.append(key)
                        next_frontier.append(far)
            frontier = next_frontier

    # the direct edge can only have entered as noise: the resolution
    # path has length >= 2, so (source, sink) is never one of its edges
    edges.pop((source, sink), None)

    reference_remove_shortcuts(edges, noise_order, source, sink, len(pair.descriptor))

    # path nodes first, then noise edges' nodes as the edges are listed
    renumber: dict[NodeId, int] = {}
    for node in path:
        renumber.setdefault(node, len(renumber))
    final_edges = [(renumber[a], edges[(a, b)], renumber[b]) for a, b in zip(path, path[1:])]
    for key in noise_order:
        r = edges.get(key)
        if r is not None:
            u, v = key
            final_edges.append(
                (renumber.setdefault(u, len(renumber)), r, renumber.setdefault(v, len(renumber)))
            )

    return Instance(
        edges=tuple(final_edges),
        source=renumber[source],
        sink=renumber[sink],
        target=target,
        resolution_path=tuple(renumber[n] for n in path),
        descriptor=pair.descriptor,
    )


@st.composite
def noisy_paths(draw):
    """A resolution path over up to 7 nodes plus noise edges in insertion order."""
    n = draw(st.integers(3, 7))
    order = draw(st.permutations(range(n)))
    path = order[: draw(st.integers(3, n))]
    path_edges = list(zip(path, path[1:]))
    others = [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in path_edges]
    noise = draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others)))
    return path, path_edges, noise


class TestRemoveShortcutsReference:
    @settings(max_examples=300, deadline=None)
    @given(noisy_paths())
    def test_bounded_bfs_deletes_the_same_edges(self, case):
        path, path_edges, noise = case
        edges = {key: 0 for key in path_edges + noise}
        expected = dict(edges)
        reference_remove_shortcuts(expected, noise, path[0], path[-1], len(path) - 1)
        _remove_shortcuts(edges, path[0], path[-1], len(path) - 1)
        assert list(edges) == list(expected)


@st.composite
def any_world_graphs(draw):
    """A graph of up to 6 nodes whose edges are any ordered pairs, self-loops
    and antiparallel pairs included, in drawn insertion order."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    keys = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)))
    return WorldGraph(node_count=n, edges=dict(zip(keys, labels)))


class TestIncidentAdjacencyReference:
    @settings(max_examples=300, deadline=None)
    @given(any_world_graphs())
    @example(WorldGraph(node_count=3, edges={(2, 0): 1, (1, 1): 0, (0, 2): 1, (1, 0): 2}))
    def test_one_sorted_pass_gives_the_per_node_sorted_lists(self, graph):
        # equal lists per node; the nodes' own order is never read
        assert incident_adjacency(graph) == reference_incident_adjacency(graph)


class TestSampleInstanceReference:
    @settings(max_examples=200, deadline=None)
    @given(
        world_seed=st.integers(0, 40),
        node_pool=st.integers(8, 200),
        noise_gamma=st.floats(0.0, 1.0),
        noise_depth=st.integers(1, 3),
        draws=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 2**32)), min_size=1, max_size=8
        ),
    )
    def test_one_ordered_map_gives_the_reference_instance(
        self, world_seed, node_pool, noise_gamma, noise_depth, draws
    ):
        cfg = GenConfig(
            node_pool=node_pool, noise_gamma=noise_gamma, noise_depth=noise_depth,
            graphs_per_split=(30, 8, 8),
        )
        _, cfg, graph = generated_world(seed=world_seed, cfg=cfg)
        pairs = collect_descriptors(graph, cfg.max_walk_len).pairs
        adjacency = incident_adjacency(graph)
        for index, seed in draws:
            pair = pairs[index % len(pairs)]
            rng, reference_rng = random.Random(seed), random.Random(seed)
            inst = sample_instance(graph, pair, cfg, rng, adjacency)
            assert inst == reference_sample_instance(graph, pair, cfg, reference_rng)
            assert rng.getstate() == reference_rng.getstate()  # the same draws, too


class TestBuildDataset:
    def test_counts_validity_and_disjointness(self):
        rules, cfg, graph = generated_world(seed=7)
        ds = build_dataset(graph, rules, cfg, random.Random(3), world_id=7)
        for split, count in zip(SPLIT_NAMES, cfg.graphs_per_split):
            assert len(ds.instances[split]) == count
            for inst in ds.instances[split]:
                assert validate_instance(rules, inst).is_valid
        descriptor_sets = {
            split: {i.descriptor for i in ds.instances[split]} for split in SPLIT_NAMES
        }
        assert not descriptor_sets["train"] & descriptor_sets["valid"]
        assert not descriptor_sets["train"] & descriptor_sets["test"]
        assert not descriptor_sets["valid"] & descriptor_sets["test"]

    def test_deterministic(self):
        rules, cfg, graph = generated_world(seed=8)
        a = build_dataset(graph, rules, cfg, random.Random(4))
        b = build_dataset(graph, rules, cfg, random.Random(4))
        assert a == b

    def test_sampling_info_counters(self):
        rules, cfg, graph = generated_world(seed=9)
        ds = build_dataset(graph, rules, cfg, random.Random(5))
        collection = collect_descriptors(graph, cfg.max_walk_len)
        assert ds.sampling_info == {
            "descriptor_pairs": len(collection.pairs),
            "distinct_descriptors": len(collection.distinct_descriptors()),
            "truncated_edges": collection.truncated_edges,
        }
