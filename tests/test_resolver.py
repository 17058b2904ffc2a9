import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicworlds.errors import ConfigError
from logicworlds.resolver import (
    _distances_to,
    instance_adjacency,
    iter_simple_path_labels,
    resolve_descriptor,
    solve_instance,
    symbolic_baseline_solve,
    validate_instance,
)
from logicworlds.rules import compose, generate_alphabet, generate_rules
from logicworlds.sampler import Instance, WorldDataset
from logicworlds.worldgraph import derive_closure

from conftest import make_rules
from oracles import (
    brute_force_resolve,
    reference_simple_path_labels,
    reference_validate_instance,
    shortest_distance,
)


class TestResolveDescriptor:
    def test_single_rule_application(self):
        rules = make_rules([((0, 2), 3)], size=4)
        assert resolve_descriptor(rules, (0, 2)) == {3}

    def test_both_parse_orders_agree(self):
        rules = make_rules(
            [((0, 2), 3), ((2, 1), 3), ((2, 3), 0), ((3, 2), 1)], size=4
        )
        assert resolve_descriptor(rules, (2, 3, 2)) == {3}

    def test_unresolvable_descriptor(self):
        rules = make_rules([((0, 2), 3)], size=4)
        assert resolve_descriptor(rules, (0, 2, 3)) == frozenset()

    def test_ambiguous_bracketings_union(self):
        rules = make_rules(
            [((0, 1), 2), ((1, 3), 4), ((2, 3), 5), ((0, 4), 6)], size=7
        )
        assert resolve_descriptor(rules, (0, 1, 3)) == {5, 6}

    def test_unit_descriptor_is_itself(self):
        rules = make_rules([((0, 2), 3)], size=4)
        assert resolve_descriptor(rules, (1,)) == {1}

    def test_empty_descriptor_rejected(self):
        rules = make_rules([((0, 2), 3)], size=4)
        with pytest.raises(ConfigError):
            resolve_descriptor(rules, ())


class TestResolutionMemo:
    def test_rule_sets_sharing_a_body_do_not_share_results(self):
        low = make_rules([((0, 1), 2)], size=4)
        high = make_rules([((0, 1), 3)], size=4)
        for _ in range(2):
            assert resolve_descriptor(low, (0, 1)) == {2}
            assert resolve_descriptor(high, (0, 1)) == {3}

    def test_memoized_results_match_brute_force(self):
        for seed in range(6):
            local = random.Random(seed)
            alpha = generate_alphabet(6, local)
            rules = generate_rules(alpha, local)
            descriptors = [
                tuple(local.randrange(6) for _ in range(local.randint(1, 7)))
                for _ in range(60)
            ]
            for d in descriptors + descriptors:  # second pass is served by the memo
                expected = brute_force_resolve(rules, d)
                assert resolve_descriptor(rules, d) == expected
                assert resolve_descriptor(rules, list(d)) == expected
            assert set(rules._resolved) == set(descriptors)

    def test_failed_resolution_is_not_memoized(self):
        rules = make_rules([((0, 2), 3)], size=4)
        with pytest.raises(ConfigError):
            resolve_descriptor(rules, ())
        assert () not in rules._resolved


def path_closure(rules, labels):
    """The closure engine's labels on the path graph 0 -> 1 -> ... -> n of ``labels``."""
    return derive_closure([(i, r, i + 1) for i, r in enumerate(labels)], rules)


class TestPathClosure:
    def test_unit_spans_are_own_labels(self):
        rules = make_rules([((0, 2), 3)], size=4)
        closure = path_closure(rules, (0, 2, 0))
        for i, label in enumerate((0, 2, 0)):
            assert closure[(i, i + 1)] == {label}

    def test_span_union_identity(self, rng):
        for _ in range(10):
            alpha = generate_alphabet(6, rng)
            rules = generate_rules(alpha, rng)
            d = tuple(rng.randrange(6) for _ in range(rng.randint(2, 7)))
            closure = path_closure(rules, d)
            assert all(i < j for i, j in closure)
            for i in range(len(d) - 1):
                for j in range(i + 2, len(d) + 1):
                    recombined = set()
                    for k in range(i + 1, j):
                        for a in closure.get((i, k), ()):
                            for b in closure.get((k, j), ()):
                                head = compose(rules, a, b)
                                if head is not None:
                                    recombined.add(head)
                    assert closure.get((i, j), set()) == recombined


class TestBruteForce:
    def test_length_two_is_compose(self, rng):
        for seed in range(20):
            local = random.Random(seed)
            alpha = generate_alphabet(5, local)
            rules = generate_rules(alpha, local)
            for a in range(5):
                for b in range(5):
                    head = compose(rules, a, b)
                    expected = frozenset() if head is None else {head}
                    assert brute_force_resolve(rules, (a, b)) == expected

    def test_empty_rule_set(self):
        rules = make_rules([], size=3)
        assert brute_force_resolve(rules, (0, 1, 2)) == frozenset()

    def test_length_guard(self):
        rules = make_rules([((0, 2), 3)], size=4)
        with pytest.raises(ConfigError):
            brute_force_resolve(rules, tuple([0] * 13))

    def test_agrees_with_chart_on_short_descriptors(self):
        # exhaustive cross-check at small scale; the acceptance suite
        # runs the full 100-rule-set version
        for seed in range(25):
            local = random.Random(seed)
            alpha = generate_alphabet(4, local)
            rules = generate_rules(alpha, local)
            for n in range(2, 6):
                for code in range(4**n):
                    d = tuple((code // 4**i) % 4 for i in range(n))
                    assert resolve_descriptor(rules, d) == brute_force_resolve(rules, d)


def chain_instance(target=3):
    """Two-edge resolution path 0 -> 1 -> 2 resolving via [0,2] => 3."""
    return Instance(
        edges=((0, 0, 1), (1, 2, 2)),
        source=0,
        sink=2,
        target=target,
        resolution_path=(0, 1, 2),
        descriptor=(0, 2),
    )


CHAIN_RULES = make_rules([((0, 2), 3)], size=5)


class TestValidateInstance:
    def test_valid_instance_passes_all_flags(self):
        report = validate_instance(CHAIN_RULES, chain_instance())
        assert report.is_valid
        assert report.resolved == {3}
        assert not report.ambiguous

    def test_corrupted_target(self):
        report = validate_instance(CHAIN_RULES, chain_instance(target=1))
        assert not report.target_hit
        assert not report.is_valid

    def test_shortcut_detected(self):
        rules = make_rules([((0, 2), 3), ((3, 1), 4), ((0, 0), 3)], size=5)
        inst = Instance(
            edges=((0, 0, 1), (1, 2, 2), (2, 1, 3), (0, 3, 2)),
            source=0,
            sink=3,
            target=4,
            resolution_path=(0, 1, 2, 3),
            descriptor=(0, 2, 1),
        )
        report = validate_instance(rules, inst)
        assert not report.shortcut_free  # 0 -> 2 -> 3 is two hops

    def test_descriptor_path_mismatch(self):
        inst = dataclasses.replace(chain_instance(), descriptor=(2, 0))
        report = validate_instance(CHAIN_RULES, inst)
        assert not report.path_consistent
        assert not report.is_valid

    # the path spells the descriptor over the instance's edges, but from a
    # node that is not the query's source, or to one that is not its sink
    @pytest.mark.parametrize(
        "edge, path",
        [((9, 0, 1), (9, 1, 2)), ((1, 2, 7), (0, 1, 7))],
        ids=["off_the_source", "off_the_sink"],
    )
    def test_resolution_path_off_the_query_fails(self, edge, path):
        inst = chain_instance()
        inst = dataclasses.replace(inst, edges=(*inst.edges, edge), resolution_path=path)
        report = validate_instance(CHAIN_RULES, inst)
        assert report.shortcut_free and report.target_hit
        assert not report.path_consistent
        assert not report.is_valid

    def test_first_label_of_a_repeated_pair_may_spell_the_descriptor(self):
        # (0, 1) carries 0, which spells the descriptor, then 1; the path
        # through 1 resolves to nothing, within {target}
        inst = dataclasses.replace(chain_instance(), edges=((0, 0, 1), (0, 1, 1), (1, 2, 2)))
        assert resolve_descriptor(CHAIN_RULES, (1, 2)) == frozenset()
        assert validate_instance(CHAIN_RULES, inst).is_valid

    def test_equal_length_path_resolving_elsewhere(self):
        rules = make_rules([((0, 2), 3), ((1, 1), 4)], size=5)
        inst = Instance(
            edges=((0, 0, 1), (1, 2, 2), (0, 1, 3), (3, 1, 2)),
            source=0,
            sink=2,
            target=3,
            resolution_path=(0, 1, 2),
            descriptor=(0, 2),
        )
        report = validate_instance(rules, inst)
        assert not report.path_consistent

    def test_empty_descriptor_reports_failure_not_error(self):
        inst = dataclasses.replace(chain_instance(), descriptor=())
        report = validate_instance(CHAIN_RULES, inst)
        assert not report.is_valid
        assert report.resolved == frozenset()

    def test_unreachable_sink_reports_shortcut_not_error(self):
        inst = dataclasses.replace(chain_instance(), edges=((0, 0, 1),))
        report = validate_instance(CHAIN_RULES, inst)
        assert not report.shortcut_free
        assert not report.path_consistent
        assert not report.is_valid

    def test_ambiguous_descriptor_flagged(self):
        rules = make_rules(
            [((0, 1), 2), ((1, 3), 4), ((2, 3), 5), ((0, 4), 6)], size=7
        )
        inst = Instance(
            edges=((0, 0, 1), (1, 1, 2), (2, 3, 3)),
            source=0,
            sink=3,
            target=5,
            resolution_path=(0, 1, 2, 3),
            descriptor=(0, 1, 3),
        )
        report = validate_instance(rules, inst)
        assert report.ambiguous
        assert not report.is_valid


@st.composite
def certification_cases(draw):
    """A rule table and an instance that may break any certification check.

    Node ids are drawn from a sparse pool (negative and large ids, not
    dense). The resolution path may revisit nodes (cycles). Detours
    between two path nodes add routes as long as the path span they
    replace, or shorter ones where they reuse nodes (shortcuts); extra
    edges may be self-loops or second labels on a pair already used. The
    query, descriptor and target are sometimes redrawn at random, so the
    sink may be unreachable, too far, or the source itself.
    """
    k = draw(st.integers(2, 4))
    label = st.integers(0, k - 1)
    # a dense, unchecked composition table: most label sequences resolve,
    # some ambiguously, so alternative paths often disagree
    table = [((a, b), draw(st.none() | label)) for a in range(k) for b in range(k)]
    rules = make_rules([(body, head) for body, head in table if head is not None], size=k)
    pool = draw(st.lists(st.integers(-50, 10**6), min_size=3, max_size=10, unique=True))
    node = st.sampled_from(pool)
    path = draw(st.lists(node, min_size=3, max_size=6, unique=draw(st.booleans())))
    descriptor = tuple(draw(label) for _ in path[1:])
    edges = [(u, r, v) for (u, v), r in zip(zip(path, path[1:]), descriptor)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(path) - 2))
        j = draw(st.integers(i + 1, len(path) - 1))
        route = [path[i], *(draw(node) for _ in range(i + 1, j)), path[j]]
        edges += [(u, draw(label), v) for u, v in zip(route, route[1:])]
    edges += draw(st.lists(st.tuples(node, label, node), max_size=3))
    edges += [(u, draw(label), v) for u, _, v in draw(st.lists(st.sampled_from(edges), max_size=2))]
    edges = draw(st.permutations(edges))
    source, sink = path[0], path[-1]
    redraw = draw(st.sampled_from(["nothing", "query", "descriptor"]))
    if redraw == "query":
        source, sink = draw(node), draw(node)
    elif redraw == "descriptor":
        descriptor = tuple(draw(st.lists(label, min_size=1, max_size=3)))
    resolved = sorted(resolve_descriptor(rules, descriptor))
    target = draw(st.sampled_from(resolved) if resolved and draw(st.booleans()) else label)
    inst = Instance(
        edges=tuple(edges),
        source=source,
        sink=sink,
        target=target,
        resolution_path=tuple(path),
        descriptor=descriptor,
    )
    return rules, inst


class TestValidateInstanceReference:
    @settings(max_examples=500, deadline=None)
    @given(certification_cases())
    @example((CHAIN_RULES, dataclasses.replace(chain_instance(), descriptor=())))
    def test_certifier_reports_as_the_recursive_reference(self, case):
        rules, inst = case
        assert validate_instance(rules, inst) == reference_validate_instance(rules, inst)

    def test_cases_reach_every_branch(self):
        # shortcut-free instances, shortcuts and instances without a path
        # of |descriptor| edges each decide some of a fixed sample of the
        # strategy's cases, and some resolution paths spell the descriptor
        # over the instance's edges but start or end off the query
        seen = set()

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(certification_cases())
        def classify(case):
            rules, inst = case
            _, rev = instance_adjacency(inst.edges)
            distance = _distances_to(rev, inst.sink).get(inst.source)
            n = len(inst.descriptor)
            report = validate_instance(rules, inst)
            if distance is None:
                seen.add("unreachable")
            elif distance > n:
                seen.add("longer")
            elif distance < n:
                seen.add("shortcut")
            elif report.path_consistent:
                seen.add("shortcut-free consistent")
            else:
                seen.add("shortcut-free inconsistent")
            if inst.source == inst.sink:
                seen.add("source is sink")
            if any(u == v for u, _, v in inst.edges):
                seen.add("self-loop")
            if len({(u, v) for u, _, v in inst.edges}) < len(set(inst.edges)):
                seen.add("pair with two labels")
            path = inst.resolution_path
            steps = zip(path, inst.descriptor, path[1:])
            if len(path) == n + 1 and all(edge in inst.edges for edge in steps):
                if (path[0], path[-1]) != (inst.source, inst.sink):
                    seen.add("path spelled off the query")

        classify()
        assert seen == {
            "unreachable", "longer", "shortcut", "shortcut-free consistent",
            "shortcut-free inconsistent", "source is sink", "self-loop", "pair with two labels",
            "path spelled off the query",
        }


def reference_candidates(rules, inst, max_len) -> set:
    """Every relation some simple source->sink path of at most ``max_len``
    edges resolves to, by the recursive walk and the brute-force resolver."""
    resolved = set()
    for labels, _ in reference_simple_path_labels(inst.edges, inst.source, inst.sink, max_len):
        resolved |= brute_force_resolve(rules, labels)
    return resolved


class TestSolveInstanceReference:
    @settings(max_examples=400, deadline=None)
    @given(certification_cases(), st.integers(1, 6))
    def test_prediction_is_the_least_relation_a_bounded_path_resolves_to(self, case, max_len):
        rules, inst = case
        resolved = reference_candidates(rules, inst, max_len)
        assert solve_instance(rules, inst, max_len) == (min(resolved) if resolved else None)

    def test_cases_reach_every_outcome(self):
        # no candidate, one, a tie broken toward the least id, and a bound
        # that cuts off a candidate some longer path gives
        seen = set()

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(certification_cases(), st.integers(1, 6))
        def classify(case, max_len):
            rules, inst = case
            resolved = reference_candidates(rules, inst, max_len)
            seen.add(("none", "one")[len(resolved)] if len(resolved) < 2 else "tie")
            if reference_candidates(rules, inst, 6) - resolved:
                seen.add("cut by the bound")

        classify()
        assert seen == {"none", "one", "tie", "cut by the bound"}


def single_world_dataset(instances) -> WorldDataset:
    return WorldDataset(
        world_id=0,
        instances={"train": list(instances), "valid": [], "test": []},
        max_walk_len=10,
    )


class TestBaselineSolver:
    def test_perfect_on_valid_instances(self):
        ds = single_world_dataset([chain_instance() for _ in range(10)])
        assert symbolic_baseline_solve(CHAIN_RULES, ds) == 1.0

    def test_one_corrupted_target(self):
        good = [chain_instance() for _ in range(99)]
        ds = single_world_dataset(good + [chain_instance(target=1)])
        assert symbolic_baseline_solve(CHAIN_RULES, ds) == pytest.approx(0.99)

    def test_empty_dataset_undefined(self):
        assert symbolic_baseline_solve(CHAIN_RULES, single_world_dataset([])) is None


@st.composite
def walk_queries(draw):
    """A labelled digraph of up to 7 nodes with a source, sink and length bound."""
    nodes = st.integers(0, draw(st.integers(1, 6)))
    edges = draw(st.lists(st.tuples(nodes, st.integers(0, 2), nodes), unique=True, max_size=30))
    max_len = draw(st.integers(1, 7))
    return edges, draw(nodes), draw(nodes), max_len


class TestGraphHelpers:
    def test_shortest_distance(self):
        _, rev = instance_adjacency([(0, 0, 1), (1, 0, 2), (0, 5, 2)])
        assert shortest_distance(rev, 0, 2) == 1
        assert shortest_distance(rev, 2, 0) is None
        assert shortest_distance(rev, 2, 2) == 0

    def test_given_distance_table_yields_the_same_paths(self):
        edges = [(0, 0, 1), (1, 1, 2), (0, 2, 3), (3, 3, 2), (1, 4, 3), (2, 5, 4)]
        adj, rev = instance_adjacency(edges)
        for max_len in (4, 3, 2):
            reference = list(reference_simple_path_labels(edges, 0, 2, max_len))
            given = [
                (labels, tuple(nodes))  # the walk's live node list, copied
                for labels, nodes in iter_simple_path_labels(
                    adj, 0, 2, max_len, to_sink=_distances_to(rev, 2)
                )
            ]
            assert reference == given and reference

    @settings(max_examples=300, deadline=None)
    @given(walk_queries())
    @example(([(0, 0, 1), (1, 0, 2)], 0, 2, 1))  # the one path is longer than max_len
    def test_iterative_walk_matches_recursive_reference(self, query):
        edges, source, sink, max_len = query
        # successor lists in the reference's (node, label) order
        adj, rev = instance_adjacency(sorted(edges, key=lambda e: (e[0], e[2], e[1])))
        walked = [
            (labels, tuple(nodes))  # the walk's live node list, copied
            for labels, nodes in iter_simple_path_labels(
                adj, source, sink, max_len, to_sink=_distances_to(rev, sink)
            )
        ]
        assert walked == list(reference_simple_path_labels(edges, source, sink, max_len))
