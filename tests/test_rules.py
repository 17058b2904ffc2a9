import hashlib
import json
import random
import warnings

import pytest

from logicworlds.errors import ConfigError
from logicworlds.rules import (
    BinaryRule,
    RelationAlphabet,
    check_consistency,
    compose,
    generate_alphabet,
    generate_rules,
    invert_rule,
    ruleset_to_dict,
)

from conftest import identity_alphabet, make_rules


class TestGenerateAlphabet:
    def test_half_symmetric_split_k20(self, rng):
        alpha = generate_alphabet(20, rng)
        symmetric = [r for r in range(20) if alpha.is_symmetric(r)]
        assert len(symmetric) == 10
        pairs = {tuple(sorted((r, alpha.inverse[r]))) for r in range(20) if not alpha.is_symmetric(r)}
        assert len(pairs) == 5

    def test_all_symmetric_is_identity(self, rng):
        alpha = generate_alphabet(2, rng, symmetric_fraction=1.0)
        assert alpha.inverse == (0, 1)

    def test_involution_brute_force_k4(self, rng):
        alpha = generate_alphabet(4, rng)
        for r in range(4):
            assert alpha.inverse[alpha.inverse[r]] == r
        assert sum(alpha.is_symmetric(r) for r in range(4)) == 2

    def test_odd_remainder_becomes_symmetric(self, rng):
        alpha = generate_alphabet(5, rng, symmetric_fraction=0.0)
        # 5 relations cannot pair fully: exactly one forced symmetric
        assert sum(alpha.is_symmetric(r) for r in range(5)) == 1

    def test_too_small_rejected(self, rng):
        with pytest.raises(ConfigError):
            generate_alphabet(1, rng)

    def test_involution_many_seeds(self):
        for seed in range(50):
            local = random.Random(seed)
            k = local.randrange(2, 30)
            alpha = generate_alphabet(k, local, local.choice((0.0, 0.3, 0.5, 1.0)))
            for r in range(k):
                assert alpha.inverse[alpha.inverse[r]] == r
                assert alpha.is_symmetric(r) == (alpha.inverse[r] == r)


class TestInvertRule:
    def test_mixed_alphabet_example(self):
        alpha = RelationAlphabet(size=4, inverse=(1, 0, 2, 3))
        rule = BinaryRule(body=(0, 2), head=3)
        assert invert_rule(rule, alpha) == BinaryRule(body=(2, 1), head=3)

    def test_all_symmetric_only_flips_order(self):
        alpha = identity_alphabet(4)
        rule = BinaryRule(body=(2, 3), head=0)
        assert invert_rule(rule, alpha) == BinaryRule(body=(3, 2), head=0)

    def test_involution_on_random_rules(self, rng):
        for _ in range(200):
            alpha = generate_alphabet(rng.randrange(2, 12), rng)
            k = alpha.size
            rule = BinaryRule(
                body=(rng.randrange(k), rng.randrange(k)), head=rng.randrange(k)
            )
            assert invert_rule(invert_rule(rule, alpha), alpha) == rule


class TestGenerateRules:
    def test_k20_count_and_consistency(self):
        for seed in range(5):
            local = random.Random(seed)
            alpha = generate_alphabet(20, local)
            rules = generate_rules(alpha, local)
            assert 40 <= len(rules) <= 200
            assert check_consistency(rules) == []

    def test_closed_under_inversion(self, rng):
        alpha = generate_alphabet(12, rng)
        rules = generate_rules(alpha, rng)
        present = {(r.body, r.head) for r in rules.rules}
        for rule in rules.rules:
            inv = invert_rule(rule, rules.alphabet)
            assert (inv.body, inv.head) in present

    def test_self_conflicting_pair_never_coexists(self):
        # inverse 0<->1 with 3 symmetric: [3,3]=>0 and [3,3]=>1 invert
        # into each other on the same body, so at most one can survive
        for seed in range(30):
            local = random.Random(seed)
            alpha = RelationAlphabet(size=4, inverse=(1, 0, 2, 3))
            rules = generate_rules(alpha, local)
            hits = [r for r in rules.rules if r.body == (3, 3) and r.head in (0, 1)]
            assert len(hits) <= 1
            assert check_consistency(rules) == []

    def test_small_alphabet_may_be_empty_with_warning(self):
        alpha = RelationAlphabet(size=2, inverse=(1, 0))
        with pytest.warns(UserWarning, match="empty rule set"):
            rules = generate_rules(alpha, random.Random(0))
        assert len(rules) == 0

    def test_rule_sets_over_many_alphabets_are_pinned(self):
        # K = 2..24 x seeds 0..2 x symmetric fractions 0, 1/2, 1, and
        # K = 32, 48, 64 once: 210 rule sets, one digest
        cases = [(K, s, f) for K in range(2, 25) for s in range(3) for f in (0.0, 0.5, 1.0)]
        cases += [(32, 0, 0.5), (48, 0, 0.5), (64, 0, 0.5)]
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some small alphabets yield no rules
            for K, seed, fraction in cases:
                alpha = generate_alphabet(K, random.Random(seed), fraction)
                rules = generate_rules(alpha, random.Random(seed))
                digest.update(json.dumps(ruleset_to_dict(rules), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "2f75e8616c2da248b93cc29c0ce283a863075529f43630f9c9ee77348ee0a93f"
        )

    def test_dependency_digraph_acyclic(self, rng):
        alpha = generate_alphabet(10, rng)
        rules = generate_rules(alpha, rng)
        order = {}
        remaining = {r: set() for r in range(10)}
        for rule in rules.rules:
            for a, b in rule.arcs():
                remaining[b].add(a)
        # Kahn: repeatedly peel nodes with no unresolved predecessors
        while remaining:
            free = [n for n, deps in remaining.items() if not deps]
            assert free, "cycle in dependency digraph"
            for n in free:
                order[n] = len(order)
                del remaining[n]
            for deps in remaining.values():
                deps.difference_update(free)


class TestCheckConsistency:
    def test_duplicate_body(self):
        rules = make_rules([((0, 2), 3), ((0, 2), 1)], size=4)
        kinds = [d.kind for d in check_consistency(rules)]
        assert kinds.count("duplicate-body") == 1

    def test_head_in_body(self):
        rules = make_rules([((0, 3), 3)], size=4)
        kinds = [d.kind for d in check_consistency(rules)]
        assert kinds.count("head-in-body") == 1

    def test_missing_inverse(self):
        alpha = RelationAlphabet(size=4, inverse=(1, 0, 2, 3))
        rules = make_rules([((2, 3), 0)], alphabet=alpha)
        kinds = [d.kind for d in check_consistency(rules)]
        # inverse would be [3,2] => 1, absent
        assert kinds.count("missing-inverse") == 1

    def test_dependency_cycle(self):
        rules = make_rules(
            [((0, 1), 2), ((1, 0), 2), ((2, 3), 0), ((3, 2), 0)], size=4
        )
        kinds = [d.kind for d in check_consistency(rules)]
        assert kinds.count("dependency-cycle") == 1
        assert "duplicate-body" not in kinds

    def test_generated_rules_clean(self, rng):
        alpha = generate_alphabet(14, rng)
        assert check_consistency(generate_rules(alpha, rng)) == []


class TestCompose:
    def test_lookup(self):
        rules = make_rules([((0, 2), 3)], size=4)
        assert compose(rules, 0, 2) == 3

    def test_body_order_matters(self):
        rules = make_rules([((0, 2), 3)], size=4)
        assert compose(rules, 2, 0) is None

    def test_partial_function_over_many_rule_sets(self):
        # brute-force: no ordered body may map to two heads
        for seed in range(1000):
            local = random.Random(seed)
            alpha = generate_alphabet(5, local)
            rules = generate_rules(alpha, local)
            seen = {}
            for rule in rules.rules:
                assert seen.setdefault(rule.body, rule.head) == rule.head


class TestSerialization:
    def test_round_trip(self, rng):
        alpha = generate_alphabet(9, rng)
        rules = generate_rules(alpha, rng)
        doc = ruleset_to_dict(rules)
        assert set(doc) == {"K", "inverse", "rules"}
        assert all(set(r) == {"body", "head"} for r in doc["rules"])
        # readers compare rules.json with this document; none parses it back
        assert (doc["K"], doc["inverse"]) == (alpha.size, list(alpha.inverse))
        assert [(tuple(r["body"]), r["head"]) for r in doc["rules"]] == [
            (rule.body, rule.head) for rule in rules.rules
        ]
