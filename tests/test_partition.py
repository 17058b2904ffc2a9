import random

import pytest

from logicworlds.errors import ConfigError
from logicworlds.rules import select_rules
from logicworlds.partition import (
    WorldSpec,
    order_curriculum,
    partition_rules,
    select_worlds_by_similarity,
    similarity,
    similarity_matrix,
)

from conftest import make_rules


def n_dummy_rules(n: int, k: int = 40):
    """n rules with distinct bodies; partitioning only needs the count."""
    triples = []
    for i in range(n):
        a, b = divmod(i, k)
        triples.append(((a, b), (a + b + 1) % k))
    return make_rules(triples, size=k)


class TestPartitionRules:
    def test_76_rules_w20_s1_gives_57_worlds(self, rng):
        _, worlds = partition_rules(n_dummy_rules(76), 20, 1, rng)
        assert len(worlds) == 57

    def test_single_full_window(self, rng):
        _, worlds = partition_rules(n_dummy_rules(5), 5, 1, rng)
        assert len(worlds) == 1
        assert worlds[0].rule_indices == tuple(range(5))

    def test_stride_two_windows(self, rng):
        _, worlds = partition_rules(n_dummy_rules(10), 4, 2, rng)
        starts = [w.rule_indices[0] for w in worlds]
        assert starts == [0, 2, 4, 6]

    def test_world_count_formula(self):
        local = random.Random(0)
        for _ in range(100):
            n = local.randrange(1, 60)
            w = local.randrange(1, n + 1)
            s = local.randrange(1, 8)
            _, worlds = partition_rules(n_dummy_rules(n), w, s, random.Random(1))
            assert len(worlds) == (n - w) // s + 1

    def test_windows_are_consecutive_index_ranges(self, rng):
        rules, worlds = partition_rules(n_dummy_rules(30), 7, 3, rng)
        for world in worlds:
            idx = world.rule_indices
            assert idx == tuple(range(idx[0], idx[0] + 7))
            assert len(select_rules(rules, world.rule_indices).rules) == 7

    def test_permutation_is_seeded(self):
        rules = n_dummy_rules(30)
        a, _ = partition_rules(rules, 5, 5, random.Random(1))
        b, _ = partition_rules(rules, 5, 5, random.Random(1))
        c, _ = partition_rules(rules, 5, 5, random.Random(2))
        assert a.rules == b.rules
        assert a.rules != c.rules
        assert sorted(a.rules, key=repr) == sorted(c.rules, key=repr)

    def test_invalid_configurations(self, rng):
        with pytest.raises(ConfigError):
            partition_rules(n_dummy_rules(5), 6, 1, rng)
        with pytest.raises(ConfigError):
            partition_rules(n_dummy_rules(5), 2, 0, rng)


class TestSimilarity:
    def test_self_overlap_is_w(self):
        world = WorldSpec(0, tuple(range(10, 30)))
        assert similarity(world, world) == 20

    def test_disjoint_zero(self):
        assert similarity(WorldSpec(0, (0, 1)), WorldSpec(1, (5, 6))) == 0

    def test_consecutive_stride1_windows_overlap_19(self, rng):
        _, worlds = partition_rules(n_dummy_rules(76), 20, 1, rng)
        for a, b in zip(worlds, worlds[1:]):
            assert similarity(a, b) == 19

    def test_window_overlap_formula(self, rng):
        w, s = 6, 2
        _, worlds = partition_rules(n_dummy_rules(40), w, s, rng)
        for a in worlds:
            for b in worlds:
                expected = max(0, w - s * abs(a.world_id - b.world_id))
                assert similarity(a, b) == expected

    def test_matrix_symmetric_with_w_diagonal(self, rng):
        _, worlds = partition_rules(n_dummy_rules(25), 8, 4, rng)
        mat = similarity_matrix(worlds)
        assert mat == [[similarity(a, b) for b in worlds] for a in worlds]
        assert mat == [list(column) for column in zip(*mat)]
        assert [row[i] for i, row in enumerate(mat)] == [8] * len(worlds)


class TestSelectWorlds:
    def setup_method(self):
        _, self.worlds = partition_rules(n_dummy_rules(30), 10, 2, random.Random(3))

    def test_full_pool_is_permutation(self):
        target = self.worlds[0]
        pool = self.worlds[1:]
        for mode in ("most-similar", "least-similar", "mixed"):
            picked = select_worlds_by_similarity(target, pool, len(pool), mode)
            assert sorted(w.world_id for w in picked) == sorted(
                w.world_id for w in pool
            )

    def test_most_similar_is_adjacent_window(self):
        target = self.worlds[3]
        pool = [w for w in self.worlds if w.world_id != 3]
        picked = select_worlds_by_similarity(target, pool, 1, "most-similar")
        assert picked[0].world_id in (2, 4)

    def test_least_similar_prefers_disjoint(self):
        target = self.worlds[0]
        pool = [w for w in self.worlds if w.world_id != 0]
        picked = select_worlds_by_similarity(target, pool, 1, "least-similar")
        assert similarity(target, picked[0]) == 0

    def test_mixed_interleaves_ends(self):
        target = self.worlds[0]
        pool = [w for w in self.worlds if w.world_id != 0]
        picked = select_worlds_by_similarity(target, pool, 4, "mixed")
        sims = [similarity(target, w) for w in picked]
        assert sims[0] == max(sims) and sims[1] == min(sims)
        assert len({w.world_id for w in picked}) == 4

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            select_worlds_by_similarity(self.worlds[0], self.worlds[:2], 3, "mixed")


class TestOrderCurriculum:
    def test_descending_accuracy(self):
        worlds = [WorldSpec(i, (i,)) for i in range(3)]
        scores = {0: 0.9, 1: 0.5, 2: 0.7}
        assert [w.world_id for w in order_curriculum(worlds, scores)] == [0, 2, 1]

    def test_ties_break_by_world_id(self):
        worlds = [WorldSpec(i, (i,)) for i in (4, 2, 7)]
        ordered = order_curriculum(worlds, {4: 0.5, 2: 0.5, 7: 0.5})
        assert [w.world_id for w in ordered] == [2, 4, 7]

    def test_anchor_scores_order(self):
        worlds = [WorldSpec(i, (i,)) for i in (0, 9, 54)]
        scores = {9: 0.758, 54: 0.638, 0: 0.481}
        assert [w.world_id for w in order_curriculum(worlds, scores)] == [9, 54, 0]

    def test_missing_score_rejected(self):
        with pytest.raises(ConfigError):
            order_curriculum([WorldSpec(0, (0,))], {})
