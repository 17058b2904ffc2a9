"""Overlapping rule partitions: worlds, similarity, orderings.

The master rule list is permuted once (seeded), then sliding windows of
width ``w`` at stride ``s`` define the worlds. Window membership is
recorded as indices into the permuted list, so consecutive worlds are
literally consecutive index ranges and similarity reduces to index
overlap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError
from .rules import RuleSet, select_rules


@dataclass(frozen=True)
class WorldSpec:
    world_id: int
    rule_indices: tuple[int, ...]


def partition_rules(
    rules: RuleSet, w: int, s: int, rng: random.Random
) -> tuple[RuleSet, list[WorldSpec]]:
    """Permute the master list, then take windows [i, i+w) for i = 0, s, 2s, ...

    Returns the permuted master rules and the worlds of :func:`rule_windows`,
    whose ``rule_indices`` index them.
    """
    worlds = rule_windows(len(rules), w, s)
    order = list(range(len(rules)))
    rng.shuffle(order)
    return select_rules(rules, order), worlds


def rule_windows(n: int, w: int, s: int) -> list[WorldSpec]:
    """The worlds over ``n`` permuted rules: windows [i, i+w) for i = 0, s, 2s, ...

    The last window start is the inclusive bound ``n - w``, so there are
    ``(n - w) // s + 1`` worlds, with world ids 0, 1, 2, ...
    """
    if not 0 < w <= n:
        raise ConfigError(f"rules per world w={w} must satisfy 0 < w <= {n}")
    if s <= 0:
        raise ConfigError(f"stride s={s} must be positive")
    return [
        WorldSpec(world_id=wid, rule_indices=tuple(range(start, start + w)))
        for wid, start in enumerate(range(0, n - w + 1, s))
    ]


def similarity(a: WorldSpec, b: WorldSpec) -> int:
    """Rule overlap |R^a ∩ R^b| between two worlds of one partition."""
    return len(set(a.rule_indices) & set(b.rule_indices))


def similarity_matrix(worlds: list[WorldSpec]) -> list[list[int]]:
    """Symmetric overlap-count matrix as rows, diagonal = rules per world.

    Each world's rule set is a bit mask, so an overlap is one ``&`` and a
    bit count rather than a set intersection.
    """
    masks = [sum(1 << i for i in set(w.rule_indices)) for w in worlds]
    n = len(masks)
    sims = [[0] * n for _ in range(n)]
    for i, a in enumerate(masks):
        for j in range(i, n):
            sims[i][j] = sims[j][i] = (a & masks[j]).bit_count()
    return sims


def select_worlds_by_similarity(
    target: WorldSpec, pool: list[WorldSpec], k: int, mode: str
) -> list[WorldSpec]:
    """Pick k worlds ranked by similarity to the target.

    ``most-similar`` ranks descending, ``least-similar`` ascending, and
    ``mixed`` interleaves the two ranked ends (most first). Ties break
    by ascending world_id.
    """
    if not 0 <= k <= len(pool):
        raise ConfigError(f"cannot select k={k} worlds from a pool of {len(pool)}")
    most = sorted(pool, key=lambda w: (-similarity(target, w), w.world_id))
    if mode == "most-similar":
        return most[:k]
    least = sorted(pool, key=lambda w: (similarity(target, w), w.world_id))
    if mode == "least-similar":
        return least[:k]
    if mode != "mixed":
        raise ConfigError(f"unknown selection mode {mode!r}")
    picked: list[WorldSpec] = []
    taken: set[int] = set()
    for pair in zip(most, least):
        for world in pair:
            if len(picked) == k:
                return picked
            if world.world_id not in taken:
                taken.add(world.world_id)
                picked.append(world)
    return picked


def order_curriculum(
    worlds: list[WorldSpec], scores: dict[int, float]
) -> list[WorldSpec]:
    """Ascending difficulty = descending accuracy in [0, 1]; ties by world_id."""
    missing = [w.world_id for w in worlds if w.world_id not in scores]
    if missing:
        raise ConfigError(f"missing scores for worlds {missing}")
    for w in worlds:
        score = scores[w.world_id]
        if not isinstance(score, (int, float)) or not 0 <= score <= 1:  # NaN fails too
            raise ConfigError(f"world {w.world_id}: score {score!r} is not a number in [0, 1]")
    return sorted(worlds, key=lambda w: (-scores[w.world_id], w.world_id))
