"""Overlapping rule partitions and inter-world similarity.

Splits a master rule set into sliding-window worlds, computes the
similarity (rule overlap) structure, and orders worlds for curriculum
style training.

Run: python demos/02_worlds_and_similarity.py
"""

import random

from logicworlds import (
    generate_alphabet,
    generate_rules,
    order_curriculum,
    partition_rules,
    select_worlds_by_similarity,
    similarity,
    similarity_matrix,
)

rng = random.Random(7)
alphabet = generate_alphabet(12, rng)
master = generate_rules(alphabet, rng)
print(f"master rule set: {len(master)} rules")

# Windows of width w at stride s over a seeded permutation of the
# master list. Consecutive worlds overlap in exactly w - s rules.
w, s = 12, 4
_, worlds = partition_rules(master, w, s, rng)
print(f"w={w}, s={s} -> {len(worlds)} worlds")

sims = similarity_matrix(worlds)
print("\nsimilarity matrix (rule overlap counts):")
for row in sims:
    print(" ".join(f"{overlap:2d}" for overlap in row))

target = worlds[0]
pool = worlds[1:]
closest = select_worlds_by_similarity(target, pool, 2, "most-similar")
farthest = select_worlds_by_similarity(target, pool, 2, "least-similar")
print(f"\nworlds most similar to world 0: {[x.world_id for x in closest]}")
print(f"worlds least similar to world 0: {[x.world_id for x in farthest]}")
print(f"overlap with nearest neighbor: {similarity(target, closest[0])} rules")

# Curriculum ordering: easiest first, where difficulty is given by a
# per-world solver accuracy score (higher accuracy = easier).
scores = {world.world_id: rng.uniform(0.3, 0.9) for world in worlds}
ordered = order_curriculum(worlds, scores)
print("\ncurriculum order (easy -> hard):")
for world in ordered:
    print(f"  world {world.world_id}: accuracy {scores[world.world_id]:.3f}")
