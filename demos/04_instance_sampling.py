"""Query instances: descriptors, noise, shortcut removal, certification.

Samples one relation-prediction instance from a world graph and walks
through its anatomy: the resolution path, the descriptor that resolves
it, the BFS noise neighborhood, and the symbolic validation report.

Run: python demos/04_instance_sampling.py
"""

import random

from logicworlds import (
    GenConfig,
    build_dataset,
    collect_descriptors,
    generate_alphabet,
    generate_rules,
    generate_world_graph,
    resolve_descriptor,
    sample_instance,
    validate_instance,
)
from logicworlds.sampler import incident_adjacency

rng = random.Random(11)
alphabet = generate_alphabet(10, rng)
rules = generate_rules(alphabet, rng)
cfg = GenConfig(node_pool=150, graphs_per_split=(30, 8, 8))
graph = generate_world_graph(rules, cfg, rng)

# Every edge (u, r, v) paired with an alternate walk u -> ... -> v of
# length 2..e gives a (edge, descriptor) candidate. The descriptor is
# the walk's label sequence.
collection = collect_descriptors(graph, cfg.max_walk_len)
print(f"{len(collection.pairs)} (edge, descriptor) pairs "
      f"({len(collection.distinct_descriptors())} distinct descriptors)")

pair = collection.pairs[0]
print(f"\nedge {pair.edge}: descriptor {list(pair.descriptor)} along path {list(pair.path)}")
print(f"descriptor resolves to {set(resolve_descriptor(rules, pair.descriptor))}")

# One instance: the resolution path embedded in a noisy neighborhood.
# The direct query edge is removed and no remaining path may be shorter
# than the resolution path.
inst = sample_instance(graph, pair, cfg, random.Random(0), incident_adjacency(graph))
print(f"\ninstance: {inst.node_count} nodes, {len(inst.edges)} edges")
print(f"query: ({inst.source}) -?-> ({inst.sink}), target relation {inst.target}")
print(f"resolution path: {list(inst.resolution_path)}")

report = validate_instance(rules, inst)
print(f"\nvalidation: target_hit={report.target_hit} ambiguous={report.ambiguous} "
      f"shortcut_free={report.shortcut_free} path_consistent={report.path_consistent}")
assert report.is_valid

# A full per-world dataset: descriptors are split train/valid/test
# first (the inductive split), then instances are sampled per split and
# certified one by one.
ds = build_dataset(graph, rules, cfg, random.Random(1))
print(f"\ndataset: " + ", ".join(f"{k}={len(v)}" for k, v in ds.instances.items()))
train = {i.descriptor for i in ds.instances["train"]}
test = {i.descriptor for i in ds.instances["test"]}
print(f"train/test descriptor overlap: {len(train & test)} (inductive split)")
