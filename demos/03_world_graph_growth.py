"""WorldGraph generation by recursive rule expansion.

Grows the labeled graph that governs one world, reads its growth
steps back off the edge order, which prove every edge derivable, and
runs the logical closure check.

Run: python demos/03_world_graph_growth.py
"""

import random
from collections import Counter

from logicworlds import (
    GenConfig,
    closure_check,
    generate_alphabet,
    generate_rules,
    generate_world_graph,
    growth_steps,
    rule_usage,
)

rng = random.Random(3)
alphabet = generate_alphabet(10, rng)
rules = generate_rules(alphabet, rng)

# the full rule set acts as one world here (more rules than a usual
# sliding-window world), so one coverage cycle over a generous pool
cfg = GenConfig(node_pool=400, cycles=1, max_expansions=5)
graph = generate_world_graph(rules, cfg, rng)
print(f"world graph: {graph.node_count} nodes, {len(graph.edges)} edges")

# Growth numbers each node as it makes it and never removes or relabels
# an edge, so the edge order records every fresh seed and every
# expansion; a loaded world_graph.json gives the same steps.
steps = list(growth_steps(graph))
print(f"growth steps: {dict(Counter(step[0] for step in steps))}")

# Expansion rewrites an edge (u, r_t, v) into (u, r_i, y), (y, r_j, v)
# for a rule [r_i, r_j] => r_t; here is the first rewrite performed.
first = next(step for step in steps if step[0] == "expand")
_, u, r_i, r_j, v, y = first
print(f"\nfirst expansion: ({u}, ?, {v}) rewritten through fresh node {y}")
print(f"  added ({u}, {r_i}, {y}) and ({y}, {r_j}, {v})")

# Rule-selection weights decay with use, so a generation cycle only
# completes once every rule of the world has fired.
usage = rule_usage(graph, rules)
print(f"\nrule usage: min {min(usage.values())}, max {max(usage.values())}")
assert min(usage.values()) >= cfg.cycles

# Forward chaining the rules over the graph must never contradict an
# edge label; the generator refuses expansions that would. Edgeless
# pairs may still derive several labels (the rule grammar is not
# confluent); they are reported for monitoring but queries are always
# edge pairs, so they never make an instance ambiguous.
diagnostics = closure_check(graph, rules)
conflicts = [d for d in diagnostics if d.kind == "edge-conflict"]
ambiguous = [d for d in diagnostics if d.kind == "derivation-ambiguity"]
print(f"closure: {len(conflicts)} edge conflicts, "
      f"{len(ambiguous)} ambiguous edgeless pairs")
assert not conflicts
if ambiguous:
    print(f"  e.g. {ambiguous[0].detail}")
