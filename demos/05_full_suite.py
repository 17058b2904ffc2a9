"""End to end: generate a benchmark suite, certify it, solve it.

Produces a small suite on disk, inspects the manifest, re-validates
every instance with the symbolic oracle, and runs the baseline solver
(which must score 1.0 on a sound suite).

Run: python demos/05_full_suite.py [out_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

from logicworlds import (
    GenConfig,
    SuiteConfig,
    read_suite,
    symbolic_baseline_solve,
    validate_instance,
)
from logicworlds.suite import generate_suite_to_disk, plan_suite, select_worlds

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp()) / "suite"

config = SuiteConfig(
    seed=2026,
    num_relations=10,
    rules_per_world=8,
    stride=4,
    valid_worlds=1,
    test_worlds=1,
    gen=GenConfig(node_pool=150, graphs_per_split=(40, 10, 10)),
)
generate_suite_to_disk(plan_suite(config), out, workers=2)
print(f"suite written to {out}")

manifest = json.loads((out / "manifest.json").read_text())
print(f"\nmaster rules: {len(manifest['rules']['rules'])}")
print(f"worlds: {len(manifest['worlds'])} "
      f"({sum(1 for w in manifest['worlds'] if w['split'] == 'train')} train)")
print(f"protocol orderings: {list(manifest['protocols'])}")

# Reload and certify: every instance must resolve to its target,
# unambiguously, with no shortcut. The baseline solver then recovers
# every target by enumerating and resolving paths, so accuracy is 1.0.
suite = read_suite(out)
for world_id, rules, _ in select_worlds(suite, None):
    ds = suite.datasets[world_id]
    reports = [validate_instance(rules, inst) for inst in ds.all_instances()]
    accuracy = symbolic_baseline_solve(rules, ds)
    print(f"rule_{world_id}: {sum(r.is_valid for r in reports)}/{len(reports)} valid, "
          f"solver accuracy {accuracy:.3f}")

stats = json.loads((out / "rule_0" / "stats.json").read_text())
print(f"\nrule_0 stats: NC={stats['num_classes']} ND={stats['num_descriptors']} "
      f"ARL={stats['avg_resolution_length']} AN={stats['avg_nodes']} AE={stats['avg_edges']}")
