"""Output checks for a generated suite, written without the program's code.

Everything here reads the suite tree with plain ``json`` and recomputes
the properties the suite promises from first principles: split sizes,
inductive split disjointness, resolution paths, query distance, CYK
resolution over each world's rules, per-world statistics, the partition
arithmetic, the similarity matrix and the master rule invariants. It
imports nothing from ``logicworlds``, so a fault in the program cannot
hide itself by also breaking the check.

Run it on a suite directory with ``python3 perfbench/checker.py SUITE``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import deque
from pathlib import Path

SPLITS = ("train", "valid", "test")
STATS_TOLERANCE = 1e-6


class SuiteCheck:
    """Collects failures while checking one suite tree."""

    def __init__(self, root: Path, max_errors: int = 20) -> None:
        self.root = Path(root)
        self.errors: list[str] = []
        self.max_errors = max_errors
        self.instances = 0
        self.world_ids: list[int] = []
        self.manifest_worlds = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < self.max_errors:
            self.errors.append(message)

    def run(self) -> "SuiteCheck":
        manifest = json.loads((self.root / "manifest.json").read_text())
        config = manifest["config"]
        master = manifest["rules"]
        self._check_master_rules(master)
        self._check_partition(manifest, config, len(master["rules"]))
        self.manifest_worlds = len(manifest["worlds"])
        for world in manifest["worlds"]:
            self._check_world(world, master, config)
        return self

    def _check_master_rules(self, master: dict) -> None:
        inverse = master["inverse"]
        if len(inverse) != master["K"] or any(
            not 0 <= inverse[r] < master["K"] or inverse[inverse[r]] != r
            for r in range(len(inverse))
        ):
            self.fail("manifest: inverse is not an involution over the alphabet")
            return
        heads: dict[tuple[int, int], int] = {}
        for rule in master["rules"]:
            body = tuple(rule["body"])
            if body in heads:
                self.fail(f"manifest: rule body {list(body)} is not unique")
            heads[body] = rule["head"]
            if rule["head"] in body:
                self.fail(f"manifest: rule {list(body)} => {rule['head']} has its head in its body")
        for (a, b), h in heads.items():
            if heads.get((inverse[b], inverse[a])) != inverse[h]:
                self.fail(f"manifest: rule {[a, b]} => {h} has no inverse rule")

    def _check_partition(self, manifest: dict, config: dict, n_rules: int) -> None:
        w, s = config["rules_per_world"], config["stride"]
        worlds = manifest["worlds"]
        expected = (n_rules - w) // s + 1
        if len(worlds) != expected:
            self.fail(f"manifest: {len(worlds)} worlds, expected (R - w) // s + 1 = {expected}")
        for pos, world in enumerate(worlds):
            if world.get("world_id") != pos:
                self.fail(f"manifest: world at position {pos} has id {world.get('world_id')}")
            if world.get("rule_indices") != list(range(pos * s, pos * s + w)):
                self.fail(f"manifest: world {pos} is not the index window [{pos * s}, {pos * s + w})")
        similarity = manifest["similarity"]
        n = len(worlds)
        if len(similarity) != n or any(len(row) != n for row in similarity):
            self.fail(f"manifest: similarity matrix is not {n} x {n}")
            return
        for i in range(n):
            for j in range(n):
                want = max(0, w - abs(i - j) * s)
                if similarity[i][j] != want:
                    self.fail(f"manifest: similarity[{i}][{j}] = {similarity[i][j]}, expected {want}")

    def _check_world(self, world: dict, master: dict, config: dict) -> None:
        wid = world["world_id"]
        wdir = self.root / f"rule_{wid}"
        if not wdir.is_dir():
            return
        self.world_ids.append(wid)
        rules_doc = json.loads((wdir / "rules.json").read_text())
        expected_rules = {
            "K": master["K"],
            "inverse": master["inverse"],
            "rules": [master["rules"][i] for i in world["rule_indices"]],
        }
        if rules_doc != expected_rules:
            self.fail(f"rule_{wid}/rules.json differs from its manifest slice")
        stats = json.loads((wdir / "stats.json").read_text())
        lookup = {tuple(r["body"]): r["head"] for r in rules_doc["rules"]}
        resolved: dict[tuple[int, ...], frozenset[int]] = {}
        max_len = config["max_walk_len"]
        descriptor_sets = {}
        targets: set[int] = set()
        lengths = nodes = edges = count = 0
        for split, want in zip(SPLITS, config["graphs_per_split"]):
            path = wdir / f"{split}.jsonl"
            lines = path.read_text().splitlines()
            if len(lines) != want:
                self.fail(f"{path.name} of rule_{wid}: {len(lines)} lines, expected {want}")
            if stats["instances"].get(split) != len(lines):
                self.fail(f"rule_{wid}/stats.json: {split} instances disagree with {path.name}")
            seen = descriptor_sets[split] = set()
            for lineno, line in enumerate(lines, start=1):
                inst = json.loads(line)
                where = f"rule_{wid}/{split}.jsonl:{lineno}"
                descriptor = tuple(inst["descriptor"])
                seen.add(descriptor)
                targets.add(inst["target"])
                node_ids = set(inst["query"])
                for u, _, v in inst["edges"]:
                    node_ids.add(u)
                    node_ids.add(v)
                lengths += len(descriptor)
                nodes += len(node_ids)
                edges += len(inst["edges"])
                count += 1
                self._check_instance(inst, descriptor, wid, max_len, lookup, resolved, where)
        self.instances += count
        for i, a in enumerate(SPLITS):
            for b in SPLITS[i + 1 :]:
                shared = descriptor_sets[a] & descriptor_sets[b]
                if shared:
                    self.fail(f"rule_{wid}: {len(shared)} descriptors shared by {a} and {b}")
        if count:
            recomputed = {
                "num_classes": len(targets),
                "num_descriptors": len(set().union(*descriptor_sets.values())),
                "avg_resolution_length": lengths / count,
                "avg_nodes": nodes / count,
                "avg_edges": edges / count,
            }
            for key, value in recomputed.items():
                if not abs(stats.get(key, float("nan")) - value) <= STATS_TOLERANCE:
                    self.fail(f"rule_{wid}/stats.json: {key} = {stats.get(key)}, recomputed {value}")

    def _check_instance(self, inst, descriptor, wid, max_len, lookup, resolved, where) -> None:
        if inst["world_id"] != wid:
            self.fail(f"{where}: world_id {inst['world_id']} in directory rule_{wid}")
        if not 2 <= len(descriptor) <= max_len:
            self.fail(f"{where}: descriptor length {len(descriptor)} outside 2..{max_len}")
            return
        source, sink = inst["query"]
        path = inst["resolution_path"]
        labels: dict[tuple[int, int], set[int]] = {}
        out: dict[int, list[int]] = {}
        for u, r, v in inst["edges"]:
            labels.setdefault((u, v), set()).add(r)
            out.setdefault(u, []).append(v)
        if (
            len(path) != len(descriptor) + 1
            or path[0] != source
            or path[-1] != sink
            or any(r not in labels.get((a, b), ()) for a, b, r in zip(path, path[1:], descriptor))
        ):
            self.fail(f"{where}: resolution path does not spell the descriptor from query[0] to query[1]")
        if bfs_distance(out, source, sink) != len(descriptor):
            self.fail(f"{where}: query distance differs from descriptor length {len(descriptor)}")
        result = resolved.get(descriptor)
        if result is None:
            result = resolved[descriptor] = cyk_resolve(lookup, descriptor)
        if result != {inst["target"]}:
            self.fail(f"{where}: descriptor resolves to {sorted(result)}, target {inst['target']}")


def bfs_distance(out: dict[int, list[int]], source: int, sink: int) -> int | None:
    """Directed hop count from source to sink, None when unreachable."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == sink:
            return dist[u]
        for v in out.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return None


def cyk_resolve(lookup: dict[tuple[int, int], int], labels: tuple[int, ...]) -> frozenset[int]:
    """Relations derivable over the whole label sequence under any bracketing."""
    n = len(labels)
    chart = {(i, i + 1): {labels[i]} for i in range(n)}
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = set()
            for k in range(i + 1, j):
                for a in chart[(i, k)]:
                    for b in chart[(k, j)]:
                        head = lookup.get((a, b))
                        if head is not None:
                            cell.add(head)
            chart[(i, j)] = cell
    return frozenset(chart[(0, n)])


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def check_validate_report(text: str, world_ids: list[int], instances: int) -> list[str]:
    """Errors in the JSON report ``logicworlds validate`` printed."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"validate: report is not JSON ({exc})"]
    errors = []
    if report.get("instances") != instances or report.get("valid") != instances:
        errors.append(
            f"validate: {report.get('valid')} valid of {report.get('instances')}, "
            f"expected {instances} of {instances}"
        )
    if report.get("ambiguous") != 0 or report.get("shortcut_violations") != 0:
        errors.append("validate: ambiguous instances or shortcut violations reported")
    if sorted(report.get("worlds", {})) != sorted(f"rule_{wid}" for wid in world_ids):
        errors.append("validate: report covers other worlds than the suite holds")
    return errors


def check_solve_output(text: str, world_ids: list[int]) -> list[str]:
    """Errors in ``logicworlds solve`` output: every world must score 1.000."""
    scores = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            scores[parts[0]] = parts[1]
    return [
        f"solve: rule_{wid} scored {scores.get(f'rule_{wid}')}, expected 1.000"
        for wid in world_ids
        if scores.get(f"rule_{wid}") != "1.000"
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: checker.py SUITE_DIR", file=sys.stderr)
        return 2
    check = SuiteCheck(Path(argv[0]), max_errors=1000).run()
    for error in check.errors:
        print(error)
    print(
        f"{len(check.world_ids)} worlds, {check.instances} instances, "
        f"{len(check.errors)} errors, sha256 {tree_digest(Path(argv[0]))}"
    )
    return 1 if check.errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
