"""Invariants that let generation draw every world graph and instance once.

A world graph grows only by refining an edge (u, r, v) into a 2-path
through a fresh node, and growth refuses every expansion whose
derivations would contradict an edge label. So on every small random
config the graph is acyclic, its closure has no edge conflict, every
alternate walk of an edge resolves to exactly that edge's label, and
every sampled instance certifies on its first draw. Generation raises a
GenerationError when a descriptor does not resolve to its edge's label
or an instance fails certification; it does not re-check the grown
graph, whose closure guarantee is growth's own refusals and is held
here. A config the generator rejects (ConfigError,
DegenerateWorldError) is the only allowed way out, and a suite it
writes passes ``validate``.
"""

import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logicworlds import seeds
from logicworlds.cli import main
from logicworlds.errors import ConfigError, DegenerateWorldError
from logicworlds.resolver import resolve_descriptor, validate_instance
from logicworlds.rules import select_rules
from logicworlds.sampler import collect_descriptors
from logicworlds.suite import generate_suite_to_disk, grow_and_sample, plan_suite
from logicworlds.worldgraph import closure_check, generate_world_graph

from conftest import tiny_suite_config

EXAMPLES = settings(max_examples=150, deadline=None)


def small_configs(**strategies):
    """Small random suite configs; keyword strategies replace or add fields."""
    fields = dict(
        seed=st.integers(0, 2**32 - 1),
        num_relations=st.integers(3, 8),
        rules_per_world=st.integers(2, 8),
        stride=st.integers(1, 4),
        node_pool=st.integers(20, 150),
        max_walk_len=st.integers(2, 6),
        graphs_per_split=st.just((4, 2, 2)),
        # world splits play no part here; every plan may have one world
        valid_worlds=st.just(0),
        test_worlds=st.just(0),
    )
    return st.builds(tiny_suite_config, **{**fields, **strategies})


@st.composite
def planned_worlds(draw):
    """(suite plan, one of its worlds) for a small random config, or None."""
    try:
        suite = plan_suite(draw(small_configs()))
    except ConfigError:
        return None
    return suite, draw(st.sampled_from(suite.worlds))


def grown(planned):
    """(world rules, world graph), or None when the generator rejects the world."""
    if planned is None:
        return None
    suite, world = planned
    config = suite.config
    rng = seeds.rng_for(config.seed, seeds.TAG_WORLDGRAPH, world.world_id)
    world_rules = select_rules(suite.rules, world.rule_indices)
    try:
        graph = generate_world_graph(world_rules, config.gen, rng, world.world_id)
    except DegenerateWorldError:
        return None
    return world_rules, graph


def is_acyclic(edges) -> bool:
    """Kahn's algorithm: every node gets removed exactly when there is no cycle."""
    indegree, successors = {}, {}
    for u, v in edges:
        indegree.setdefault(u, 0)
        indegree[v] = indegree.get(v, 0) + 1
        successors.setdefault(u, []).append(v)
    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for v in successors.get(node, ()):
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return removed == len(indegree)


@EXAMPLES
@given(planned_worlds())
def test_world_graph_is_acyclic(planned):
    world = grown(planned)
    if world is not None:
        assert is_acyclic(world[1].edges)


@EXAMPLES
@given(planned_worlds())
def test_closure_has_no_edge_conflict(planned):
    world = grown(planned)
    if world is not None:
        kinds = [d.kind for d in closure_check(world[1], world[0])]
        assert "edge-conflict" not in kinds


@EXAMPLES
@given(planned_worlds())
def test_every_descriptor_resolves_to_exactly_its_edge_label(planned):
    world = grown(planned)
    if world is not None:
        world_rules, graph = world
        max_walk_len = planned[0].config.gen.max_walk_len
        for pair in collect_descriptors(graph, max_walk_len).pairs:
            assert resolve_descriptor(world_rules, pair.descriptor) == {pair.edge[1]}


@EXAMPLES
@given(planned_worlds())
def test_every_instance_certifies_on_its_first_draw(planned):
    if planned is None:
        return
    suite, world = planned
    world_rules = select_rules(suite.rules, world.rule_indices)
    try:
        _, dataset = grow_and_sample(suite.config, world_rules, world.world_id)
    except DegenerateWorldError:
        return
    for inst in dataset.all_instances():
        assert validate_instance(world_rules, inst).is_valid


@settings(max_examples=100, deadline=None)
@given(
    # few master rules and a wide stride keep each suite to a few worlds
    small_configs(
        num_relations=st.integers(3, 6),
        stride=st.integers(2, 8),
        gamma=st.floats(min_value=1e-300, max_value=1.0),
    )
)
@example(tiny_suite_config(gamma=1e-200))  # every rule weight underflows to 0
def test_a_small_suite_validates_or_its_config_is_rejected(config):
    with tempfile.TemporaryDirectory() as out:
        try:
            generate_suite_to_disk(plan_suite(config), out)
        except (ConfigError, DegenerateWorldError):
            return
        assert main(["validate", out, "--workers", "1"]) == 0
