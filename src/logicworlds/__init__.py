"""logicworlds: deterministic logic-grounded relational benchmark generation.

The pipeline: sample a relation alphabet with inverse structure, grow a
consistent binary Horn rule set, partition it into overlapping worlds,
expand each world's rules into a WorldGraph, sample certified query
instances from it, and serialize datasets plus split manifests. One
rule engine, a semi-naive closure fixpoint, grows conflict-free world
graphs and resolves descriptors; the symbolic resolver built on it
certifies every emitted instance and doubles as the perfect-accuracy
baseline solver.
"""

from .config import SuiteConfig, load_config
from .dataset_io import (
    Difficulty,
    ExtendedGraph,
    compute_stats,
    difficulty_bucket,
    extend_graph,
)
from .errors import ConfigError, DegenerateWorldError, GenerationError, SuiteFormatError
from .partition import (
    WorldSpec,
    order_curriculum,
    partition_rules,
    select_worlds_by_similarity,
    similarity,
    similarity_matrix,
)
from .resolver import (
    ValidationReport,
    resolve_descriptor,
    symbolic_baseline_solve,
    validate_instance,
)
from .rules import (
    BinaryRule,
    Diagnostic,
    RelationAlphabet,
    RuleSet,
    check_consistency,
    compose,
    generate_alphabet,
    generate_rules,
    invert_rule,
    ruleset_to_dict,
    select_rules,
)
from .sampler import (
    DescriptorCollection,
    DescriptorPair,
    Instance,
    WorldDataset,
    build_dataset,
    collect_descriptors,
    sample_instance,
    split_descriptors,
)
from .suite import (
    Suite,
    generate_suite,
    generate_suite_to_disk,
    plan_suite,
    read_plan,
    read_suite,
)
from .worldgraph import (
    GenConfig,
    WorldGraph,
    closure_check,
    derive_closure,
    generate_world_graph,
    replay_trace,
    rule_usage,
)

__version__ = "0.1.0"
