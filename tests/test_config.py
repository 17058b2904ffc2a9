import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logicworlds.config import SuiteConfig, config_from_dict
from logicworlds.errors import ConfigError
from logicworlds.worldgraph import GenConfig

unit = st.floats(min_value=0.0, max_value=1.0)
weights = st.tuples(*[st.integers(1, 100)] * 3)

gen_configs = st.builds(
    GenConfig,
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    max_expansions=st.integers(2, 10),
    cycles=st.integers(1, 5),
    node_pool=st.integers(3, 1000),
    max_walk_len=st.integers(2, 12),
    graphs_per_split=st.tuples(*[st.integers(1, 5000)] * 3),
    noise_gamma=unit,
    noise_depth=st.integers(1, 4),
    split_fractions=weights.map(lambda w: tuple(x / sum(w) for x in w)),
)

suite_configs = st.builds(
    SuiteConfig,
    seed=st.integers(0, 2**63),
    num_relations=st.integers(2, 50),
    symmetric_fraction=unit,
    rules_per_world=st.integers(1, 50),
    stride=st.integers(1, 20),
    valid_worlds=st.integers(0, 5),
    test_worlds=st.integers(0, 5),
    gen=gen_configs,
    output_dir=st.none() | st.text(),
)


@given(suite_configs)
def test_every_valid_config_survives_a_json_round_trip(config):
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


@given(suite_configs, st.text())
def test_an_unknown_key_is_a_config_error(config, key):
    doc = config.to_dict()
    if key in doc:
        key += "_unknown"
    doc[key] = 1
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(doc)
