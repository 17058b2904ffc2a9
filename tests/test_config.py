import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logicworlds.cli import main
from logicworlds.config import MAX_RELATIONS, SuiteConfig, config_from_dict
from logicworlds.errors import ConfigError
from logicworlds.worldgraph import GenConfig

from conftest import tiny_suite_config

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


WRONG_TYPES = [
    ("stride", 1.5),
    ("seed", "abc"),
    ("noise_depth", 1.5),
    ("seed", True),
    ("num_relations", None),
    ("symmetric_fraction", "0.5"),
    ("gamma", False),
    ("graphs_per_split", 5),
    ("graphs_per_split", [5, 5.0, 5]),
    ("split_fractions", [0.5, 0.25, "0.25"]),
]


@pytest.mark.parametrize("key, value", WRONG_TYPES, ids=[f"{k}={v!r}" for k, v in WRONG_TYPES])
def test_a_wrong_typed_value_is_a_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        config_from_dict({key: value})


NUMBER_KEYS = sorted(k for k, v in SuiteConfig().to_dict().items() if type(v) in (int, float))


@given(suite_configs, st.sampled_from(NUMBER_KEYS), st.booleans() | st.text() | st.none())
def test_a_bool_text_or_null_number_is_a_config_error(config, key, value):
    doc = config.to_dict()
    doc[key] = value
    with pytest.raises(ConfigError, match=f"config key '{key}'"):
        config_from_dict(doc)


def test_num_relations_is_bounded_before_any_planning():
    assert SuiteConfig(num_relations=MAX_RELATIONS).num_relations == MAX_RELATIONS
    for num_relations in (1, MAX_RELATIONS + 1):
        message = f"num_relations must lie in [2, {MAX_RELATIONS}]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            SuiteConfig(num_relations=num_relations)


def test_an_int_is_a_valid_float():
    config = config_from_dict({"gamma": 1, "noise_gamma": 0, "symmetric_fraction": 1})
    assert (config.gen.gamma, config.gen.noise_gamma, config.symmetric_fraction) == (1, 0, 1)


def test_output_dir_is_an_unknown_key(tmp_path, capsys):
    """The output directory is ``generate --out`` alone; a config that
    still names one is refused."""
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({**tiny_suite_config().to_dict(), "output_dir": "suite"}))
    out = tmp_path / "suite"
    assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 2
    assert f"{config_file}: unknown config keys: ['output_dir']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("stride", 1.5), ("seed", "abc"), ("noise_depth", 1.5)])
def test_generate_exits_2_naming_the_key_and_file(tmp_path, capsys, key, value):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({**tiny_suite_config().to_dict(), key: value}))
    out = tmp_path / "suite"
    assert main(["generate", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{config_file}: config key '{key}'" in err
    assert not out.exists()
