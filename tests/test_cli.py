import json
import math
import re
import shutil
import sys
import time

import pytest

from logicworlds.cli import main
from logicworlds.errors import SuiteFormatError
from logicworlds.sampler import SPLIT_NAMES
from logicworlds.suite import plan_suite, read_suite

from conftest import recompute_stats, render, tiny_suite_config


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(tiny_suite_config().to_dict()))
    return path


@pytest.fixture(scope="module")
def suite_dir(config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "suite"
    rc = main(["generate", "--config", str(config_file), "--out", str(out)])
    assert rc == 0
    return out


def drop_last_world(manifest: dict) -> None:
    """Drop the manifest's last world, and the world from similarity and protocols."""
    last = manifest["worlds"].pop()["world_id"]
    manifest["similarity"] = [row[:-1] for row in manifest["similarity"][:-1]]
    protocols = manifest["protocols"]
    for ids in (protocols["supervised"], protocols["continual"], *protocols["multitask"].values()):
        if last in ids:
            ids.remove(last)


def retype(container, key, kind) -> None:
    container[key] = kind(container[key])


# Each id keeps its value (true for a 1) or names it (a string): only its
# JSON type is wrong. The third item is the key the refusal names.
RELATION_ID_TAMPERING = [
    (
        "manifest.json",
        "true_inverse_item",
        "rules",
        lambda doc: retype(doc["rules"]["inverse"], doc["rules"]["inverse"].index(1), bool),
    ),
    (
        "manifest.json",
        "float_K",
        "rules",
        lambda doc: doc["rules"].update(K=float(doc["rules"]["K"])),
    ),
    (
        "manifest.json",
        "float_body_item",
        "rules",
        lambda doc: retype(doc["rules"]["rules"][0]["body"], 0, float),
    ),
    (
        "manifest.json",
        "string_head",
        "rules",
        lambda doc: retype(doc["rules"]["rules"][0], "head", str),
    ),
    (
        "rule_0/rules.json",
        "string_head",
        "rules",
        lambda doc: retype(doc["rules"][0], "head", str),
    ),
    (
        "rule_0/rules.json",
        "true_inverse_item",
        "inverse",
        lambda doc: retype(doc["inverse"], doc["inverse"].index(1), bool),
    ),
]


def not_derived(file, key) -> str:
    """The refusal of a derived file whose ``key`` differs from what the writer writes."""
    return f"{file}: {key} is not the one the writer would write"


def refused_by_every_reader(broken, message, capsys, *argv) -> None:
    """``validate``, ``solve`` and ``stats`` exit 2 and ``read_suite`` raises
    SuiteFormatError, each naming ``message``."""
    for command in ("validate", "solve", "stats"):
        assert main([command, str(broken), *argv]) == 2, command
        assert message in capsys.readouterr().err, command
    with pytest.raises(SuiteFormatError, match=re.escape(message)):
        read_suite(broken)


def chain_line(relation: int, length: int) -> str:
    """An instance line whose query is answered by a chain of ``length``
    ``relation`` edges, its own resolution path."""
    line = {
        "edges": [[i, relation, i + 1] for i in range(length)], "query": [0, length],
        "target": relation, "resolution_path": list(range(length + 1)),
        "descriptor": [relation] * length, "world_id": 0,
    }
    return json.dumps(line, sort_keys=True, separators=(",", ":"))


def new_last_head(manifest: dict) -> None:
    """Give the manifest's last master rule another head."""
    rule = manifest["rules"]["rules"][-1]
    rule["head"] = (rule["head"] + 1) % manifest["rules"]["K"]


def corrupt_one_target(suite_dir, tmp_path):
    import shutil

    broken = tmp_path / "corrupt"
    shutil.copytree(suite_dir, broken)
    target_file = broken / "rule_0" / "train.jsonl"
    lines = target_file.read_text().splitlines()
    record = json.loads(lines[0])
    record["target"] = (record["target"] + 1) % 8
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    target_file.write_text("\n".join(lines) + "\n")
    recompute_stats(broken / "rule_0")  # the stats may count the new target as a class
    return broken


class TestGenerate:
    def test_summary_output(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "s"
        rc = main(["generate", "--config", str(config_file), "--out", str(out_dir)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        instances = sum(
            sum(json.loads((out_dir / f"rule_{w['world_id']}" / "stats.json").read_text())[
                "instances"
            ].values())
            for w in manifest["worlds"]
        )
        worlds = len(manifest["worlds"])
        assert out[:3] == [
            f"rules: {len(manifest['rules']['rules'])}",
            f"worlds: {worlds} of {worlds}",
            f"instances: {instances}",
        ]
        assert out[3].startswith("descriptors: ")
        assert out[4:] == [f"wrote {out_dir}"]

    def test_workers_below_one_is_config_error_and_writes_nothing(self, config_file, tmp_path):
        out = tmp_path / "w0"
        argv = ["generate", "--config", str(config_file), "--out", str(out), "--workers", "0"]
        assert main(argv) == 2
        assert not out.exists()

    def test_missing_out_is_config_error(self, config_file):
        assert main(["generate", "--config", str(config_file)]) == 2

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_key": 1}')
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_gamma_that_decays_every_weight_to_zero_is_config_error(self, tmp_path, capsys):
        # 1e-200 squared underflows to 0.0: a rule drawn twice in one cycle
        # leaves a later weighted draw with nothing to choose from
        config = tmp_path / "tiny_gamma.json"
        config.write_text(json.dumps({**tiny_suite_config().to_dict(), "gamma": 1e-200}))
        argv = ["generate", "--config", str(config), "--out", str(tmp_path / "s")]
        assert main([*argv, "--workers", "1"]) == 2
        assert re.search(r"world \d+: gamma=1e-200 decays", capsys.readouterr().err)

    def test_nan_split_fraction_is_config_error(self, tmp_path, capsys):
        # NaN passes no comparison, so only a test it must pass (f > 0)
        # refuses it before the splitter rounds it
        config = tmp_path / "nan_fraction.json"
        doc = {**tiny_suite_config().to_dict(), "split_fractions": [math.nan, 0.5, 0.5]}
        config.write_text(json.dumps(doc))
        argv = ["generate", "--config", str(config), "--out", str(tmp_path / "s")]
        assert main([*argv, "--workers", "1"]) == 2
        assert f"{config}: split_fractions needs three positive values" in capsys.readouterr().err

    def test_single_world_filter(self, config_file, tmp_path):
        out = tmp_path / "one"
        rc = main(
            ["generate", "--config", str(config_file), "--out", str(out), "--world-id", "2"]
        )
        assert rc == 0
        assert (out / "rule_2").exists()
        assert not (out / "rule_0").exists()
        # manifest still lists the full partition
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["worlds"]) > 1

    def test_unknown_world_id_is_config_error_and_writes_nothing(
        self, config_file, tmp_path, capsys
    ):
        out = tmp_path / "none"
        rc = main(
            ["generate", "--config", str(config_file), "--out", str(out), "--world-id", "999"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert not out.exists()
        worlds = len(plan_suite(tiny_suite_config()).worlds)
        assert "999" in err and f"{worlds} worlds" in err

    def test_seed_override_changes_bytes(self, config_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(config_file), "--out", str(a)]) == 0
        assert (
            main(["generate", "--config", str(config_file), "--out", str(b), "--seed", "99"])
            == 0
        )
        assert (a / "manifest.json").read_text() != (b / "manifest.json").read_text()


class TestValidate:
    def test_fresh_suite_passes(self, suite_dir, capsys):
        rc = main(["validate", str(suite_dir)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["valid"] == report["instances"]
        assert report["ambiguous"] == 0
        assert report["shortcut_violations"] == 0

    def test_report_totals_match_stats(self, suite_dir, capsys):
        main(["validate", str(suite_dir)])
        report = json.loads(capsys.readouterr().out)
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        expected = 0
        for world in manifest["worlds"]:
            stats = json.loads(
                (suite_dir / f"rule_{world['world_id']}" / "stats.json").read_text()
            )
            expected += sum(stats["instances"].values())
        assert report["instances"] == expected

    def test_corrupted_target_fails(self, suite_dir, tmp_path, capsys):
        broken = corrupt_one_target(suite_dir, tmp_path)
        rc = main(["validate", str(broken)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["instances"] - report["valid"] == 1
        assert report["worlds"]["rule_0"]["valid"] == report["worlds"]["rule_0"]["instances"] - 1

    def test_resolution_path_off_the_query_fails(self, suite_dir, tmp_path, capsys):
        # a fresh node x and an edge (x, d0, p1): the path x, p1, ... spells
        # the descriptor over the instance's edges, but not from query[0]
        def reanchor(record):
            path, descriptor = record["resolution_path"], record["descriptor"]
            fresh = 1 + max(max(u, v) for u, _, v in record["edges"])
            record["edges"].append([fresh, descriptor[0], path[1]])
            path[0] = fresh

        broken, _ = tampered_first_line(suite_dir, tmp_path, reanchor)
        recompute_stats(broken / "rule_0")
        assert main(["validate", str(broken), "--world-id", "0", "--workers", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] == report["instances"] - 1

    def test_unreadable_suite(self, tmp_path):
        assert main(["validate", str(tmp_path / "nowhere")]) == 2

    def test_descriptor_shared_between_splits_fails(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "leak"
        shutil.copytree(suite_dir, broken)
        train_line = (broken / "rule_0" / "train.jsonl").read_text().splitlines()[0]
        test_file = broken / "rule_0" / "test.jsonl"
        with open(test_file, "a") as lines:
            lines.write(train_line + "\n")
        recompute_stats(broken / "rule_0")
        descriptor = json.loads(train_line)["descriptor"]
        message = f"{test_file}:6: descriptor {descriptor} of the train split"
        refused_by_every_reader(broken, message, capsys)

    def test_tampered_stats_fail(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "stats"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        doc["avg_nodes"] = 99.5
        stats_file.write_text(json.dumps(doc))
        refused_by_every_reader(broken, not_derived(stats_file, "avg_nodes"), capsys)

    def test_tampered_rules_fail(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "rules"
        shutil.copytree(suite_dir, broken)
        rules_file = broken / "rule_0" / "rules.json"
        doc = json.loads(rules_file.read_text())
        rule = doc["rules"][0]
        rule["head"] = (rule["head"] + 1) % doc["K"]
        rules_file.write_text(json.dumps(doc))
        rc = main(["validate", str(broken)])
        assert rc == 2
        assert not_derived(rules_file, "rules") in capsys.readouterr().err

    def test_one_relation_descriptor_fails(self, suite_dir, tmp_path, capsys):
        # the line certifies (its one edge is its own resolution) and the
        # stats are recomputed with it, but a descriptor needs 2 relations
        self.assert_descriptor_length_refused(suite_dir, tmp_path, capsys, 1)

    def test_descriptor_longer_than_max_walk_len_fails(self, suite_dir, tmp_path, capsys):
        max_walk_len = tiny_suite_config().gen.max_walk_len
        self.assert_descriptor_length_refused(suite_dir, tmp_path, capsys, max_walk_len + 1)

    @staticmethod
    def assert_descriptor_length_refused(suite_dir, tmp_path, capsys, length):
        broken = tmp_path / "walk_length"
        shutil.copytree(suite_dir, broken)
        r = json.loads((broken / "rule_0" / "train.jsonl").read_text().splitlines()[0])["target"]
        test_file = broken / "rule_0" / "test.jsonl"
        with open(test_file, "a") as lines:
            lines.write(chain_line(r, length) + "\n")
        recompute_stats(broken / "rule_0")
        max_walk_len = tiny_suite_config().gen.max_walk_len
        message = f"{test_file}:6: descriptor length {length} outside 2..{max_walk_len}"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")

    def test_world_without_instances_is_format_error(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "empty"
        shutil.copytree(suite_dir, broken)
        for split in ("train", "valid", "test"):
            (broken / "rule_0" / f"{split}.jsonl").write_text("")
        train = tiny_suite_config().gen.graphs_per_split[0]
        message = f"{broken / 'rule_0' / 'train.jsonl'}: 0 instances, not the {train} of graphs_per_split"
        refused_by_every_reader(broken, message, capsys)

    def test_two_field_edge_is_format_error_with_location(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "short_edge"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["edges"][0] = record["edges"][0][:2]
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        split_file.write_text("\n".join(lines) + "\n")
        rc = main(["validate", str(broken)])
        assert rc == 2
        assert f"{split_file}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "wrap",
        [lambda x: [x], lambda x: {"n": x}, str, float, lambda x: True, lambda x: None],
        ids=["array", "object", "string", "float", "true", "null"],
    )
    @pytest.mark.parametrize(
        "where",
        [
            ("target",),
            ("query", 0),
            ("query", 1),
            ("descriptor", 0),
            ("resolution_path", 1),
            ("edges", 0, 0),
            ("edges", 0, 1),
            ("edges", 0, 2),
        ],
        ids=lambda where: "-".join(map(str, where)),  # edges-0-1: the first edge's label
    )
    def test_container_for_integer_is_format_error_with_location(
        self, suite_dir, tmp_path, capsys, command, wrap, where
    ):
        broken = tmp_path / "container"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        *outer, last = where
        parent = record
        for key in outer:
            parent = parent[key]
        parent[last] = wrap(parent[last])
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        split_file.write_text("\n".join(lines) + "\n")
        assert main([command, str(broken), "--world-id", "0", "--workers", "1"]) == 2
        assert f"{split_file}:2: bad instance record" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve", "read_suite"])
    @pytest.mark.parametrize(
        "mutate",
        [lambda record: record.update(note="x"), lambda record: record["query"].append(5)],
        ids=["extra_key", "three_item_query"],
    )
    def test_instance_record_off_schema_is_format_error_with_location(
        self, suite_dir, tmp_path, capsys, command, mutate
    ):
        broken = tmp_path / "off_schema"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        mutate(record)
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        split_file.write_text("\n".join(lines) + "\n")
        message = f"{split_file}:2: bad instance record"
        if command == "read_suite":
            with pytest.raises(SuiteFormatError, match=re.escape(message)):
                read_suite(broken)
        else:
            assert main([command, str(broken), "--world-id", "0", "--workers", "1"]) == 2
            assert message in capsys.readouterr().err

    # the altered copy of line 2 equals it, so with the copy second every
    # tuple it holds is already in the world's shared table
    @pytest.mark.parametrize("copy_first", [False, True], ids=["copy-second", "copy-first"])
    @pytest.mark.parametrize("kind", [float, bool])
    @pytest.mark.parametrize(
        "where",
        [("edges", 0, 0), ("edges", 0, 2), ("resolution_path", 0), ("resolution_path", 1)],
        ids=lambda where: "-".join(map(str, where)),
    )
    def test_float_or_bool_equal_to_an_integer_is_format_error_in_either_order(
        self, suite_dir, tmp_path, capsys, copy_first, kind, where
    ):
        broken = tmp_path / "equal_non_integer"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        *outer, last = where
        parent = record
        for key in outer:
            parent = parent[key]
        assert parent[last] in (0, 1)  # so that bool(x) == x
        parent[last] = kind(parent[last])
        copy = json.dumps(record, sort_keys=True, separators=(",", ":"))
        lines[1:2] = [copy, lines[1]] if copy_first else [lines[1], copy]
        split_file.write_text("\n".join(lines) + "\n")
        message = f"{split_file}:{2 if copy_first else 3}: bad instance record"
        for command in ("validate", "solve"):
            assert main([command, str(broken), "--world-id", "0", "--workers", "1"]) == 2
            assert message in capsys.readouterr().err
        with pytest.raises(SuiteFormatError, match=re.escape(message)):
            read_suite(broken)

    def test_manifest_world_without_id_is_format_error(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "no_world_id"
        shutil.copytree(suite_dir, broken)
        manifest_file = broken / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        del manifest["worlds"][0]["world_id"]
        manifest_file.write_text(json.dumps(manifest))
        rc = main(["validate", str(broken)])
        assert rc == 2
        assert f"{manifest_file}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: doc.update(worlds=5),
            lambda doc: doc["worlds"][0].update(world_id="0"),
            lambda doc: doc["worlds"].append(dict(doc["worlds"][0])),
            lambda doc: doc["worlds"][0].update(rule_indices=[0, len(doc["rules"]["rules"])]),
            lambda doc: doc["worlds"][0].update(rule_indices=["0"]),
            lambda doc: doc["worlds"][0].update(split="holdout"),
            lambda doc: doc["config"].update(stride="x"),
            lambda doc: doc["config"].update(stride=1.5),
            lambda doc: doc["config"].update(seed=True),
            lambda doc: doc["rules"]["rules"][0].pop("head"),
            lambda doc: doc.update(config=["seed"]),
            lambda doc: doc["config"].update(split_fractions=[math.nan, 0.5, 0.5]),
        ],
        ids=[
            "worlds_not_a_list",
            "text_world_id",
            "repeated_world_id",
            "rule_index_past_master_rules",
            "text_rule_index",
            "unknown_split",
            "text_stride",
            "float_stride",
            "bool_seed",
            "master_rule_without_head",
            "config_not_an_object",
            "nan_split_fraction",
        ],
    )
    def test_malformed_manifest_is_format_error_naming_it(
        self, suite_dir, tmp_path, capsys, tamper
    ):
        broken = tmp_path / "bad_manifest"
        shutil.copytree(suite_dir, broken)
        manifest_file = broken / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        tamper(manifest)
        manifest_file.write_text(json.dumps(manifest))
        refused_by_every_reader(broken, f"{manifest_file}:", capsys)

    @pytest.mark.parametrize(
        "name, key, tamper, command",
        [
            pytest.param(name, key, tamper, command, id=f"{name.split('/')[0]}-{kind}-{command}")
            for name, kind, key, tamper in RELATION_ID_TAMPERING
            for command in ("validate", "solve", "read_suite", "stats")
        ],
    )
    def test_relation_id_not_an_integer_is_format_error_naming_its_file(
        self, suite_dir, tmp_path, capsys, name, key, tamper, command
    ):
        broken = tmp_path / "relation_id"
        shutil.copytree(suite_dir, broken)
        rules_file = broken / name
        doc = json.loads(rules_file.read_text())
        tamper(doc)
        rules_file.write_text(json.dumps(doc))
        message = not_derived(rules_file, key)
        if command == "read_suite":
            with pytest.raises(SuiteFormatError, match=re.escape(message)):
                read_suite(broken)
        else:
            assert main([command, str(broken)]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, tamper",
        [
            (
                "similarity",
                lambda doc: doc["similarity"][0].__setitem__(1, doc["similarity"][0][1] + 1),
            ),
            ("protocols", lambda doc: doc["protocols"]["continual"].reverse()),
            (
                "similarity",
                lambda doc: doc["similarity"][0].__setitem__(0, float(doc["similarity"][0][0])),
            ),
            ("seed", lambda doc: doc.update(seed=doc["config"]["seed"])),  # the old format
            ("note", lambda doc: doc.update(note="x")),
            ("worlds", lambda doc: doc["worlds"][0].update(note="x")),
            ("rules", lambda doc: doc["rules"]["rules"][0].update(note="x")),
            ("protocols", drop_last_world),  # the first key, in file order, that differs
            # both give another number of worlds, so protocols is the first to differ
            ("protocols", lambda doc: doc["config"].update(num_relations=9)),
            ("protocols", lambda doc: doc["config"].update(symmetric_fraction=0.55)),
            ("rules", new_last_head),  # the tiny suite's last master rule lies in no world
        ],
        ids=[
            "similarity",
            "protocols",
            "similarity_as_float",
            "seed_beside_config",
            "unknown_key",
            "unknown_world_key",
            "unknown_master_rule_key",
            "last_world_dropped",
            "num_relations_other_than_its_rules",
            "symmetric_fraction_other_than_its_rules",
            "head_of_rule_in_no_world",
        ],
    )
    def test_manifest_not_derived_from_its_config_and_rules_is_format_error(
        self, suite_dir, tmp_path, capsys, key, tamper
    ):
        broken = tmp_path / "derived"
        shutil.copytree(suite_dir, broken)
        manifest_file = broken / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        tamper(manifest)
        manifest_file.write_text(json.dumps(manifest))
        refused_by_every_reader(broken, not_derived(manifest_file, key), capsys)

    # 10.0 is the config's own bound written as a float
    @pytest.mark.parametrize("max_walk_len", [3, 2, 10.0])
    def test_stats_max_walk_len_other_than_manifest_is_format_error(
        self, suite_dir, tmp_path, capsys, max_walk_len
    ):
        broken = tmp_path / "walk_len"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        assert json.dumps(doc["max_walk_len"]) != json.dumps(max_walk_len)
        doc["max_walk_len"] = max_walk_len
        stats_file.write_text(json.dumps(doc))
        rc = main(["validate", str(broken), "--world-id", "0"])
        assert rc == 2
        assert f"{stats_file}: max_walk_len" in capsys.readouterr().err

    @pytest.mark.parametrize("max_walk_len", [3, 2, 10.0])
    def test_read_suite_refuses_stats_max_walk_len_other_than_manifest(
        self, suite_dir, tmp_path, max_walk_len
    ):
        broken = tmp_path / "walk_len"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        doc["max_walk_len"] = max_walk_len
        stats_file.write_text(json.dumps(doc))
        with pytest.raises(SuiteFormatError, match=re.escape(f"{stats_file}: max_walk_len")):
            read_suite(broken)

    def test_manifest_world_without_split_is_format_error(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "no_split"
        shutil.copytree(suite_dir, broken)
        manifest_file = broken / "manifest.json"
        manifest = json.loads(manifest_file.read_text())
        del manifest["worlds"][0]["split"]
        manifest_file.write_text(json.dumps(manifest))
        rc = main(["validate", str(broken)])
        assert rc == 2
        message = not_derived(manifest_file, "worlds")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    # true and 1.0 equal the world's id 1 but are not integers; no line may hold true
    @pytest.mark.parametrize(
        "world_id, refusal",
        [
            (0, "instance of world 0 in world 1"),
            (True, "bad instance record (true or false in an instance line)"),
            (1.0, "instance of world '1.0' in world 1"),
        ],
        ids=["0", "true", "1.0"],
    )
    def test_instance_of_another_world_is_format_error(
        self, suite_dir, tmp_path, capsys, command, world_id, refusal
    ):
        broken = tmp_path / "moved_instance"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_1" / "test.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["world_id"] = world_id
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        split_file.write_text("\n".join(lines) + "\n")
        message = f"{split_file}:2: {refusal}"
        assert main([command, str(broken)]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(SuiteFormatError, match=re.escape(message)):
            read_suite(broken)

    @pytest.mark.parametrize(
        "name, tamper",
        [
            ("stats.json", lambda doc: doc.pop("max_walk_len")),
            ("rules.json", lambda doc: doc["rules"][0].pop("head")),
            ("rules.json", lambda doc: doc["rules"][0]["body"].append(0)),
            ("world_graph.json", lambda doc: doc["edges"][0].pop()),
        ],
        ids=[
            "stats_without_max_walk_len",
            "rule_without_head",
            "three_id_rule_body",
            "two_field_graph_edge",
        ],
    )
    def test_malformed_world_file_is_format_error_naming_it(
        self, suite_dir, tmp_path, capsys, name, tamper
    ):
        broken = tmp_path / "malformed"
        shutil.copytree(suite_dir, broken)
        world_file = broken / "rule_0" / name
        doc = json.loads(world_file.read_text())
        tamper(doc)
        world_file.write_text(json.dumps(doc))
        rc = main(["validate", str(broken)])
        assert rc == 2
        assert f"{world_file}:" in capsys.readouterr().err


def tampered_copy(suite_dir, tmp_path, name, tamper):
    """A copy of the suite whose JSON file ``name`` is re-written after ``tamper``."""
    broken = tmp_path / "tampered"
    shutil.copytree(suite_dir, broken)
    file = broken / name
    doc = json.loads(file.read_text())
    tamper(doc)
    file.write_text(render(doc) + "\n")
    return broken, file


def tampered_first_line(suite_dir, tmp_path, tamper):
    """A copy of the suite whose ``rule_0/train.jsonl`` line 1 is re-written
    after ``tamper``; returns the copy and that file."""
    broken = tmp_path / "tampered"
    shutil.copytree(suite_dir, broken)
    split_file = broken / "rule_0" / "train.jsonl"
    lines = split_file.read_text().splitlines()
    record = json.loads(lines[0])
    tamper(record)
    lines[0] = render(record)
    split_file.write_text("\n".join(lines) + "\n")
    return broken, split_file


def _first_edge_item(position, value_of):
    """A tamper that sets item ``position`` of the graph's first edge to ``value_of(doc)``."""

    def tamper(doc):
        doc["edges"][0][position] = value_of(doc)

    return tamper


def _repeat_first_pair(relabel):
    """A tamper that appends the graph's first edge again, its label plus ``relabel``."""

    def tamper(doc):
        u, r, v = doc["edges"][0]
        doc["edges"].append([u, r + relabel, v])

    return tamper


def _swap_first_edges(doc):
    """A tamper that swaps the graph's first two edges, out of growth order."""
    doc["edges"][:2] = doc["edges"][1::-1]


class TestWorldGraphIsTyped:
    """``world_graph.json`` holds a graph the writer could write: ``nodes``
    a non-negative JSON integer, each edge three JSON integers (a bool is
    none) with node ids below ``nodes`` and a relation of the world's
    alphabet, no (u, v) pair twice, every node id on an edge, and the
    edges in growth order. Every reader refuses anything else, naming the
    file."""

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: retype(doc, "nodes", str),
            lambda doc: retype(doc, "nodes", float),
            lambda doc: doc.update(nodes=-1),
            _first_edge_item(1, lambda doc: True),
            _first_edge_item(1, lambda doc: "x"),
            _first_edge_item(2, lambda doc: doc["nodes"]),
            _first_edge_item(0, lambda doc: -1),
            _repeat_first_pair(0),
            _repeat_first_pair(1),
            lambda doc: doc.update(nodes=doc["nodes"] + 7),
            lambda doc: doc.update(nodes=10**12),
            _swap_first_edges,
        ],
        ids=[
            "string_nodes", "float_nodes", "negative_nodes", "true_relation", "string_relation",
            "node_id_equal_to_nodes", "negative_node_id", "repeated_edge", "repeated_pair",
            "node_on_no_edge", "huge_nodes", "swapped_edges",
        ],
    )
    def test_every_reader_refuses_a_graph_the_writer_could_not_write(
        self, suite_dir, tmp_path, capsys, tamper
    ):
        broken, file = tampered_copy(suite_dir, tmp_path, "rule_0/world_graph.json", tamper)
        refused_by_every_reader(broken, f"{file}: bad record (", capsys, "--world-id", "0")

    @pytest.mark.parametrize("relation", [-1, "K", 999])
    def test_every_reader_refuses_a_relation_outside_the_alphabet(
        self, suite_dir, tmp_path, capsys, relation
    ):
        K = json.loads((suite_dir / "manifest.json").read_text())["rules"]["K"]
        relation = K if relation == "K" else relation
        tamper = _first_edge_item(1, lambda doc: relation)
        broken, file = tampered_copy(suite_dir, tmp_path, "rule_0/world_graph.json", tamper)
        message = f"{file}: relation {relation} outside 0..{K - 1}"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")


class TestInstanceEdgesAreOfTheAlphabet:
    """Every edge of an instance line carries a relation of the world's
    alphabet, ``0..K-1``. An unknown relation derives nothing, so an
    instance with one still certifies; every reader refuses it instead,
    naming the file and the line."""

    @pytest.mark.parametrize("relation", [-1, "K", 999])
    def test_every_reader_refuses_a_noise_edge_outside_the_alphabet(
        self, suite_dir, tmp_path, capsys, relation
    ):
        K = json.loads((suite_dir / "manifest.json").read_text())["rules"]["K"]
        relation = K if relation == "K" else relation

        def tamper(record):
            path = record["resolution_path"]
            on_path = set(zip(path, path[1:]))
            noise_edge = next(e for e in record["edges"] if (e[0], e[2]) not in on_path)
            noise_edge[1] = relation

        broken, split_file = tampered_first_line(suite_dir, tmp_path, tamper)
        message = f"{split_file}:1: relation {relation} outside 0..{K - 1}"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")


class TestDescriptorsAreOfTheAlphabet:
    """Every relation of an instance's descriptor lies in ``0..K-1``. Only
    certification reads the descriptor against the path, so ``solve`` and
    ``stats`` would take one outside the alphabet; every reader refuses it
    instead, naming the file and the line."""

    @pytest.mark.parametrize("relation", [-1, "K", 999])
    def test_every_reader_refuses_a_descriptor_outside_the_alphabet(
        self, suite_dir, tmp_path, capsys, relation
    ):
        K = json.loads((suite_dir / "manifest.json").read_text())["rules"]["K"]
        relation = K if relation == "K" else relation

        def tamper(record):
            record["descriptor"][0] = relation

        broken, split_file = tampered_first_line(suite_dir, tmp_path, tamper)
        # stats.json is recomputed, so only the descriptor's relation is wrong
        recompute_stats(broken / "rule_0")
        message = f"{split_file}:1: relation {relation} outside 0..{K - 1}"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")


class TestConfigIsTheOneSource:
    """A world's rules come from its manifest ``config`` alone: every reader
    takes them from the plan and refuses a ``rules.json`` that states other
    rules, naming the file and the first key that differs."""

    @pytest.mark.parametrize(
        "name, key, tamper",
        [
            ("rule_0/rules.json", "note", lambda doc: doc.update(note="x")),
            ("rule_0/rules.json", "rules", lambda doc: doc["rules"][0].update(note="x")),
            (
                "rule_0/rules.json",
                "rules",
                lambda doc: doc["rules"][0].update(head=(doc["rules"][0]["head"] + 1) % doc["K"]),
            ),
        ],
        ids=["note", "rule_note", "head"],
    )
    def test_rules_json_other_than_the_config_gives_is_refused(
        self, suite_dir, tmp_path, capsys, name, key, tamper
    ):
        broken, file = tampered_copy(suite_dir, tmp_path, name, tamper)
        refused_by_every_reader(broken, not_derived(file, key), capsys)

    def test_rules_json_not_an_object_is_refused(self, suite_dir, tmp_path, capsys):
        broken, file = tampered_copy(suite_dir, tmp_path, "rule_0/rules.json", lambda doc: None)
        file.write_text("[]\n")
        assert main(["solve", str(broken), "--world-id", "0"]) == 2
        assert f"{file}: not a JSON object" in capsys.readouterr().err

    def test_config_with_output_dir_is_refused(self, suite_dir, tmp_path, capsys):
        """A manifest written while the config held ``output_dir``: regenerate it."""
        broken, file = tampered_copy(
            suite_dir, tmp_path, "manifest.json", lambda doc: doc["config"].update(output_dir=None)
        )
        message = f"{file}: bad record (ConfigError(\"unknown config keys: ['output_dir']\"))"
        refused_by_every_reader(broken, message, capsys)

    def test_huge_num_relations_is_refused_before_planning(self, suite_dir, tmp_path, capsys):
        broken, file = tampered_copy(
            suite_dir, tmp_path, "manifest.json", lambda doc: doc["config"].update(num_relations=10_000)
        )
        for command in ("validate", "solve"):
            start = time.perf_counter()
            assert main([command, str(broken), "--workers", "1"]) == 2, command
            assert time.perf_counter() - start < 5, command
            assert f"{file}: bad record (ConfigError('num_relations" in capsys.readouterr().err
        with pytest.raises(SuiteFormatError, match=re.escape(f"{file}: ")):
            read_suite(broken)


def _plus_one(*keys):
    """A tamper that adds 1 to the number found under ``keys``."""

    def tamper(doc):
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        doc[last] += 1

    return tamper


class TestStatsAreDerived:
    """``stats.json`` is ``compute_stats`` of the world's instances under its
    manifest split (``sampling_info`` aside): ``validate``, ``solve`` and
    ``read_suite`` all refuse any other, naming the file and the first key
    that differs."""

    @pytest.mark.parametrize(
        "key, tamper",
        [
            *(
                (key, _plus_one(key))
                for key in (
                    "world_id", "num_classes", "num_descriptors", "avg_resolution_length",
                    "avg_nodes", "avg_edges", "max_walk_len",
                )
            ),
            *(("instances", _plus_one("instances", split)) for split in SPLIT_NAMES),
            ("split", lambda doc: doc.update(split="test")),
            ("max_walk_len", lambda doc: doc.update(max_walk_len=10.0)),
        ],
        ids=[
            "world_id", "num_classes", "num_descriptors", "avg_resolution_length", "avg_nodes",
            "avg_edges", "max_walk_len", *(f"instances_{split}" for split in SPLIT_NAMES),
            "split", "float_max_walk_len",
        ],
    )
    def test_every_reader_refuses_other_stats(self, suite_dir, tmp_path, capsys, key, tamper):
        broken, stats_file = tampered_copy(suite_dir, tmp_path, "rule_0/stats.json", tamper)
        refused_by_every_reader(broken, not_derived(stats_file, key), capsys, "--world-id", "0")

    def test_stats_not_an_object_is_refused(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "stats_list"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        stats_file.write_text("[]\n")
        assert main(["solve", str(broken), "--world-id", "0"]) == 2
        assert f"{stats_file}: not a JSON object" in capsys.readouterr().err


def _sampling_info(update):
    """A tamper that replaces ``stats.json``'s ``sampling_info`` by ``update(info)``."""

    def tamper(doc):
        doc["sampling_info"] = update(dict(doc["sampling_info"]))

    return tamper


def _renamed(info):
    info["descriptom_pairs"] = info.pop("descriptor_pairs")
    return info


class TestSamplingInfoIsCounts:
    """``sampling_info`` is the writer's three counts: exactly the keys
    ``descriptor_pairs``, ``distinct_descriptors`` and ``truncated_edges``,
    each a non-negative integer, with ``descriptor_pairs >=
    distinct_descriptors >= num_descriptors`` and ``truncated_edges`` at
    most the world graph's edge count. Every reader refuses anything else,
    naming ``stats.json`` and the key. (Values that keep these bounds are
    not checked against the world graph yet.)"""

    @pytest.mark.parametrize(
        "update, message",
        [
            (_renamed, "sampling_info holds descriptom_pairs"),
            (lambda info: {"anything": "goes"}, "sampling_info holds anything"),
            (lambda info: [1, 2], "sampling_info is not a JSON object"),
            (lambda info: {**info, "extra": 0}, "sampling_info holds extra"),
            (lambda info: {**info, "truncated_edges": True}, "sampling_info truncated_edges True"),
            (lambda info: {**info, "descriptor_pairs": -1}, "sampling_info descriptor_pairs -1"),
            (lambda info: {**info, "descriptor_pairs": 1.0}, "sampling_info descriptor_pairs 1.0"),
            (
                lambda info: {**info, "distinct_descriptors": info["descriptor_pairs"] + 1},
                "sampling_info distinct_descriptors",
            ),
            # three splits that share no descriptor hold at least three
            (
                lambda info: {**info, "distinct_descriptors": 2},
                "sampling_info distinct_descriptors 2",
            ),
            (
                lambda info: {**info, "truncated_edges": 10**6},
                "sampling_info truncated_edges 1000000",
            ),
        ],
        ids=[
            "renamed_key", "other_object", "list", "extra_key", "true_count", "negative_count",
            "float_count", "distinct_above_pairs", "distinct_below_num_descriptors",
            "truncated_above_edges",
        ],
    )
    def test_every_reader_refuses_other_than_three_counts(
        self, suite_dir, tmp_path, capsys, update, message
    ):
        broken, stats_file = tampered_copy(
            suite_dir, tmp_path, "rule_0/stats.json", _sampling_info(update)
        )
        refused_by_every_reader(broken, f"{stats_file}: {message}", capsys, "--world-id", "0")


class TestInstanceCounts:
    """Each split of each world holds the manifest's ``graphs_per_split``."""

    def test_manifest_count_other_than_the_worlds_hold_fails(self, suite_dir, tmp_path, capsys):
        def one_more_train_instance(doc):
            doc["config"]["graphs_per_split"][0] += 1

        broken, _ = tampered_copy(suite_dir, tmp_path, "manifest.json", one_more_train_instance)
        train = tiny_suite_config().gen.graphs_per_split[0]
        message = (
            f"{broken / 'rule_0' / 'train.jsonl'}: {train} instances, "
            f"not the {train + 1} of graphs_per_split"
        )
        refused_by_every_reader(broken, message, capsys)

    def test_dropped_lines_with_stats_recomputed_fail(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "dropped"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        assert len(lines) == 20
        split_file.write_text("\n".join(lines[:15]) + "\n")
        recompute_stats(broken / "rule_0")
        message = f"{split_file}: 15 instances, not the 20 of graphs_per_split"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")


class TestBlankLines:
    """The writer ends every line with an instance, so a blank line in a
    split file is a bad instance record in every reader."""

    @pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
    def test_every_reader_refuses_a_blank_line(self, suite_dir, tmp_path, capsys, blank):
        broken = tmp_path / "blank"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_0" / "train.jsonl"
        lines = split_file.read_text().splitlines()
        split_file.write_text("\n".join([lines[0], blank, *lines[1:]]) + "\n")
        message = f"{split_file}:2: bad instance record"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")


DEEP_JSON = "[" * 1000 + "]" * 1000  # nested past the parser's recursion limit
LONG_INT = "1" * 5000  # more digits than int() parses by default
INT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
)
UNDECODABLE_INPUTS = pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", ":1: not UTF-8"),
        (DEEP_JSON.encode(), ": invalid JSON (nested too deep)"),
        (b'{"rule_0": 0.9, "rule_0": 0.1}', ": invalid JSON (key 'rule_0' named twice)"),
        pytest.param(
            f'{{"seed": {LONG_INT}}}'.encode(), ": invalid JSON (Exceeds the limit", marks=INT_LIMIT
        ),
    ],
    ids=["utf16_mark", "deep", "repeated_key", "long_int"],
)


class TestUndecodableInput:
    """A byte that is not UTF-8, JSON nested too deep to parse, an object
    that names a key twice (the parser alone would keep the last value) or
    an integer too long for ``int``, in a suite file is a format error
    naming the file (and the line, or the key, where there is one) in every
    reader, and in a command's input file a config error naming it: exit 2,
    never a traceback."""

    @pytest.mark.parametrize(
        "name, line",
        [("manifest.json", 1), ("rule_0/stats.json", 1), ("rule_0/train.jsonl", 3)],
    )
    def test_every_reader_refuses_a_byte_that_is_not_utf8(
        self, suite_dir, tmp_path, capsys, name, line
    ):
        broken = tmp_path / "not_utf8"
        shutil.copytree(suite_dir, broken)
        file = broken / name
        lines = file.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
        file.write_bytes(b"\n".join(lines))
        message = f"{file}:{line}: not UTF-8"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")

    @pytest.mark.parametrize(
        "name, line, message",
        [
            ("manifest.json", 1, ": invalid JSON (nested too deep)"),
            ("rule_0/stats.json", 1, ": invalid JSON (nested too deep)"),
            ("rule_0/train.jsonl", 2, ":2: bad instance record"),
        ],
    )
    def test_every_reader_refuses_json_nested_too_deep(
        self, suite_dir, tmp_path, capsys, name, line, message
    ):
        broken = tmp_path / "deep"
        shutil.copytree(suite_dir, broken)
        file = broken / name
        lines = file.read_text().splitlines()
        lines[line - 1] = DEEP_JSON
        file.write_text("\n".join(lines) + "\n")
        refused_by_every_reader(broken, f"{file}{message}", capsys, "--world-id", "0")

    @pytest.mark.parametrize(
        "name, before, insert, message",
        [
            ("manifest.json", '"config":{', '"stride":99,', "key 'stride' named twice"),
            ("rule_0/stats.json", '"instances":{', '"test":99,', "key 'test' named twice"),
            ("rule_0/rules.json", "{", '"K":99,', "key 'K' named twice"),
            ("rule_0/world_graph.json", "{", '"nodes":0,', "key 'nodes' named twice"),
            pytest.param("manifest.json", '"seed":', LONG_INT, "Exceeds the limit", marks=INT_LIMIT),
        ],
        ids=["manifest", "stats", "rules", "world_graph", "manifest_long_int"],
    )
    def test_every_reader_refuses_a_repeated_key_or_too_long_an_integer(
        self, suite_dir, tmp_path, capsys, name, before, insert, message
    ):
        broken = tmp_path / "inserted"
        shutil.copytree(suite_dir, broken)
        file = broken / name
        file.write_text(file.read_text().replace(before, before + insert, 1))
        message = f"{file}: invalid JSON ({message}"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")

    @pytest.mark.parametrize("key", ["target", "edges", "world_id"])
    def test_every_reader_refuses_an_instance_line_naming_a_key_twice(
        self, suite_dir, tmp_path, capsys, key
    ):
        """The first value is wrong and the last the writer's, which the
        parser alone would keep."""
        broken = tmp_path / "repeated_key"
        shutil.copytree(suite_dir, broken)
        file = broken / "rule_0" / "train.jsonl"
        lines = file.read_text().splitlines()
        lines[0] = f'{{"{key}":99,{lines[0][1:]}'
        file.write_text("\n".join(lines) + "\n")
        message = f"{file}:1: bad instance record (key '{key}' named twice)"
        refused_by_every_reader(broken, message, capsys, "--world-id", "0")

    @UNDECODABLE_INPUTS
    def test_generate_refuses_such_a_config_file(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        assert f"{config}{message}" in capsys.readouterr().err
        assert not out.exists()

    @UNDECODABLE_INPUTS
    def test_stats_refuses_such_an_accuracy_file(
        self, suite_dir, tmp_path, capsys, content, message
    ):
        acc = tmp_path / "acc.json"
        acc.write_bytes(content)
        assert main(["stats", str(suite_dir), "--accuracy", str(acc)]) == 2
        assert f"{acc}{message}" in capsys.readouterr().err


class TestSolve:
    def test_perfect_accuracy_rows(self, suite_dir, capsys):
        rc = main(["solve", str(suite_dir)])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        world_rows = [l for l in out if l.startswith("rule_")]
        assert len(world_rows) == len(manifest["worlds"])
        assert all(row.endswith("1.000") for row in world_rows)
        assert out[-1] == "aggregate 1.000"

    def test_corrupted_target_lowers_accuracy(self, suite_dir, tmp_path, capsys):
        broken = corrupt_one_target(suite_dir, tmp_path)
        main(["solve", str(broken), "--world-id", "0"])
        out = capsys.readouterr().out.strip().splitlines()
        accuracy = float(out[0].split()[1])
        stats = json.loads((broken / "rule_0" / "stats.json").read_text())
        total = sum(stats["instances"].values())
        assert accuracy == pytest.approx((total - 1) / total, abs=5e-4)

    def test_unreadable_suite(self, tmp_path):
        assert main(["solve", str(tmp_path / "missing")]) == 2

    # solve searches paths up to the manifest's bound, so a stats.json that
    # states another one is refused as in validate
    @pytest.mark.parametrize("max_walk_len", [3, 2, 10.0])
    def test_stats_max_walk_len_other_than_manifest_is_format_error(
        self, suite_dir, tmp_path, capsys, max_walk_len
    ):
        broken = tmp_path / "walk_len"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        doc["max_walk_len"] = max_walk_len
        stats_file.write_text(json.dumps(doc))
        assert main(["solve", str(broken), "--world-id", "0"]) == 2
        assert f"{stats_file}: max_walk_len" in capsys.readouterr().err


class TestStats:
    def test_row_per_world_plus_aggregate(self, suite_dir, capsys):
        rc = main(["stats", str(suite_dir)])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        manifest = json.loads((suite_dir / "manifest.json").read_text())
        rows = [l for l in out if l.startswith("rule_")]
        assert len(rows) == len(manifest["worlds"])
        assert out[-1].startswith("AGG")

    def test_difficulty_column_from_accuracy_file(self, suite_dir, tmp_path, capsys):
        scores = {"rule_1": 0.758, "rule_2": 0.638, "rule_0": 0.481}
        acc = tmp_path / "acc.json"
        acc.write_text(json.dumps(scores))
        rc = main(["stats", str(suite_dir), "--accuracy", str(acc)])
        out = capsys.readouterr().out
        assert rc == 0
        for world, label in (("rule_0", "Hard"), ("rule_1", "Easy"), ("rule_2", "Medium")):
            row = next(l for l in out.splitlines() if l.startswith(f"{world} "))
            assert row.rstrip().endswith(label)

    @pytest.mark.parametrize(
        "tamper",
        [lambda doc: doc.pop("num_classes"), lambda doc: doc.update(avg_edges="many")],
        ids=["without_num_classes", "text_avg_edges"],
    )
    def test_malformed_stats_file_is_format_error_naming_it(
        self, suite_dir, tmp_path, capsys, tamper
    ):
        broken = tmp_path / "bad_stats"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        tamper(doc)
        stats_file.write_text(json.dumps(doc))
        assert main(["stats", str(broken)]) == 2
        assert f"{stats_file}:" in capsys.readouterr().err

    def test_stats_rows_match_stats_files(self, suite_dir, capsys):
        assert main(["stats", str(suite_dir), "--world-id", "1"]) == 0
        header, _, row, agg = capsys.readouterr().out.splitlines()
        doc = json.loads((suite_dir / "rule_1" / "stats.json").read_text())
        assert header.split() == ["World", "Split", "NC", "ND", "ARL", "AN", "AE"]
        values = [doc[key] for key in (
            "num_classes", "num_descriptors", "avg_resolution_length", "avg_nodes", "avg_edges"
        )]
        nc, nd, arl, an, ae = values
        assert row.split() == [
            "rule_1", doc["split"], str(nc), str(nd), f"{arl:.2f}", f"{an:.3f}", f"{ae:.3f}"
        ]
        assert agg.split() == ["AGG", *(f"{value:.2f}" for value in values)]

    @pytest.mark.parametrize(
        "scores",
        [
            {"rule_0": "0.9"}, {"rule_0": True}, {"rule_ 0": 0.2}, {"rule_1_0": 0.2},
            {"rule_" + "9" * 5000: 0.2},
        ],
        ids=[
            "string_accuracy", "true_accuracy", "space_in_key", "underscore_in_id",
            "id_of_5000_digits",
        ],
    )
    def test_malformed_accuracy_file_is_config_error_naming_it(
        self, suite_dir, tmp_path, capsys, scores
    ):
        acc = tmp_path / "acc.json"
        acc.write_text(json.dumps(scores))
        assert main(["stats", str(suite_dir), "--accuracy", str(acc)]) == 2
        assert f"{acc}: " in capsys.readouterr().err

    def test_missing_accuracy_file_is_config_error_naming_it(self, suite_dir, tmp_path, capsys):
        acc = tmp_path / "missing.json"
        assert main(["stats", str(suite_dir), "--accuracy", str(acc)]) == 2
        err = capsys.readouterr().err
        assert str(acc) in err and "suite file" not in err

    def test_world_named_twice_is_config_error_naming_both_keys(self, suite_dir, tmp_path, capsys):
        acc = tmp_path / "acc.json"
        acc.write_text(json.dumps({"0": 0.9, "rule_0": 0.1}))
        assert main(["stats", str(suite_dir), "--accuracy", str(acc)]) == 2
        assert f"{acc}: '0' and 'rule_0' name the same world" in capsys.readouterr().err

    # the whole file is checked, not only the worlds a run prints
    @pytest.mark.parametrize(
        "scores, argv",
        [
            ({"rule_0": 1.5}, ["--world-id", "1"]),
            ({"rule_0": 1.5}, ["--world-id", "0"]),
            ({"rule_77": 0.5}, []),
        ],
        ids=["above_one_unprinted_world", "above_one_printed_world", "world_not_planned"],
    )
    def test_accuracy_outside_range_or_plan_is_config_error_naming_file_and_key(
        self, suite_dir, tmp_path, capsys, scores, argv
    ):
        acc = tmp_path / "acc.json"
        acc.write_text(json.dumps(scores))
        assert main(["stats", str(suite_dir), "--accuracy", str(acc), *argv]) == 2
        (key,) = scores
        assert f"{acc}: {key!r}: " in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_world_dir(config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("one_world") / "suite"
    argv = ["generate", "--config", str(config_file), "--out", str(out), "--world-id", "1"]
    assert main(argv) == 0
    return out


class TestOneWorldBuild:
    """A ``generate --world-id`` build lists every world but holds one."""

    @pytest.mark.parametrize("command", ["validate", "solve", "stats"])
    def test_read_with_its_world_id_only(self, one_world_dir, capsys, command):
        assert main([command, str(one_world_dir)]) == 2
        assert f"{one_world_dir / 'rule_0'}" in capsys.readouterr().err
        assert main([command, str(one_world_dir), "--world-id", "1"]) == 0
        capsys.readouterr()
        assert main([command, str(one_world_dir), "--world-id", "999"]) == 2
        worlds = len(plan_suite(tiny_suite_config()).worlds)
        err = capsys.readouterr().err
        assert "999" in err and f"{worlds} worlds" in err

    def test_read_suite_rejects_it_as_validate_does(self, one_world_dir, capsys):
        assert main(["validate", str(one_world_dir)]) == 2
        message = f"{one_world_dir / 'rule_0' / 'rules.json'}: file not found"
        assert message in capsys.readouterr().err
        with pytest.raises(SuiteFormatError, match=re.escape(message)):
            read_suite(one_world_dir)


class TestDeterminism:
    def test_identical_trees_same_seed(self, config_file, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t2"
        assert main(["generate", "--config", str(config_file), "--out", str(a)]) == 0
        assert main(["generate", "--config", str(config_file), "--out", str(b)]) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)

    def test_workers_do_not_change_bytes(self, config_file, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        for out, workers in ((a, "1"), (b, "2")):
            argv = ["generate", "--config", str(config_file), "--out", str(out)]
            assert main(argv + ["--workers", workers]) == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), str(rel)

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_workers_do_not_change_reports(self, suite_dir, capsys, command):
        outputs = []
        for workers in ("1", "2"):
            assert main([command, str(suite_dir), "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_workers_do_not_change_format_errors(self, suite_dir, tmp_path, capsys, command):
        broken = tmp_path / "bad_line"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_1" / "valid.jsonl"
        lines = split_file.read_text().splitlines()
        lines[2] = '{"edges": [[0, 1]]}'
        split_file.write_text("\n".join(lines) + "\n")
        errors = []
        for workers in ("1", "2"):
            assert main([command, str(broken), "--workers", workers]) == 2
            errors.append(capsys.readouterr().err)
        assert f"{split_file}:3:" in errors[0]
        assert errors[0] == errors[1]
