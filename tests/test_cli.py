import json
import re
import shutil

import pytest

from logicworlds.cli import main
from logicworlds.dataset_io import compute_stats, read_world
from logicworlds.errors import SuiteFormatError
from logicworlds.suite import plan_suite, read_suite

from conftest import tiny_suite_config


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

    def test_unreadable_suite(self, tmp_path):
        assert main(["validate", str(tmp_path / "nowhere")]) == 2

    def test_descriptor_shared_between_splits_fails(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "leak"
        shutil.copytree(suite_dir, broken)
        train_line = (broken / "rule_0" / "train.jsonl").read_text().splitlines()[0]
        with open(broken / "rule_0" / "test.jsonl", "a") as test_file:
            test_file.write(train_line + "\n")
        rc = main(["validate", str(broken)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["valid"] == report["instances"]
        assert report["worlds"]["rule_0"]["split_leaks"] == 1
        assert report["split_leaks"] == 1

    def test_tampered_stats_fail(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "stats"
        shutil.copytree(suite_dir, broken)
        stats_file = broken / "rule_0" / "stats.json"
        doc = json.loads(stats_file.read_text())
        doc["avg_nodes"] = 99.5
        stats_file.write_text(json.dumps(doc))
        rc = main(["validate", str(broken)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["valid"] == report["instances"]
        assert report["worlds"]["rule_0"]["stats_mismatch"] == 1
        assert report["stats_mismatch"] == 1

    def test_tampered_rules_fail(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "rules"
        shutil.copytree(suite_dir, broken)
        rules_file = broken / "rule_0" / "rules.json"
        doc = json.loads(rules_file.read_text())
        rule = doc["rules"][0]
        rule["head"] = (rule["head"] + 1) % doc["K"]
        rules_file.write_text(json.dumps(doc))
        rc = main(["validate", str(broken)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["rules_mismatch"] == 1
        assert report["worlds"]["rule_0"]["rules_mismatch"] == 1
        assert all(w["rules_mismatch"] == 0 for n, w in report["worlds"].items() if n != "rule_0")

    def test_one_relation_descriptor_fails(self, suite_dir, tmp_path, capsys):
        # the line certifies (its one edge is its own resolution) and the
        # stats are recomputed with it, but a descriptor needs 2 relations
        broken = tmp_path / "short_walk"
        shutil.copytree(suite_dir, broken)
        r = json.loads((broken / "rule_0" / "train.jsonl").read_text().splitlines()[0])["target"]
        line = {
            "edges": [[0, r, 1]], "query": [0, 1], "target": r,
            "resolution_path": [0, 1], "descriptor": [r], "world_id": 0,
        }
        with open(broken / "rule_0" / "test.jsonl", "a") as test_file:
            test_file.write(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
        _, ds, stats_doc = read_world(broken, 0)
        stats_doc = compute_stats(ds, stats_doc["split"])
        (broken / "rule_0" / "stats.json").write_text(json.dumps(stats_doc))
        rc = main(["validate", str(broken), "--world-id", "0"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["valid"] == report["instances"]
        assert report["stats_mismatch"] == report["split_leaks"] == 0
        assert report["walk_len_violations"] == 1
        assert report["worlds"]["rule_0"]["walk_len_violations"] == 1

    def test_world_without_instances_is_format_error(self, suite_dir, tmp_path, capsys):
        broken = tmp_path / "empty"
        shutil.copytree(suite_dir, broken)
        for split in ("train", "valid", "test"):
            (broken / "rule_0" / f"{split}.jsonl").write_text("")
        rc = main(["validate", str(broken)])
        assert rc == 2
        assert f"{broken / 'rule_0'}: world has no instances" in capsys.readouterr().err

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
        for command in ("validate", "solve", "stats"):
            assert main([command, str(broken)]) == 2, command
            assert f"{manifest_file}:" in capsys.readouterr().err, command
        with pytest.raises(SuiteFormatError, match=re.escape(f"{manifest_file}:")):
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
        assert f"{manifest_file}: worlds[0] has no split" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_instance_of_another_world_is_format_error(
        self, suite_dir, tmp_path, capsys, command
    ):
        broken = tmp_path / "moved_instance"
        shutil.copytree(suite_dir, broken)
        split_file = broken / "rule_1" / "test.jsonl"
        lines = split_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["world_id"] = 0
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        split_file.write_text("\n".join(lines) + "\n")
        message = f"{split_file}:2: instance of world 0 in world 1"
        assert main([command, str(broken)]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(SuiteFormatError, match=re.escape(message)):
            read_suite(broken)

    @pytest.mark.parametrize(
        "name, tamper",
        [
            ("stats.json", lambda doc: doc.pop("max_walk_len")),
            ("rules.json", lambda doc: doc["rules"][0].pop("head")),
            ("world_graph.json", lambda doc: doc["edges"][0].pop()),
        ],
        ids=["stats_without_max_walk_len", "rule_without_head", "two_field_graph_edge"],
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
        scores = {"rule_9": 0.758, "rule_54": 0.638, "rule_0": 0.481}
        acc = tmp_path / "acc.json"
        acc.write_text(json.dumps(scores))
        rc = main(["stats", str(suite_dir), "--accuracy", str(acc)])
        out = capsys.readouterr().out
        assert rc == 0
        row0 = next(l for l in out.splitlines() if l.startswith("rule_0 "))
        assert row0.rstrip().endswith("Hard")

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
        main(["stats", str(suite_dir), "--world-id", "1"])
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("rule_1"))
        doc = json.loads((suite_dir / "rule_1" / "stats.json").read_text())
        cells = row.split()
        assert cells[2] == str(doc["num_classes"])
        assert cells[3] == str(doc["num_descriptors"])
        assert float(cells[4]) == pytest.approx(doc["avg_resolution_length"], abs=5e-3)


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
        message = f"{one_world_dir / 'rule_0' / 'rules.json'}: missing suite file"
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
