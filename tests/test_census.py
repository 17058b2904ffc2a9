"""A tamper census of world 0 of the tiny suite: how much of a suite can
still be edited unnoticed.

Each edit adds 1 to one number of one file and re-renders the file as the
writer would (compact, key-sorted JSON, ``conftest.render``), or moves or
drops one instance line and recomputes ``stats.json``. A class of edits
takes at most ``CAP`` of its candidates, evenly spaced. The census records whether ``validate
--world-id 0`` exits 0 and, for every class but instance-line content
(which ``solve`` and ``read_suite`` are meant to load and score), whether
``read_suite`` loads the suite.

``OPEN`` maps each (class, reader) pair that still accepts edits to the
ROADMAP items that close it. Every other pair must refuse every edit of
its class. A change that closes a pair removes it from ``OPEN``: an open
pair that refuses every edit fails here too, so the list only shrinks.
Run with ``-s`` to see the accepted share of every class.
"""

import contextlib
import io
import json

import pytest

from logicworlds.cli import main
from logicworlds.errors import SuiteFormatError
from logicworlds.sampler import SPLIT_NAMES
from logicworlds.suite import generate_suite_to_disk, plan_suite, read_suite

from conftest import recompute_stats, render, tiny_suite_config

CAP = 20
VALIDATE, READ_SUITE = "validate", "read_suite"
GROWTH_SETTINGS = ("cycles", "max_expansions", "node_pool", "noise_depth")

OPEN = {
    ("rule_0/world_graph.json", VALIDATE): "items 5 and 12",
    ("rule_0/world_graph.json", READ_SUITE): "items 5 and 12",
    ("rule_0/stats.json sampling_info", VALIDATE): "items 3, 5 and 13",
    ("rule_0/stats.json sampling_info", READ_SUITE): "items 3, 5 and 13",
    ("instance lines, edges", VALIDATE): "item 12",
    **{
        (f"manifest.json config {key}", reader): "item 12"
        for key in GROWTH_SETTINGS
        for reader in (VALIDATE, READ_SUITE)
    },
}


def numbers(doc, path=()):
    """The path of every JSON number (not a bool) in ``doc``, in key order."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from numbers(doc[key], (*path, key))
    elif isinstance(doc, list):
        for index, item in enumerate(doc):
            yield from numbers(item, (*path, index))
    elif type(doc) in (int, float):
        yield path


def spaced(items: list) -> list:
    """At most CAP of ``items``, evenly spaced."""
    if len(items) <= CAP:
        return items
    return [items[i * len(items) // CAP] for i in range(CAP)]


def plus_one(doc, path) -> None:
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] += 1


def file_edits(name, keep):
    """The +1 edits of the numbers of JSON file ``name`` whose path ``keep`` takes."""

    def edits(suite):
        file = suite / name
        doc = json.loads(file.read_text())

        def edit(path):
            def apply():
                copy = json.loads(file.read_text())
                plus_one(copy, path)
                file.write_text(render(copy) + "\n")

            return apply

        return [edit(path) for path in spaced([p for p in numbers(doc) if keep(p)])]

    return edits


def read_lines(world) -> dict[str, list[str]]:
    return {split: (world / f"{split}.jsonl").read_text().splitlines() for split in SPLIT_NAMES}


def write_lines(world, lines: dict[str, list[str]]) -> None:
    for split, items in lines.items():
        (world / f"{split}.jsonl").write_text("".join(line + "\n" for line in items))


def line_number_edits(keep):
    """The +1 edits of the numbers of world 0's instance lines under a key
    ``keep`` takes; ``stats.json`` is left as it was."""

    def edits(suite):
        world = suite / "rule_0"
        lines = read_lines(world)
        slots = [
            (split, index, path)
            for split in SPLIT_NAMES
            for index, line in enumerate(lines[split])
            for path in numbers(json.loads(line))
            if keep(path[0])
        ]

        def edit(split, index, path):
            def apply():
                doc = json.loads(lines[split][index])
                plus_one(doc, path)
                write_lines(world, {split: [*lines[split][:index], render(doc),
                                            *lines[split][index + 1:]]})

            return apply

        return [edit(*slot) for slot in spaced(slots)]

    return edits


def line_edits(move: bool):
    """Each of world 0's instance lines dropped, or moved to the end of the
    next split (test to train), with ``stats.json`` recomputed."""

    def edits(suite):
        world = suite / "rule_0"
        lines = read_lines(world)

        def edit(split, index):
            def apply():
                changed = {name: list(items) for name, items in lines.items()}
                line = changed[split].pop(index)
                if move:
                    changed[SPLIT_NAMES[(SPLIT_NAMES.index(split) + 1) % 3]].append(line)
                write_lines(world, changed)
                recompute_stats(world)

            return apply

        slots = [(split, index) for split in SPLIT_NAMES for index in range(len(lines[split]))]
        return [edit(*slot) for slot in spaced(slots)]

    return edits


BOTH = (VALIDATE, READ_SUITE)
CLASSES = {
    **{
        f"manifest.json config {key}": (
            BOTH,
            file_edits("manifest.json", lambda p, key=key: p == ("config", key)),
        )
        for key in GROWTH_SETTINGS
    },
    "manifest.json config, every other number": (
        BOTH,
        file_edits("manifest.json", lambda p: p[0] == "config" and p[1] not in GROWTH_SETTINGS),
    ),
    "manifest.json outside config": (BOTH, file_edits("manifest.json", lambda p: p[0] != "config")),
    "rule_0/rules.json": (BOTH, file_edits("rule_0/rules.json", lambda p: True)),
    "rule_0/world_graph.json": (BOTH, file_edits("rule_0/world_graph.json", lambda p: True)),
    "rule_0/stats.json sampling_info": (
        BOTH,
        file_edits("rule_0/stats.json", lambda p: p[0] == "sampling_info"),
    ),
    "rule_0/stats.json, every other number": (
        BOTH,
        file_edits("rule_0/stats.json", lambda p: p[0] != "sampling_info"),
    ),
    "instance lines, edges": ((VALIDATE,), line_number_edits(lambda key: key == "edges")),
    "instance lines, every other number": (
        (VALIDATE,),
        line_number_edits(lambda key: key != "edges"),
    ),
    "a line moved to the next split, stats.json recomputed": (BOTH, line_edits(move=True)),
    "a line dropped, stats.json recomputed": (BOTH, line_edits(move=False)),
}


def accepts(reader, suite) -> bool:
    if reader == READ_SUITE:
        try:
            read_suite(suite)
        except SuiteFormatError:
            return False
        return True
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["validate", str(suite), "--world-id", "0", "--workers", "1"]) == 0


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """Class -> reader -> (edits accepted, edits made)."""
    suite = tmp_path_factory.mktemp("census") / "suite"
    generate_suite_to_disk(plan_suite(tiny_suite_config()), suite)
    touched = [suite / "manifest.json", *(suite / "rule_0").iterdir()]
    intact = {file: file.read_text() for file in touched}
    assert all(accepts(reader, suite) for reader in BOTH)
    result = {}
    for name, (readers, edits) in CLASSES.items():
        counts = dict.fromkeys(readers, 0)
        made = edits(suite)
        for apply in made:
            apply()
            for reader in readers:
                counts[reader] += accepts(reader, suite)
            for file, text in intact.items():
                file.write_text(text)
        result[name] = {reader: (accepted, len(made)) for reader, accepted in counts.items()}
    return result


@pytest.mark.parametrize("name", CLASSES)
def test_class_is_refused_unless_open(census, name):
    for reader, (accepted, made) in census[name].items():
        item = OPEN.get((name, reader))
        assert made > 0
        if item is None:
            assert accepted == 0, f"{reader} accepts {accepted} of {made} edits: {name}"
        else:
            print(f"open ({item}): {reader} accepts {accepted} of {made} edits: {name}")
            assert accepted > 0, f"{reader} refuses every edit of {name}: remove it from OPEN"


def test_open_pairs_are_census_pairs():
    for name, reader in OPEN:
        assert name in CLASSES and reader in CLASSES[name][0], (name, reader)
