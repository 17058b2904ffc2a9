"""A seeded byte-level census of world 0 of a one-world tiny suite: no
edit of one byte, of any value, makes a command end in a traceback.

Each trial edits one file of the suite (its manifest or a file of
``rule_0``) once: a byte flipped to any value, a byte of any value
inserted, a byte deleted, or the file truncated. ``validate``, ``solve``
and ``stats`` then run in-process through ``cli.main`` on world 0, and
each must return 0, 1 or 2. Run with ``-s`` to see, per file, the share
of edits each command accepts (exits 0 on): a rewritten digit of a
``sampling_info`` count or of ``world_graph.json`` may still pass
(ROADMAP items 5 and 12), though a renamed ``sampling_info`` key is
refused, and a flip may rewrite a byte to itself.
"""

import contextlib
import io
import random

import pytest

from logicworlds.cli import main
from logicworlds.suite import generate_suite_to_disk, plan_suite

from conftest import tiny_suite_config

SEED = 2026
TRIALS_PER_FILE = 80
FILES = (
    "manifest.json",
    "rule_0/rules.json",
    "rule_0/world_graph.json",
    "rule_0/stats.json",
    "rule_0/train.jsonl",
    "rule_0/valid.jsonl",
    "rule_0/test.jsonl",
)
COMMANDS = ("validate", "solve", "stats")
EDITS = ("flip", "insert", "delete", "truncate")


def edited(data: bytes, rng: random.Random) -> tuple[str, int, bytes]:
    """One random edit of ``data``: its kind, its offset and the result."""
    kind, at, byte = rng.choice(EDITS), rng.randrange(len(data)), bytes([rng.randrange(256)])
    if kind == "flip":
        return kind, at, data[:at] + byte + data[at + 1:]
    if kind == "insert":
        return kind, at, data[:at] + byte + data[at:]
    if kind == "delete":
        return kind, at, data[:at] + data[at + 1:]
    return kind, at, data[:at]


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "suite"
    generate_suite_to_disk(plan_suite(tiny_suite_config()), out, world_ids=[0])
    return out


def test_no_byte_edit_escapes_main(suite):
    rng = random.Random(SEED)
    accepted = {name: dict.fromkeys(COMMANDS, 0) for name in FILES}
    for name in FILES:
        file = suite / name
        intact = file.read_bytes()
        for _ in range(TRIALS_PER_FILE):
            kind, at, data = edited(intact, rng)
            file.write_bytes(data)
            for command in COMMANDS:
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = main([command, str(suite), "--world-id", "0"])
                except Exception as exc:
                    pytest.fail(f"{command} raised {exc!r}: {kind} at byte {at} of {name}")
                assert code in (0, 1, 2), f"{command} returned {code}: {kind} at byte {at} of {name}"
                accepted[name][command] += code == 0
        file.write_bytes(intact)
    for name, counts in accepted.items():
        shares = ", ".join(f"{command} {n}/{TRIALS_PER_FILE}" for command, n in counts.items())
        print(f"accepted edits of {name}: {shares}")
