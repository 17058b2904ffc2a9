"""Suite configuration: JSON schema, defaults, validation.

Defaults: 20 relations, half of them symmetric, 20 rules per world at
stride 1, 5000/1000/1000 graphs per world, resolution lengths 2..10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .worldgraph import GenConfig

# Planning grows about as K^3 (seconds of CPU for plan_suite at rules_per_world
# 1, CPython 3.11 on a 2-CPU x86-64 VM: 0.04 at K = 32, 0.21 at 48, 0.55 at 64,
# 1.32 at 80). Every command re-plans from a manifest's config, so the cap
# bounds what a hostile num_relations can cost before any work starts.
MAX_RELATIONS = 64


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    num_relations: int = 20
    symmetric_fraction: float = 0.5
    rules_per_world: int = 20
    stride: int = 1
    valid_worlds: int = 3
    test_worlds: int = 3
    gen: GenConfig = field(default_factory=GenConfig)

    def __post_init__(self) -> None:
        if not 2 <= self.num_relations <= MAX_RELATIONS:
            raise ConfigError(f"num_relations must lie in [2, {MAX_RELATIONS}]")
        if not 0.0 <= self.symmetric_fraction <= 1.0:
            raise ConfigError("symmetric_fraction must lie in [0, 1]")
        if self.rules_per_world < 1 or self.stride < 1:
            raise ConfigError("rules_per_world and stride must be positive")
        if self.valid_worlds < 0 or self.test_worlds < 0:
            raise ConfigError("world split counts cannot be negative")

    def to_dict(self) -> dict:
        """The flat JSON form: every field but ``gen``, then every GenConfig field."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "gen"}
        doc.update((f.name, getattr(self.gen, f.name)) for f in fields(self.gen))
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


def config_from_dict(doc: dict) -> SuiteConfig:
    """Inverse of :meth:`SuiteConfig.to_dict`; omitted keys take the defaults.

    Each value must have its field's annotated type: a ``bool`` is not an
    ``int``, an ``int`` is a valid ``float``, and a tuple field takes a
    list whose elements are checked one by one. A ``doc`` that is not a
    JSON object is a ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    gen_keys = {f.name for f in fields(GenConfig)}
    suite_keys = {f.name for f in fields(SuiteConfig)} - {"gen"}
    unknown = set(doc) - suite_keys - gen_keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    hints = {**get_type_hints(GenConfig), **get_type_hints(SuiteConfig)}
    for key, value in doc.items():
        hint = hints[key]
        if not _has_type(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"config key {key!r}: {value!r} is not of type {name}")
    gen_kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k in gen_keys
    }
    suite_kwargs = {k: v for k, v in doc.items() if k in suite_keys}
    return SuiteConfig(gen=GenConfig(**gen_kwargs), **suite_kwargs)


def _has_type(value, hint) -> bool:
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(
            _has_type(item, arg) for item, arg in zip(value, args)
        )
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``. A missing file or a byte that is not UTF-8
    is ``error`` (ConfigError for a command's input, SuiteFormatError for a
    suite file) naming the file, and the line of the byte."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"{path}: file not found")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 ({exc.reason})")


def load_json(path: str | Path, error: type[Exception]):
    """The JSON document in ``path`` (:func:`read_text`); invalid JSON, JSON
    nested too deep to parse, an object that names a key twice or an
    integer too long for ``int`` is ``error`` naming the file (and the key)."""
    text = read_text(path, error)
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
    except ValueError as exc:  # from _unique_keys, or int()'s digit limit
        raise error(f"{path}: invalid JSON ({exc})")
    except RecursionError:
        raise error(f"{path}: invalid JSON (nested too deep)")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of ``pairs``; a key named twice is a ValueError naming it."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} named twice")
    return doc


def load_config(path: str | Path) -> SuiteConfig:
    """Read and validate a JSON config file."""
    doc = load_json(path, ConfigError)
    try:
        return config_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")
