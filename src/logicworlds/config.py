"""Suite configuration: JSON schema, defaults, validation.

Defaults: 20 relations, half of them symmetric, 20 rules per world at
stride 1, 5000/1000/1000 graphs per world, resolution lengths 2..10.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .worldgraph import GenConfig


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
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.num_relations < 2:
            raise ConfigError("num_relations must be at least 2")
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
    """Inverse of :meth:`SuiteConfig.to_dict`; omitted keys take the defaults."""
    gen_keys = {f.name for f in fields(GenConfig)}
    suite_keys = {f.name for f in fields(SuiteConfig)} - {"gen"}
    unknown = set(doc) - suite_keys - gen_keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    gen_kwargs = {
        k: tuple(v) if isinstance(v, list) else v for k, v in doc.items() if k in gen_keys
    }
    suite_kwargs = {k: v for k, v in doc.items() if k in suite_keys}
    return SuiteConfig(gen=GenConfig(**gen_kwargs), **suite_kwargs)


def load_config(path: str | Path) -> SuiteConfig:
    """Read and validate a JSON config file."""
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    try:
        return config_from_dict(doc)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")
