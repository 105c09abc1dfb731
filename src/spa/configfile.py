"""Shared CLI config: key=value with [sections], SPA_CONFIG as fallback path.

The [model] and [train] keys and their types are read from the fields of
`ModelConfig` (less `vocab_size`, which the tokenizer fixes) and
`TrainConfig`, in declaration order. Unknown sections or keys are rejected
outright so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

ENV_VAR = "SPA_CONFIG"


def _fields(config_cls, fixed=()) -> dict[str, type]:
    """A config dataclass's settable fields, in order, each with its type."""
    types = get_type_hints(config_cls)
    return {f.name: types[f.name] for f in fields(config_cls) if f.name not in fixed}


# the settable keys; the CLI builds the `pretrain` and `train-side` flags
# from [model] and [train], each with its key as dest
SCHEMA: dict[str, dict[str, type]] = {
    "model": _fields(ModelConfig, fixed=("vocab_size",)),
    "train": _fields(TrainConfig),
    "latency": {"profile": str},
}


@dataclass
class CliConfig:
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    source: str | None = None

    def section(self, name: str) -> dict:
        return getattr(self, name)


def load_config(path: str | Path) -> CliConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(p.read_text(encoding="utf-8"), source=str(p))
    except configparser.Error as e:
        raise ConfigError(f"{p}: {e}") from e
    cfg = CliConfig(source=str(p))
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"{p}: unknown section [{section}]")
        schema = SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{p}: unknown key {key!r} in [{section}]")
            caster = schema[key]
            try:
                value = caster(raw)
            except ValueError:
                raise ConfigError(
                    f"{p}: key {key!r} in [{section}] needs a {caster.__name__}, got {raw!r}"
                ) from None
            cfg.section(section)[key] = value
    return cfg


def resolve_config(explicit_path: str | None) -> CliConfig:
    """Explicit --config wins; otherwise the SPA_CONFIG env var; else empty."""
    if explicit_path:
        return load_config(explicit_path)
    env = os.environ.get(ENV_VAR)
    if env:
        return load_config(env)
    return CliConfig()
