"""Shared CLI config: key=value with [sections], SPA_CONFIG as fallback path.

Unknown sections or keys are rejected outright so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

ENV_VAR = "SPA_CONFIG"

# the only list of settable keys; the CLI builds the `pretrain` and
# `train-side` flags from [model] and [train], each with its key as dest
SCHEMA: dict[str, dict[str, type]] = {
    "model": {
        "n_layers": int,
        "d_model": int,
        "n_heads": int,
        "d_ff": int,
        "max_seq_len": int,
        "side_reduction": int,
    },
    "train": {
        "learning_rate": float,
        "batch_size": int,
        "epochs": int,
        "seed": int,
        "gate_margin": float,
        "usage_weight": float,
        "block_size": int,
    },
    "latency": {
        "profile": str,
    },
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
