"""Analytic latency model for split decoding.

Total latency for a generation decomposes additively:

    t_total = t_on_devices + t_pretrained + t_net

with the device term F_data * C_devices / f_e per token (the device-count
factor multiplies, deliberately verbatim; pass cdev_divides=True for the
conventional reading) and the network term

    t_net = n_tokens * M * (tau + t_data)

where M is the per-token transmission count of the architecture. The
comparison table also carries a bundled reference column set, measured on a
32-layer cloud deployment, because the reference rows' per-transmission
costs are not mutually consistent under any single (tau + t_data)
calibration; per-architecture overrides exist for exactly that reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .decoding import count_transmissions
from .errors import ConfigError, DomainError

# reference measurements for a 32-layer cloud model, 50 generated tokens:
# (param %, inference latency s, net latency s, total latency s, ratio)
REFERENCE_ROWS = {
    "lora": (0.19, 3.26, 6.37, 9.63, 32.0),
    "adapter": (0.38, 3.32, 12.56, 15.88, 64.0),
    "lst": (0.20, 3.29, 0.31, 3.60, 1.0),
    "spa": (0.21, 3.30, 0.18, 3.48, 0.62),
}
TABLE_ARCHS = ("lora", "adapter", "lst", "spa")


@dataclass(frozen=True)
class LatencyProfile:
    tau: float = 2.0e-3  # TCP/IP connection latency, seconds
    t_data: float = 4.2e-3  # payload transfer time per transmission, seconds
    f_e: float = 1.0e9  # device compute capability, FLOP/s
    f_data: float = 0.0  # device-side workload per token, FLOPs
    c_devices: int = 1  # device processors
    t_pretrained: float = 0.0658  # cloud base model, seconds per token

    def __post_init__(self):
        if self.f_e <= 0:
            raise DomainError("f_e must be positive")
        for name in ("tau", "t_data", "f_data", "t_pretrained"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.c_devices < 0:
            raise DomainError("c_devices must be >= 0")


PROFILE_KEYS = ("tau", "t_data", "f_e", "F_data", "C_devices", "t_pretrained")


def parse_profile(path: str | Path) -> LatencyProfile:
    """Plain-text key=value profile; keys tau, t_data, f_e, F_data,
    C_devices, t_pretrained; '#' starts a comment."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PROFILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown profile key {key!r}")
        try:
            number = float(value.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {value.strip()!r} is not a number") from None
        kind = "whole" if key == "C_devices" else "finite"  # is_integer() is False for nan, inf
        if not (number.is_integer() if kind == "whole" else math.isfinite(number)):
            raise ConfigError(f"{path}:{lineno}: {key} must be a {kind} number, got {value.strip()!r}")
        values[key] = number
    kwargs = {
        "tau": values.get("tau", LatencyProfile.tau),
        "t_data": values.get("t_data", LatencyProfile.t_data),
        "f_e": values.get("f_e", LatencyProfile.f_e),
        "f_data": values.get("F_data", LatencyProfile.f_data),
        "c_devices": int(values.get("C_devices", LatencyProfile.c_devices)),
        "t_pretrained": values.get("t_pretrained", LatencyProfile.t_pretrained),
    }
    try:
        return LatencyProfile(**kwargs)
    except DomainError as e:
        raise ConfigError(f"{path}: {e}") from None


def t_on_devices(profile: LatencyProfile, cdev_divides: bool = False) -> float:
    """Device compute seconds per token: F_data * C_devices / f_e."""
    if profile.f_e <= 0:
        raise DomainError("f_e must be positive")
    if cdev_divides:
        if profile.c_devices == 0:
            raise DomainError("c_devices must be positive when dividing")
        return profile.f_data / (profile.c_devices * profile.f_e)
    return profile.f_data * profile.c_devices / profile.f_e


def t_net(profile: LatencyProfile, m: float, n_tokens: int, per_tx_cost: float | None = None) -> float:
    """Network seconds for n_tokens at M transmissions per token."""
    if m < 0:
        raise DomainError("M must be >= 0")
    cost = (profile.tau + profile.t_data) if per_tx_cost is None else per_tx_cost
    return n_tokens * m * cost


def t_total(
    profile: LatencyProfile,
    m: float,
    n_tokens: int,
    cdev_divides: bool = False,
    per_tx_cost: float | None = None,
) -> float:
    return (
        t_on_devices(profile, cdev_divides) * n_tokens
        + profile.t_pretrained * n_tokens
        + t_net(profile, m, n_tokens, per_tx_cost)
    )


@dataclass
class ArchLatencyRow:
    arch: str
    param_percent: float | None
    m_per_token: float
    t_on_devices: float
    t_pretrained: float
    t_net: float
    t_total: float
    ratio: float
    ref_infer: float | None = None
    ref_net: float | None = None
    ref_total: float | None = None
    ref_ratio: float | None = None


def build_comparison_table(
    profile: LatencyProfile,
    usage: float,
    n_layers: int,
    n_tokens: int = 50,
    cdev_divides: bool = False,
    per_arch_cost: dict[str, float] | None = None,
    gate_trace=None,
) -> list[ArchLatencyRow]:
    """One row per architecture; modeled and reference columns side by side."""
    if n_layers < 1:
        raise DomainError("n_layers must be >= 1")
    if not 0.0 <= usage <= 1.0:
        raise DomainError("usage must lie in [0, 1]")
    trace = gate_trace if gate_trace is not None else [usage]
    rows = []
    per_arch_cost = per_arch_cost or {}
    for arch in TABLE_ARCHS:
        m = count_transmissions(arch, n_layers, 0, trace if arch == "spa" else None)
        if arch == "spa" and gate_trace is None:
            m = usage
        cost = per_arch_cost.get(arch)
        dev = t_on_devices(profile, cdev_divides) * n_tokens
        pre = profile.t_pretrained * n_tokens
        net = t_net(profile, m, n_tokens, cost)
        ref = REFERENCE_ROWS.get(arch)
        rows.append(
            ArchLatencyRow(
                arch=arch,
                param_percent=ref[0] if ref else None,
                m_per_token=m,
                t_on_devices=dev,
                t_pretrained=pre,
                t_net=net,
                t_total=dev + pre + net,
                ratio=m,
                ref_infer=ref[1] if ref else None,
                ref_net=ref[2] if ref else None,
                ref_total=ref[3] if ref else None,
                ref_ratio=ref[4] if ref else None,
            )
        )
    return rows


_COLUMNS = (
    ("arch", "Arch"),
    ("param_percent", "Param%(ref)"),
    ("ratio", "Ratio"),
    ("t_on_devices", "Device s"),
    ("t_pretrained", "Infer s"),
    ("t_net", "Net s"),
    ("t_total", "Total s"),
    ("ref_infer", "RefInfer"),
    ("ref_net", "RefNet"),
    ("ref_total", "RefTotal"),
    ("ref_ratio", "RefRatio"),
)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_rows(rows: list[ArchLatencyRow], fmt: str = "table") -> str:
    if fmt == "json":
        return json.dumps([row.__dict__ for row in rows], indent=2, sort_keys=True)
    grid = [[header for _, header in _COLUMNS]]
    for row in rows:
        grid.append([_cell(getattr(row, attr)) for attr, _ in _COLUMNS])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(grid)
        return buf.getvalue()
    if fmt != "table":
        raise ConfigError(f"unknown format {fmt!r}; choose table, csv, or json")
    widths = [max(len(r[i]) for r in grid) for i in range(len(_COLUMNS))]
    lines = []
    for i, row in enumerate(grid):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
