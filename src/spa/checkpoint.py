"""Checkpoint file format.

Layout (all integers little-endian):

    magic            4 bytes  b"SPA1"
    version          u32      currently 1
    config length    u32
    config           UTF-8 canonical JSON (sorted keys, no whitespace)
    param count      u32
    per parameter, sorted by name:
        name length  u16
        name         UTF-8
        ndim         u8
        dims         ndim x u32
        data         float64 little-endian, C order
    checksum         32 bytes, SHA-256 over everything above

Loading verifies magic, then the checksum over the whole body, then the
version, then the parameter schema, each with its own error type. A
truncated file therefore fails the checksum rather than crashing a parser.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpaError
from .model import BaseParams, GateParams, ModelConfig, SideParams, SpaModel

MAGIC = b"SPA1"
FORMAT_VERSION = 1

# the parameter groups each kind carries: a side file holds what the device
# reads (the side net), the cloud's the base and gate
KIND_GROUPS = {
    "full": ("base", "side", "gate"),
    "base": ("base",),
    "cloud": ("base", "gate"),
    "side": ("side",),
}
KINDS = tuple(KIND_GROUPS)


class CheckpointError(SpaError):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


class CheckpointSchemaError(CheckpointError):
    pass


def compat_digest(config: ModelConfig, base_digest: str) -> str:
    """Identity of (architecture, frozen base); both endpoints must agree."""
    return hashlib.sha256((config.canonical_json() + base_digest).encode()).hexdigest()


def write_raw(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    cfg_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(cfg_bytes))
    out += cfg_bytes
    names = sorted(arrays)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode()
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.tobytes()
    out += hashlib.sha256(bytes(out)).digest()
    Path(path).write_bytes(bytes(out))


def read_raw(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic bytes")
    if len(blob) < 4 + 4 + 32:
        raise CheckpointChecksumError(f"{path}: file too short, checksum cannot verify")
    body, trailer = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != trailer:
        raise CheckpointChecksumError(f"{path}: checksum mismatch (corrupt or truncated)")
    try:
        off = 4
        (version,) = struct.unpack_from("<I", body, off)
        off += 4
        if version != FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, this build reads {FORMAT_VERSION}"
            )
        (cfg_len,) = struct.unpack_from("<I", body, off)
        off += 4
        meta = json.loads(body[off : off + cfg_len].decode())
        off += cfg_len
        (n_params,) = struct.unpack_from("<I", body, off)
        off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off : off + name_len].decode()
            off += name_len
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", body, off) if ndim else ()
            off += 4 * ndim
            count = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(dims)
            off += 8 * count
            arrays[name] = arr.astype(np.float64).copy()
    except CheckpointError:
        raise
    except (struct.error, ValueError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint body: {e}") from e
    return meta, arrays


def _kind_arrays(model: SpaModel, kind: str) -> dict[str, np.ndarray]:
    """The named arrays a checkpoint of `kind` stores for `model`."""
    return {f"{g}.{n}": t.data for g in KIND_GROUPS[kind] for n, t in getattr(model, g).named()}


def _expected_names(config: ModelConfig, kind: str) -> set[str]:
    return set(_kind_arrays(SpaModel.create(config, seed=0), kind))


@dataclass
class LoadedCheckpoint:
    kind: str
    config: ModelConfig
    train_config: dict | None
    base_digest: str
    compat_digest: str
    arrays: dict[str, np.ndarray]

    def build_model(self) -> SpaModel:
        """Materialize a SpaModel from a full checkpoint (base arrives frozen)."""
        if self.kind != "full":
            raise CheckpointSchemaError(f"cannot build a full model from a {self.kind} checkpoint")
        model = SpaModel.create(self.config, seed=0)
        model.base.load_arrays(_strip(self.arrays, "base."))
        model.side.load_arrays(_strip(self.arrays, "side."))
        model.gate.load_arrays(_strip(self.arrays, "gate."))
        model.base.freeze()
        return model

    def build_base_model(self, seed: int = 0) -> SpaModel:
        """Frozen base from this checkpoint, fresh (seeded) side and gate."""
        if self.kind not in ("full", "base", "cloud"):
            raise CheckpointSchemaError(f"{self.kind} checkpoint carries no base parameters")
        model = SpaModel.create(self.config, seed=seed)
        model.base.load_arrays(_strip(self.arrays, "base."))
        model.base.freeze()
        return model

    def build_cloud_parts(self) -> tuple[BaseParams, GateParams]:
        if self.kind not in ("full", "cloud"):
            raise CheckpointSchemaError(f"{self.kind} checkpoint has no cloud parts")
        ref = SpaModel.create(self.config, seed=0)
        base, gate = ref.base, ref.gate
        base.load_arrays(_strip(self.arrays, "base."))
        gate.load_arrays(_strip(self.arrays, "gate."))
        base.freeze()
        gate.freeze()
        return base, gate

    def build_side_parts(self) -> SideParams:
        if self.kind not in ("full", "side"):
            raise CheckpointSchemaError(f"{self.kind} checkpoint has no side parts")
        side = SpaModel.create(self.config, seed=0).side
        side.load_arrays(_strip(self.arrays, "side."))
        side.freeze()
        return side


def _strip(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {n[len(prefix) :]: a for n, a in arrays.items() if n.startswith(prefix)}


def save_model(
    model: SpaModel,
    path: str | Path,
    kind: str = "full",
    train_config: dict | None = None,
    extra: dict | None = None,
) -> None:
    if kind not in KINDS:
        raise CheckpointSchemaError(f"unknown checkpoint kind {kind!r}")
    arrays = _kind_arrays(model, kind)
    base_digest = model.base_digest()
    meta = {
        "kind": kind,
        "model": model.config.to_dict(),
        "train": train_config,
        "base_digest": base_digest,
        "compat_digest": compat_digest(model.config, base_digest),
    }
    if extra:
        meta["extra"] = extra
    write_raw(path, meta, arrays)


# the natural verb pair for callers: save_checkpoint(model, path) / load_checkpoint(path)
save_checkpoint = save_model


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    meta, arrays = read_raw(path)
    for key in ("kind", "model", "base_digest", "compat_digest"):
        if key not in meta:
            raise CheckpointSchemaError(f"{path}: metadata missing {key!r}")
    kind = meta["kind"]
    if kind not in KINDS:
        raise CheckpointSchemaError(f"{path}: unknown checkpoint kind {kind!r}")
    config = ModelConfig.from_dict(meta["model"])
    expected = _expected_names(config, kind)
    got = set(arrays)
    if got != expected:
        unknown = sorted(got - expected)
        missing = sorted(expected - got)
        parts = []
        if unknown:
            parts.append(f"unknown parameters {unknown[:4]}")
        if missing:
            parts.append(f"missing parameters {missing[:4]}")
        raise CheckpointSchemaError(f"{path}: schema mismatch: " + "; ".join(parts))
    return LoadedCheckpoint(
        kind=kind,
        config=config,
        train_config=meta.get("train"),
        base_digest=meta["base_digest"],
        compat_digest=meta["compat_digest"],
        arrays=arrays,
    )
