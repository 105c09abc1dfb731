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
version, then the parameter schema (every name and shape, against the
bundles' declarations), each with its own error type. A truncated file
therefore fails the checksum rather than crashing a parser.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SpaError
from .model import BaseParams, GateParams, ModelConfig, SideParams, SpaModel, fresh_side_and_gate

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
    names = sorted(arrays)
    parts: list = [
        MAGIC,
        struct.pack("<II", FORMAT_VERSION, len(cfg_bytes)),
        cfg_bytes,
        struct.pack("<I", len(names)),
    ]
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode()
        parts.append(struct.pack(f"<H{len(nb)}sB{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
        parts.append(memoryview(arr.reshape(-1)))
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    parts.append(h.digest())
    with open(path, "wb") as f:
        f.writelines(parts)


def read_raw(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic bytes")
    if len(blob) < 4 + 4 + 32:
        raise CheckpointChecksumError(f"{path}: file too short, checksum cannot verify")
    body = memoryview(blob)[:-32]
    if hashlib.sha256(body).digest() != blob[-32:]:
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
        meta = json.loads(str(body[off : off + cfg_len], "utf-8"))
        off += cfg_len
        (n_params,) = struct.unpack_from("<I", body, off)
        off += 4
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack_from("<H", body, off)
            off += 2
            name = str(body[off : off + name_len], "utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", body, off) if ndim else ()
            off += 4 * ndim
            count = int(np.prod(dims)) if dims else 1
            # a read-only view of the file's bytes; each build copies what it hands out
            arrays[name] = np.frombuffer(body, dtype="<f8", count=count, offset=off).reshape(dims)
            off += 8 * count
    except CheckpointError:
        raise
    except (struct.error, ValueError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: malformed checkpoint body: {e}") from e
    return meta, arrays


# the parameter bundle behind each group name
BUNDLES = {"base": BaseParams, "side": SideParams, "gate": GateParams}


def _kind_arrays(model: SpaModel, kind: str) -> dict[str, np.ndarray]:
    """The named arrays a checkpoint of `kind` stores for `model`."""
    return {f"{g}.{n}": t.data for g in KIND_GROUPS[kind] for n, t in getattr(model, g).named()}


def _expected_shapes(config: ModelConfig, kind: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every array a checkpoint of `kind` holds, read from
    the bundles' declarations: no model is built."""
    return {
        f"{g}.{n}": shape for g in KIND_GROUPS[kind] for n, shape in BUNDLES[g].shapes(config).items()
    }


@dataclass
class LoadedCheckpoint:
    """A checked checkpoint. `arrays` are read-only views of the file's
    bytes; each `build_*` call hands out its own writable copy of the
    arrays it wraps, so no two builds share memory. A build asking for a
    parameter group the kind lacks (`KIND_GROUPS`) raises
    `CheckpointSchemaError`. Only `build_base_model` draws: a fresh side
    and gate."""

    kind: str
    config: ModelConfig
    train_config: dict | None
    base_digest: str
    compat_digest: str
    arrays: dict[str, np.ndarray]

    def _bundle(self, group: str, requires_grad: bool):
        if group not in KIND_GROUPS[self.kind]:
            raise CheckpointSchemaError(f"{self.kind} checkpoint carries no {group} parameters")
        prefix = f"{group}."
        arrays = {n[len(prefix) :]: a.astype(np.float64)
                  for n, a in self.arrays.items() if n.startswith(prefix)}
        return BUNDLES[group].from_arrays(arrays, requires_grad)

    def build_model(self) -> SpaModel:
        """Materialize a SpaModel from a full checkpoint: the base arrives
        frozen, side and gate trainable."""
        return SpaModel(
            config=self.config,
            base=self._bundle("base", requires_grad=False),
            side=self._bundle("side", requires_grad=True),
            gate=self._bundle("gate", requires_grad=True),
        )

    def build_base_model(self, seed: int = 0) -> SpaModel:
        """Frozen base from this checkpoint, fresh side and gate from
        `fresh_side_and_gate(config, seed)`, the draw a learning-rate grid
        run starts from."""
        base = self._bundle("base", requires_grad=False)
        side, gate = fresh_side_and_gate(self.config, seed)
        return SpaModel(config=self.config, base=base, side=side, gate=gate)

    def build_cloud_parts(self) -> tuple[BaseParams, GateParams]:
        return self._bundle("base", requires_grad=False), self._bundle("gate", requires_grad=False)

    def build_side_parts(self) -> SideParams:
        return self._bundle("side", requires_grad=False)


def save_model(
    model: SpaModel,
    path: str | Path,
    kind: str = "full",
    train_config: dict | None = None,
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
    expected = _expected_shapes(config, kind)
    if arrays.keys() != expected.keys():
        unknown = sorted(arrays.keys() - expected.keys())
        missing = sorted(expected.keys() - arrays.keys())
        parts = []
        if unknown:
            parts.append(f"unknown parameters {unknown[:4]}")
        if missing:
            parts.append(f"missing parameters {missing[:4]}")
        raise CheckpointSchemaError(f"{path}: schema mismatch: " + "; ".join(parts))
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointSchemaError(
                f"{path}: parameter {name} has shape {arrays[name].shape}, expected {shape}"
            )
    return LoadedCheckpoint(
        kind=kind,
        config=config,
        train_config=meta.get("train"),
        base_digest=meta["base_digest"],
        compat_digest=meta["compat_digest"],
        arrays=arrays,
    )
