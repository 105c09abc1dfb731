"""Model definition: frozen base transformer, ladder side network, gate.

The base is a pre-LN causal transformer whose parameters are frozen after
pretraining. The side network is a narrow attention-free ladder: one
down-projection per layer feeds a two-layer GELU mixer at width
d_model / side_reduction, chained across layers through learned scalar
mixing weights, with a single shared up-projection back to d_model.
A linear gate over the final (post-norm) base hidden decides per token
whether the side output is fused in:

    fused = base_final + gate * side_out
    logits = fused @ out_proj          (out_proj stays frozen)

`ladder` is the only implementation of that network, and it is a pure
function of its input rows: no state is carried between positions or
steps. Training and the `all_layers` wire mode feed rung i the layer-i
base hidden; the `final` wire mode feeds every rung the final hidden.

`teacher_forced` is the only teacher-forced forward of the fused model: the
loss, the scorer, the side path's causal effect (CATE) and the gate's
training labels all read the `TokenLossTrace` it builds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from . import numcore as nc
from .errors import ContractError, DimensionError
from .numcore import Tensor


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    vocab_size: int = 512
    max_seq_len: int = 128
    side_reduction: int = 8

    def __post_init__(self):
        if self.n_layers < 1:
            raise ContractError("n_layers must be >= 1")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be >= 2")
        if self.d_model % self.n_heads:
            raise ContractError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if self.d_model % self.side_reduction:
            raise ContractError(
                f"d_model={self.d_model} must be divisible by side_reduction={self.side_reduction}"
            )

    @property
    def side_width(self) -> int:
        return self.d_model // self.side_reduction

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


class ParamBundle:
    """Named tensors with canonical (sorted-name) ordering for checksums."""

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def named(self) -> list[tuple[str, Tensor]]:
        return sorted(self._tensors.items())

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def names(self) -> list[str]:
        return [n for n, _ in self.named()]

    def count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def freeze(self) -> None:
        for t in self._tensors.values():
            t.requires_grad = False
            t.grad = None

    def thaw(self) -> None:
        for t in self._tensors.values():
            t.requires_grad = True

    @property
    def frozen(self) -> bool:
        return all(not t.requires_grad for t in self._tensors.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, t in self.named():
            h.update(name.encode())
            h.update(repr(t.shape).encode())
            h.update(t.data.astype("<f8", copy=False).tobytes())
        return h.hexdigest()

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self._tensors.items():
            arr = arrays[name]
            if arr.shape != t.shape:
                raise DimensionError(f"parameter {name}: shape {arr.shape} != expected {t.shape}")
            t.data = np.ascontiguousarray(arr, dtype=np.float64)

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named()}


_INIT_STD = 0.02


def _w(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape) * _INIT_STD, requires_grad=True)


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(*shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class BaseParams(ParamBundle):
    @classmethod
    def create(cls, cfg: ModelConfig, rng: np.random.Generator) -> "BaseParams":
        d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        t: dict[str, Tensor] = {
            "tok_emb": _w(rng, v, d),
            "pos_emb": _w(rng, cfg.max_seq_len, d),
        }
        for i in range(cfg.n_layers):
            p = f"layers.{i}"
            t[f"{p}.ln1.g"] = _ones(d)
            t[f"{p}.ln1.b"] = _zeros(d)
            for name in ("wq", "wk", "wv", "wo"):
                t[f"{p}.attn.{name}"] = _w(rng, d, d)
            for name in ("bq", "bk", "bv", "bo"):
                t[f"{p}.attn.{name}"] = _zeros(d)
            t[f"{p}.ln2.g"] = _ones(d)
            t[f"{p}.ln2.b"] = _zeros(d)
            t[f"{p}.ffn.w1"] = _w(rng, d, ff)
            t[f"{p}.ffn.b1"] = _zeros(ff)
            t[f"{p}.ffn.w2"] = _w(rng, ff, d)
            t[f"{p}.ffn.b2"] = _zeros(d)
        t["ln_f.g"] = _ones(d)
        t["ln_f.b"] = _zeros(d)
        t["out_proj"] = _w(rng, d, v)
        return cls(t)


class SideParams(ParamBundle):
    @classmethod
    def create(cls, cfg: ModelConfig, rng: np.random.Generator) -> "SideParams":
        d, w = cfg.d_model, cfg.side_width
        t: dict[str, Tensor] = {}
        for i in range(cfg.n_layers):
            t[f"down.{i}.w"] = _w(rng, d, w)
            t[f"down.{i}.b"] = _zeros(w)
            t[f"mixer.{i}.w1"] = _w(rng, w, w)
            t[f"mixer.{i}.b1"] = _zeros(w)
            t[f"mixer.{i}.w2"] = _w(rng, w, w)
            t[f"mixer.{i}.b2"] = _zeros(w)
            if i > 0:
                # ladder mixing scalar; 1.0 = carry the previous rung fully.
                # layer 0 has no previous rung, so no scalar.
                t[f"mix.{i}"] = Tensor(np.asarray(1.0), requires_grad=True)
        # up-projection is deliberately non-zero at init so every side tensor
        # receives gradient on the first backward pass
        t["up.w"] = _w(rng, w, d)
        t["up.b"] = _zeros(d)
        return cls(t)


class GateParams(ParamBundle):
    @classmethod
    def create(cls, cfg: ModelConfig) -> "GateParams":
        # zero init: both classes start at probability 0.5 everywhere
        return cls({"w": _zeros(cfg.d_model, 2), "b": _zeros(2)})


@dataclass
class SpaModel:
    config: ModelConfig
    base: BaseParams
    side: SideParams
    gate: GateParams

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 0) -> "SpaModel":
        rng = np.random.default_rng(seed)
        return cls(
            config=config,
            base=BaseParams.create(config, rng),
            side=SideParams.create(config, rng),
            gate=GateParams.create(config),
        )

    def base_digest(self) -> str:
        return self.base.digest()

    def side_fraction(self) -> float:
        """Side parameter count as a fraction of the base parameter count."""
        return self.side.count() / self.base.count()

    def side_and_gate_fraction(self) -> float:
        return (self.side.count() + self.gate.count()) / self.base.count()

    def trainable_tensors(self) -> list[Tensor]:
        return self.side.tensors() + self.gate.tensors()

    def all_named(self) -> Iterator[tuple[str, Tensor]]:
        for name, t in self.base.named():
            yield f"base.{name}", t
        for name, t in self.side.named():
            yield f"side.{name}", t
        for name, t in self.gate.named():
            yield f"gate.{name}", t


@dataclass
class BaseTrace:
    """Per-layer residual-stream states plus the post-norm final hidden.

    For a (B, T) batch of ids every state holds the B*T rows sequence by
    sequence; with `base_forward(..., last=n)` the final layer's hidden,
    `final` and `logits` hold only each sequence's last n rows (B*n). `kv`
    holds each layer's attention keys and values over every position
    attended (past and new), ready to be passed back as `past`: (Tk, d)
    arrays for 1-D ids, (B, Tk, d) for a batch.
    """

    hiddens: list[Tensor] = field(default_factory=list)
    final: Tensor | None = None
    logits: Tensor | None = None
    kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def base_forward(
    config: ModelConfig,
    base: BaseParams,
    token_ids,
    past: list[tuple[np.ndarray, np.ndarray]] | None = None,
    *,
    last: int | None = None,
) -> BaseTrace:
    """Forward `token_ids`, a (T,) sequence or a (B, T) batch, through the base.

    With `past` (the `kv` of an earlier trace over the preceding positions,
    same batch) the ids are the next positions: they are embedded at
    absolute positions past_len.. and attend over the past keys plus their
    own. The trace then covers only the new positions. Past keys are
    constants, so `past` is for decoding under `no_grad`.

    `last=n` says the caller reads only each sequence's last n positions of
    the final layer. That layer still computes keys and values over every
    position, so `kv` is complete, but its queries (n per sequence over all
    keys, the shape of a cached step), attention output, FFN, `ln_f` and
    output projection run over those n rows alone. Like `past`, it is for
    decoding under `no_grad`.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.size < 1:
        raise ContractError(
            f"base_forward: need a non-empty (T,) or (B, T) id array, got {ids.shape}"
        )
    new_len, d = ids.shape[-1], config.d_model
    batch = ids.size // new_len
    past_len = 0 if past is None else past[0][0].shape[-2]
    if past is not None:
        if nc.recording():
            raise ContractError("base_forward: past keys carry no gradient; decode under no_grad")
        if past[0][0].shape[:-2] != ids.shape[:-1]:
            raise DimensionError(
                f"base_forward: past keys {past[0][0].shape} do not match ids {ids.shape}"
            )
    keep = new_len if last is None else last
    if last is not None:
        if nc.recording():
            raise ContractError("base_forward: `last` drops rows backward needs; decode under no_grad")
        if not 1 <= last <= new_len:
            raise ContractError(f"base_forward: last={last} outside 1..{new_len}")
    t_len = past_len + new_len
    if t_len > config.max_seq_len:
        raise ContractError(f"sequence length {t_len} exceeds max_seq_len {config.max_seq_len}")

    x = nc.add(
        nc.embedding(base["tok_emb"], ids.reshape(-1)),
        nc.embedding(base["pos_emb"], np.tile(np.arange(past_len, t_len), batch)),
    )
    new_shape, kv_shape = (*ids.shape, d), (*ids.shape[:-1], t_len, d)
    trace = BaseTrace()
    for i in range(config.n_layers):
        p = f"layers.{i}"
        a = nc.layer_norm(x, base[f"{p}.ln1.g"], base[f"{p}.ln1.b"])
        k = nc.add(nc.matmul(a, base[f"{p}.attn.wk"]), base[f"{p}.attn.bk"])
        v = nc.add(nc.matmul(a, base[f"{p}.attn.wv"]), base[f"{p}.attn.bv"])
        if past is not None:  # per sequence: its past positions, then the new ones
            k = Tensor(np.concatenate([past[i][0], k.data.reshape(new_shape)], -2).reshape(-1, d))
            v = Tensor(np.concatenate([past[i][1], v.data.reshape(new_shape)], -2).reshape(-1, d))
        trace.kv.append((k.data.reshape(kv_shape), v.data.reshape(kv_shape)))
        if i == config.n_layers - 1 and keep < new_len:
            # nothing after this layer's keys and values reads the other rows
            a, x = (Tensor(t.data.reshape(batch, new_len, d)[:, -keep:].reshape(-1, d))
                    for t in (a, x))
        q = nc.add(nc.matmul(a, base[f"{p}.attn.wq"]), base[f"{p}.attn.bq"])
        att = nc.causal_attention(q, k, v, config.n_heads, batch)
        x = nc.add(x, nc.add(nc.matmul(att, base[f"{p}.attn.wo"]), base[f"{p}.attn.bo"]))
        m = nc.layer_norm(x, base[f"{p}.ln2.g"], base[f"{p}.ln2.b"])
        h1 = nc.gelu(nc.add(nc.matmul(m, base[f"{p}.ffn.w1"]), base[f"{p}.ffn.b1"]))
        x = nc.add(x, nc.add(nc.matmul(h1, base[f"{p}.ffn.w2"]), base[f"{p}.ffn.b2"]))
        trace.hiddens.append(x)
    trace.final = nc.layer_norm(x, base["ln_f.g"], base["ln_f.b"])
    trace.logits = nc.matmul(trace.final, base["out_proj"])
    return trace


def ladder(config: ModelConfig, side: SideParams, rows: list[Tensor]) -> Tensor:
    """The side ladder over one input row block per layer; returns the side output.

    Each layer down-projects its row and runs the two-layer GELU mixer; from
    layer 1 on, the previous rung is added scaled by `mix.{i}`.
    """
    if len(rows) != config.n_layers:
        raise ContractError(f"ladder: expected {config.n_layers} layer inputs, got {len(rows)}")
    for i, row in enumerate(rows):
        z = nc.add(nc.matmul(row, side[f"down.{i}.w"]), side[f"down.{i}.b"])
        if i > 0:
            z = nc.add(z, nc.tsmul(rung, side[f"mix.{i}"]))
        h1 = nc.gelu(nc.add(nc.matmul(z, side[f"mixer.{i}.w1"]), side[f"mixer.{i}.b1"]))
        rung = nc.add(nc.matmul(h1, side[f"mixer.{i}.w2"]), side[f"mixer.{i}.b2"])
    return nc.add(nc.matmul(rung, side["up.w"]), side["up.b"])


def side_step_layers(config: ModelConfig, side: SideParams, layer_vecs: np.ndarray) -> np.ndarray:
    """Side outputs (B, d_model) for a (B, n_layers, d_model) block of
    per-layer hiddens: rung i reads column i, and each row's output depends
    on that row alone."""
    vecs = np.asarray(layer_vecs, dtype=np.float64)
    if vecs.shape[1:] != (config.n_layers, config.d_model):
        raise DimensionError(
            f"side_step_layers: need shape (B, {config.n_layers}, {config.d_model}), got {vecs.shape}"
        )
    with nc.no_grad():
        out = ladder(config, side, [Tensor(vecs[:, i]) for i in range(config.n_layers)])
    return out.data


def side_step_rolled(config: ModelConfig, side: SideParams, vecs: np.ndarray) -> np.ndarray:
    """Side output from one vector read by every rung: a (d_model,) vector,
    or a (B, d_model) block of independent rows. Each row's output depends
    on that row alone."""
    vecs = np.asarray(vecs, dtype=np.float64)
    with nc.no_grad():
        out = ladder(config, side, [Tensor(vecs.reshape(-1, config.d_model))] * config.n_layers)
    return out.data.reshape(vecs.shape)


def gate_logits(gate: GateParams, base_final: Tensor) -> tuple[Tensor, Tensor]:
    logits = nc.add(nc.matmul(base_final, gate["w"]), gate["b"])
    return logits, nc.softmax(logits, axis=-1)


def gate_decide(logits: np.ndarray) -> int | np.ndarray:
    """Hard decisions: an int for one logit row, an int array for a block of
    rows. Ties resolve to 0 (base-only)."""
    decisions = np.argmax(logits, axis=-1)
    return int(decisions) if decisions.ndim == 0 else decisions


def fuse(base_final: Tensor, side_out: Tensor, gate_trace, out_proj: Tensor) -> tuple[Tensor, Tensor]:
    """fused = base_final + gate_trace * side_out, then the frozen projection.

    gate_trace is per-position: a Tensor of soft probabilities or an array of
    hard 0/1 decisions.
    """
    if isinstance(gate_trace, Tensor):
        weights = gate_trace
    else:
        arr = np.asarray(gate_trace, dtype=np.float64)
        if arr.shape != (base_final.shape[0],):
            raise DimensionError(
                f"fuse: gate trace shape {arr.shape} != ({base_final.shape[0]},)"
            )
        weights = Tensor(arr)
    if side_out.shape != base_final.shape:
        raise DimensionError(
            f"fuse: side output shape {side_out.shape} != base shape {base_final.shape}"
        )
    fused = nc.add(base_final, nc.scale_rows(side_out, weights))
    return fused, nc.matmul(fused, out_proj)


@dataclass
class TokenLossTrace:
    """What the one teacher-forced forward computed over a sequence or a
    batch; every per-position field holds the batch's rows in order."""

    base: BaseTrace
    side_out: Tensor | None  # None under gate mode "off", which skips the ladder
    gate_logits: Tensor
    gate_probs: Tensor
    gate_trace: np.ndarray  # the per-position weights actually used
    fused_logits: Tensor
    targets: np.ndarray
    out_proj: Tensor

    def target_logprobs(self, logits: np.ndarray) -> np.ndarray:
        """log softmax(logits)[t, targets[t]] at every position t."""
        return nc.log_softmax_rows(logits)[np.arange(self.targets.shape[0]), self.targets]

    def cate(self) -> np.ndarray:
        """Per-position log-likelihood gain of fusing the whole side output
        over the base alone, lp(final + side_out)[t] - lp(base logits)[t],
        whatever gate the trace ran; positive means the side path helps."""
        if self.side_out is None:
            raise ContractError("cate: the trace ran no side network (gate mode 'off')")
        on_logits = (self.base.final.data + self.side_out.data) @ self.out_proj.data
        return self.target_logprobs(on_logits) - self.target_logprobs(self.base.logits.data)


GATE_MODES = ("soft", "hard", "off", "on")


def teacher_forced(model: SpaModel, token_ids, gate_mode: str) -> TokenLossTrace:
    """The one teacher-forced forward of the fused model, over a (T+1,)
    sequence or a (B, T+1) batch of sequences of one length.

    Each sequence's first T tokens are the inputs and its last T the
    targets. A batch runs as one forward: every row of the trace (hiddens,
    gate, side output, logits, targets) holds the B*T positions sequence by
    sequence, so a loss over the trace is the mean over all of them, and
    row b*T + t depends on sequence b alone. Gate mode "off" skips the
    ladder and keeps the base logits.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] < 2 or ids.size < 2:
        raise ContractError(
            f"teacher_forced: need a (T+1,) or (B, T+1) id array with T >= 1, got {ids.shape}"
        )
    if gate_mode not in GATE_MODES:
        raise ContractError(f"teacher_forced: unknown gate_mode {gate_mode!r}")
    inputs, targets = ids[..., :-1], ids[..., 1:].reshape(-1)
    bt = base_forward(model.config, model.base, inputs)
    glog, gprobs = gate_logits(model.gate, bt.final)
    if gate_mode == "soft":
        weights = nc.column(gprobs, 1)
        used = weights.data.copy()
    elif gate_mode == "hard":
        used = weights = gate_decide(glog.data).astype(np.float64)
    else:
        used = weights = np.full(targets.shape[0], float(gate_mode == "on"))
    out_proj = model.base["out_proj"]
    side_out = None if gate_mode == "off" else ladder(model.config, model.side, bt.hiddens)
    if gate_mode == "off" or (gate_mode == "hard" and not used.any()):
        # nothing is fused: the base logits are the fused logits, bit for bit
        fused_logits = bt.logits
    else:
        _, fused_logits = fuse(bt.final, side_out, weights, out_proj)
    return TokenLossTrace(
        base=bt, side_out=side_out, gate_logits=glog, gate_probs=gprobs, gate_trace=used,
        fused_logits=fused_logits, targets=targets, out_proj=out_proj,
    )


def token_loss(model: SpaModel, token_ids, gate_mode: str = "soft") -> tuple[Tensor, TokenLossTrace]:
    """Teacher-forced mean NLL of the fused model over a token sequence or
    a batch of them (the mean over every position of the batch)."""
    trace = teacher_forced(model, token_ids, gate_mode)
    return nc.cross_entropy(trace.fused_logits, trace.targets), trace


def cate_estimate(model: SpaModel, token_ids) -> np.ndarray:
    """`TokenLossTrace.cate` of the side-always-on forward over a sequence."""
    with nc.no_grad():
        return teacher_forced(model, token_ids, "on").cate()


def position_nll(model: SpaModel, token_ids, gate_mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Teacher-forced per-position negative log-likelihoods under a gate mode,
    with the per-position gate weights that were used."""
    with nc.no_grad():
        trace = teacher_forced(model, token_ids, gate_mode)
    return -trace.target_logprobs(trace.fused_logits.data), trace.gate_trace
