"""Model definition: frozen base transformer, ladder side network, gate.

The base is a pre-LN causal transformer whose parameters are frozen after
pretraining. The side network is a narrow attention-free ladder: one
down-projection per layer feeds a two-layer GELU mixer at width
d_model / side_reduction, chained across layers through learned scalar
mixing weights, with a single shared up-projection back to d_model.
A linear gate over the final (post-norm) base hidden decides per token
whether the side output is fused in:

    fused = base_final + bit * side_out        bit in {0, 1} per token
    logits = fused @ out_proj                  (out_proj stays frozen)

The served gate is written once, here, and every path calls it:
`POLICY_GATE_MODES` maps each cloud policy to its gate mode, `served_gate`
turns a gate mode and the gate head's logits (`gate_logits`) into the 0/1
decisions, and `served_fusion` computes the logits of a row whose bit is 1.
The step engine (`spa.decoding.CloudStepModel`) serves with the three, and
`teacher_forced` gates its rows with `served_gate`.

`ladder` is the only implementation of that network, and it is a pure
function of its input rows: no state is carried between positions or
steps. Training and the `all_layers` wire mode feed rung i the layer-i
base hidden; the `final` wire mode feeds every rung the final hidden.

`teacher_forced` is the only teacher-forced forward of the fused model: the
loss, the scorer, the side path's causal effect (CATE) and the gate's
training labels all read the `TokenLossTrace` it builds, which carries the
fused mean NLL and each target's fused log-prob from one cross-entropy.
Given a precomputed
`BaseTrace` of its inputs it reads the base's features from it instead of
running the base; side training passes the rows of its table of frozen-base
features (`spa.training`) that way, with base target log-probs in place of
the logits, which the forward never reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .errors import ContractError, DimensionError
from .numcore import Tensor

if TYPE_CHECKING:
    from .training import BaseFeatures


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


# a declared parameter's init: NORMAL draws N(0, _INIT_STD^2) from the
# bundle's generator, a number fills the shape with that constant
NORMAL = "normal"
_INIT_STD = 0.02

# (name, shape, init) of one declared parameter
ParamDecl = tuple[str, tuple[int, ...], str | float]


class ParamBundle:
    """Named tensors with canonical (sorted-name) ordering for checksums.

    Each bundle declares its parameters once in `declare`: name, shape and
    init, in creation order, which is the order of the random draws.
    `create` draws a fresh bundle from that declaration; a checkpoint
    checks its arrays against `shapes` and wraps them with `from_arrays`,
    which draws nothing.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    @classmethod
    def declare(cls, cfg: ModelConfig) -> list[ParamDecl]:
        raise NotImplementedError

    @classmethod
    def shapes(cls, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
        return {name: shape for name, shape, _ in cls.declare(cfg)}

    @classmethod
    def create(cls, cfg: ModelConfig, rng: np.random.Generator | None = None):
        """Fresh trainable parameters; NORMAL inits draw from `rng` in
        declaration order."""
        return cls({
            name: Tensor(
                rng.standard_normal(shape) * _INIT_STD if init == NORMAL else np.full(shape, init),
                requires_grad=True,
            )
            for name, shape, init in cls.declare(cfg)
        })

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], requires_grad: bool):
        """The bundle over `arrays` as they are (float64 arrays of the
        declared shapes, which the caller has checked): no copy, no draw."""
        return cls({name: Tensor(a, requires_grad=requires_grad) for name, a in arrays.items()})

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def named(self) -> list[tuple[str, Tensor]]:
        return sorted(self._tensors.items())

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]

    def count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def freeze(self) -> None:
        for t in self._tensors.values():
            t.requires_grad = False
            t.grad = None

    @property
    def frozen(self) -> bool:
        return all(not t.requires_grad for t in self._tensors.values())

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, t in self.named():
            h.update(name.encode())
            h.update(repr(t.shape).encode())
            # hashed through the buffer protocol: no copy of a contiguous <f8 array
            h.update(np.ascontiguousarray(t.data, dtype="<f8"))
        return h.hexdigest()

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, t in self._tensors.items():
            arr = arrays[name]
            if arr.shape != t.shape:
                raise DimensionError(f"parameter {name}: shape {arr.shape} != expected {t.shape}")
            t.data = np.ascontiguousarray(arr, dtype=np.float64)


class BaseParams(ParamBundle):
    @classmethod
    def declare(cls, cfg: ModelConfig) -> list[ParamDecl]:
        d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        decls = [("tok_emb", (v, d), NORMAL), ("pos_emb", (cfg.max_seq_len, d), NORMAL)]
        for i in range(cfg.n_layers):
            p = f"layers.{i}"
            decls += [(f"{p}.ln1.g", (d,), 1.0), (f"{p}.ln1.b", (d,), 0.0)]
            decls += [(f"{p}.attn.{name}", (d, d), NORMAL) for name in ("wq", "wk", "wv", "wo")]
            decls += [(f"{p}.attn.{name}", (d,), 0.0) for name in ("bq", "bk", "bv", "bo")]
            decls += [(f"{p}.ln2.g", (d,), 1.0), (f"{p}.ln2.b", (d,), 0.0),
                      (f"{p}.ffn.w1", (d, ff), NORMAL), (f"{p}.ffn.b1", (ff,), 0.0),
                      (f"{p}.ffn.w2", (ff, d), NORMAL), (f"{p}.ffn.b2", (d,), 0.0)]
        return decls + [("ln_f.g", (d,), 1.0), ("ln_f.b", (d,), 0.0), ("out_proj", (d, v), NORMAL)]


class SideParams(ParamBundle):
    @classmethod
    def declare(cls, cfg: ModelConfig) -> list[ParamDecl]:
        d, w = cfg.d_model, cfg.side_width
        decls = []
        for i in range(cfg.n_layers):
            decls += [(f"down.{i}.w", (d, w), NORMAL), (f"down.{i}.b", (w,), 0.0),
                      (f"mixer.{i}.w1", (w, w), NORMAL), (f"mixer.{i}.b1", (w,), 0.0),
                      (f"mixer.{i}.w2", (w, w), NORMAL), (f"mixer.{i}.b2", (w,), 0.0)]
            if i > 0:
                # ladder mixing scalar; 1.0 = carry the previous rung fully.
                # layer 0 has no previous rung, so no scalar. It is stored
                # one-element, since a Tensor's data is at least 1-D.
                decls.append((f"mix.{i}", (1,), 1.0))
        # up-projection is deliberately non-zero at init so every side tensor
        # receives gradient on the first backward pass
        return decls + [("up.w", (w, d), NORMAL), ("up.b", (d,), 0.0)]


class GateParams(ParamBundle):
    @classmethod
    def declare(cls, cfg: ModelConfig) -> list[ParamDecl]:
        # zero init: both classes start at probability 0.5 everywhere, and
        # `create` needs no generator
        return [("w", (cfg.d_model, 2), 0.0), ("b", (2,), 0.0)]


def fresh_side_and_gate(config: ModelConfig, seed: int) -> tuple[SideParams, GateParams]:
    """Fresh side (from a generator seeded `seed ^ 0x5EED`) and gate (its
    constant init) to train on a frozen base: the one draw behind
    `reinit_side_and_gate` and `LoadedCheckpoint.build_base_model`."""
    return SideParams.create(config, np.random.default_rng(seed ^ 0x5EED)), GateParams.create(config)


@dataclass
class SpaModel:
    config: ModelConfig
    base: BaseParams
    side: SideParams
    gate: GateParams
    # side training's table of this base's features over one corpus, built
    # by the first side-training call and reused while base and corpus stay
    # the same (`spa.training.BaseFeatures`); not part of the model's value
    base_features: BaseFeatures | None = field(default=None, compare=False, repr=False)

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


@dataclass
class BaseTrace:
    """Per-layer residual-stream states plus the post-norm final hidden.

    For a (B, T) batch of ids every state holds the B*T rows sequence by
    sequence; with `base_forward(..., last=n)` the final layer's hidden,
    `final` and `logits` hold only each sequence's last n rows (B*n). `kv`
    holds each layer's attention keys and values over every position
    attended (past and new), ready to be passed back as `past`: (Tk, d)
    arrays for 1-D ids, (B, Tk, d) for a batch.

    `target_logprobs`, which `base_forward` leaves None, holds a
    precomputed trace's base log-prob of each row's target, in place of
    `logits` (`TokenLossTrace.base_target_logprobs`).
    """

    hiddens: list[Tensor] = field(default_factory=list)
    final: Tensor | None = None
    logits: Tensor | None = None
    kv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    target_logprobs: np.ndarray | None = None


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
        nc.embedding(base["pos_emb"],
                     (np.zeros((batch, 1), np.int64) + np.arange(past_len, t_len)).reshape(-1)),
    )
    new_shape, kv_shape = (*ids.shape, d), (*ids.shape[:-1], t_len, d)
    trace = BaseTrace()
    for i in range(config.n_layers):
        p = f"layers.{i}"
        a = nc.layer_norm(x, base[f"{p}.ln1.g"], base[f"{p}.ln1.b"])
        k = nc.linear(a, base[f"{p}.attn.wk"], base[f"{p}.attn.bk"])
        v = nc.linear(a, base[f"{p}.attn.wv"], base[f"{p}.attn.bv"])
        if past is not None:  # per sequence: its past positions, then the new ones
            k = Tensor(np.concatenate([past[i][0], k.data.reshape(new_shape)], -2).reshape(-1, d))
            v = Tensor(np.concatenate([past[i][1], v.data.reshape(new_shape)], -2).reshape(-1, d))
        trace.kv.append((k.data.reshape(kv_shape), v.data.reshape(kv_shape)))
        if i == config.n_layers - 1 and keep < new_len:
            # nothing after this layer's keys and values reads the other rows
            a, x = (Tensor(t.data.reshape(batch, new_len, d)[:, -keep:].reshape(-1, d))
                    for t in (a, x))
        q = nc.linear(a, base[f"{p}.attn.wq"], base[f"{p}.attn.bq"])
        att = nc.causal_attention(q, k, v, config.n_heads, batch)
        x = nc.add(x, nc.linear(att, base[f"{p}.attn.wo"], base[f"{p}.attn.bo"]))
        m = nc.layer_norm(x, base[f"{p}.ln2.g"], base[f"{p}.ln2.b"])
        h1 = nc.gelu(nc.linear(m, base[f"{p}.ffn.w1"], base[f"{p}.ffn.b1"]))
        x = nc.add(x, nc.linear(h1, base[f"{p}.ffn.w2"], base[f"{p}.ffn.b2"]))
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
        z = nc.linear(row, side[f"down.{i}.w"], side[f"down.{i}.b"])
        if i > 0:
            z = nc.add(z, nc.tsmul(rung, side[f"mix.{i}"]))
        h1 = nc.gelu(nc.linear(z, side[f"mixer.{i}.w1"], side[f"mixer.{i}.b1"]))
        rung = nc.linear(h1, side[f"mixer.{i}.w2"], side[f"mixer.{i}.b2"])
    return nc.linear(rung, side["up.w"], side["up.b"])


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


def gate_logits(gate: GateParams, base_final: Tensor) -> Tensor:
    """The gate head: one (use base, use side) logit pair per row of the
    final hidden."""
    return nc.linear(base_final, gate["w"], gate["b"])


def gate_decide(logits: np.ndarray) -> int | np.ndarray:
    """Hard decisions: an int for one logit row, an int array for a block of
    rows. Ties resolve to 0 (base-only)."""
    decisions = np.argmax(logits, axis=-1)
    return int(decisions) if decisions.ndim == 0 else decisions


def served_gate(gate_mode: str, gate: GateParams, base_final: Tensor,
                logits: Tensor | None = None) -> np.ndarray:
    """The served gate rule for gate mode "hard", "on" or "off": each row's
    0/1 decision to fuse its side output in, as an int array. "hard" takes
    the gate head's decision (`gate_decide`), "on" fuses every row and "off"
    none. Only "hard" reads the head: from `logits` when the caller already
    ran it on `base_final`, else run here."""
    if gate_mode == "hard":
        return gate_decide((gate_logits(gate, base_final) if logits is None else logits).data)
    return np.full(base_final.shape[0], int(gate_mode == "on"))


def served_fusion(base: BaseParams, base_final: np.ndarray, side_out: np.ndarray) -> np.ndarray:
    """The served fusion, (base_final + side_out) @ out_proj: the logits of
    rows whose gate bit is 1 (a row whose bit is 0 keeps the base logits)."""
    return (base_final + side_out) @ base["out_proj"].data


def fuse(base_final: Tensor, side_out: Tensor, bits: np.ndarray, out_proj: Tensor) -> tuple[Tensor, Tensor]:
    """fused = base_final + bits * side_out, then the frozen projection;
    `bits` holds one 0/1 gate bit per row, so a row of bit 1 is
    `served_fusion`'s and a row of bit 0 keeps the base logits."""
    if side_out.shape != base_final.shape:
        raise DimensionError(
            f"fuse: side output shape {side_out.shape} != base shape {base_final.shape}"
        )
    fused = nc.add(base_final, nc.scale_rows(side_out, bits))
    return fused, nc.matmul(fused, out_proj)


@dataclass
class TokenLossTrace:
    """What the one teacher-forced forward computed over a sequence or a
    batch; every per-position field holds the batch's rows in order."""

    base: BaseTrace
    side_out: Tensor
    gate_logits: Tensor
    gate_trace: np.ndarray  # the per-position 0/1 gate bits fused with
    fused_logits: Tensor
    targets: np.ndarray
    # the fused logits' mean NLL and each target's log-prob under them, from
    # one `nc.cross_entropy_rows`
    fused_nll: Tensor
    fused_target_logprobs: np.ndarray

    def base_target_logprobs(self) -> np.ndarray:
        """The base alone's log-prob of each target: the base trace's stored
        `target_logprobs` when it has them, else computed from its logits."""
        if self.base.target_logprobs is not None:
            return self.base.target_logprobs
        if self.base.logits is None:
            raise ContractError("the base trace carries neither logits nor target log-probs")
        return nc.target_log_softmax(self.base.logits.data, self.targets)

    def cate(self) -> np.ndarray:
        """Per-position log-likelihood gain of fusing the whole side output
        over the base alone, lp(final + side_out)[t] - lp(base logits)[t];
        positive means the side path helps. Defined on a trace that fused
        every row (gate mode "on"), whose fused logits are those on-logits."""
        if not self.gate_trace.all():
            raise ContractError("cate: needs a trace that fused every row (gate mode 'on')")
        return self.fused_target_logprobs - self.base_target_logprobs()


# Each cloud policy's gate as a gate mode (`served_gate`): "hard" takes the
# classifier's decision, "on" always consults the side network, "off" never
# does. Keys in `spa.wire.POLICIES` order.
POLICY_GATE_MODES = {"spa": "hard", "always_side": "on", "base_only": "off"}
# `teacher_forced`'s modes, each the served rule of its name: side training
# and the scorer run "on", and "hard" is the `spa` policy's function; "off"
# is only served (the scorer reads `base_only` off an "on" forward)
GATE_MODES = ("hard", "on")


def teacher_forced(
    model: SpaModel, token_ids, gate_mode: str, base: BaseTrace | None = None
) -> TokenLossTrace:
    """The one teacher-forced forward of the fused model, over a (T+1,)
    sequence or a (B, T+1) batch of sequences of one length.

    Each sequence's first T tokens are the inputs and its last T the
    targets. A batch runs as one forward: every row of the trace (hiddens,
    gate, side output, logits, targets) holds the B*T positions sequence by
    sequence, so a loss over the trace is the mean over all of them, and
    row b*T + t depends on sequence b alone. Every mode runs the ladder
    and fuses every row through `fuse` with its `served_gate` bit, a row of
    bit 0 included.

    `base`, when given, is the frozen base's trace of the inputs (hiddens
    and final over all B*T positions, as `base_forward` returns them), and
    the base is not run. The forward reads no base logits, so the trace may
    leave them out and carry one stored base target log-prob per target in
    their place (`TokenLossTrace.base_target_logprobs`).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim not in (1, 2) or ids.shape[-1] < 2 or ids.size < 2:
        raise ContractError(
            f"teacher_forced: need a (T+1,) or (B, T+1) id array with T >= 1, got {ids.shape}"
        )
    if gate_mode not in GATE_MODES:
        raise ContractError(f"teacher_forced: unknown gate_mode {gate_mode!r}")
    inputs, targets = ids[..., :-1], ids[..., 1:].reshape(-1)
    if base is None:
        base = base_forward(model.config, model.base, inputs)
    elif base.final.shape[0] != targets.shape[0]:
        raise DimensionError(
            f"teacher_forced: base trace rows {base.final.shape} do not cover inputs {inputs.shape}"
        )
    elif base.target_logprobs is not None and base.target_logprobs.shape != targets.shape:
        raise DimensionError(
            f"teacher_forced: stored base log-probs {base.target_logprobs.shape} "
            f"do not cover targets {targets.shape}"
        )
    glog = gate_logits(model.gate, base.final)
    used = served_gate(gate_mode, model.gate, base.final, glog)
    side_out = ladder(model.config, model.side, base.hiddens)
    _, fused_logits = fuse(base.final, side_out, used, model.base["out_proj"])
    nll, target_lp = nc.cross_entropy_rows(fused_logits, targets)
    return TokenLossTrace(
        base=base, side_out=side_out, gate_logits=glog, gate_trace=used,
        fused_logits=fused_logits, targets=targets, fused_nll=nll,
        fused_target_logprobs=target_lp,
    )


def token_loss(
    model: SpaModel, token_ids, gate_mode: str, base: BaseTrace | None = None
) -> tuple[Tensor, TokenLossTrace]:
    """Teacher-forced mean NLL of the fused model over a token sequence or
    a batch of them (the mean over every position of the batch), and the
    trace it came from; `base` as in `teacher_forced`."""
    trace = teacher_forced(model, token_ids, gate_mode, base)
    return trace.fused_nll, trace


def cate_estimate(model: SpaModel, token_ids) -> np.ndarray:
    """`TokenLossTrace.cate` of the side-always-on forward over a sequence."""
    with nc.no_grad():
        return teacher_forced(model, token_ids, "on").cate()
