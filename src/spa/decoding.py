"""Decoding: gating policies, greedy/beam search, transmission accounting.

One step engine backs every path. The cloud session and the monolithic
decoder run the same `CloudStepModel` code on the same array shapes; the
only difference is where the side vector comes from (a wire round trip vs
a local call), so split and in-process decoding agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .errors import ContractError
from .metrics import usage_percentage
from .model import (
    ModelConfig,
    SpaModel,
    base_forward,
    side_step_layers,
    side_step_rolled,
)
from .wire import POLICIES, STRATEGIES, WIRE_MODES

# base arrays a device caches for device-only decoding
DEVICE_CACHE = ("tok_emb", "pos_emb", "out_proj")


@dataclass(frozen=True)
class DecodeConfig:
    max_new_tokens: int = 50
    strategy: str = "greedy"
    beam_width: int = 4
    policy: str = "spa"
    wire_mode: str = "final"

    def __post_init__(self):
        if self.beam_width < 1:
            raise ContractError("beam_width must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.policy not in POLICIES:
            raise ContractError(f"unknown policy {self.policy!r}")
        if self.wire_mode not in WIRE_MODES:
            raise ContractError(f"unknown wire mode {self.wire_mode!r}")


def count_transmissions(policy: str, n_layers: int, tokens_generated: int, gate_trace=None) -> float:
    """Cloud-device round trips per generated token for an architecture."""
    if policy == "lora":
        return float(n_layers)
    if policy == "adapter":
        return 2.0 * n_layers
    if policy in ("lst", "always_side"):
        return 1.0
    if policy in ("base_only", "device_only"):
        return 0.0
    if policy == "spa":
        if gate_trace is None:
            raise ContractError("spa transmission count needs the gate trace")
        trace = np.asarray(gate_trace, dtype=np.float64)
        if tokens_generated and trace.size != tokens_generated:
            raise ContractError(
                f"gate trace length {trace.size} != tokens generated {tokens_generated}"
            )
        if not trace.size:
            return 0.0
        return usage_percentage(trace) / 100.0
    raise ContractError(f"unknown architecture {policy!r}")


@dataclass
class TransmissionCounter:
    policy: str
    n_layers: int
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    hidden_round_trips: int = 0
    tokens_generated: int = 0
    gate_trace: list[int] = field(default_factory=list)

    @classmethod
    def build(
        cls, policy: str, n_layers: int, tokens, gate_trace, round_trips: int, transport=None
    ) -> "TransmissionCounter":
        """Counter for a finished session; frame and byte counts come from `transport`."""
        counter = cls(
            policy=policy,
            n_layers=n_layers,
            hidden_round_trips=round_trips,
            tokens_generated=len(tokens),
            gate_trace=list(gate_trace),
        )
        if transport is not None:
            counter.frames_sent = transport.frames_sent
            counter.frames_received = transport.frames_received
            counter.bytes_sent = transport.bytes_sent
            counter.bytes_received = transport.bytes_received
        return counter

    @property
    def transmissions_per_token(self) -> float:
        return count_transmissions(
            self.policy, self.n_layers, self.tokens_generated, self.gate_trace
        )


class StepCounter:
    """Session-wide strictly increasing step index source."""

    def __init__(self):
        self._next = 0

    def take(self) -> int:
        value = self._next
        self._next += 1
        return value


def local_side_provider(config: ModelConfig, side, wire_mode: str):
    """Side computation as the device performs it, including the rolling
    summary the final-hidden wire mode maintains across consulted steps."""
    state = {"summary": None}

    def provide(step: int, payload: np.ndarray) -> np.ndarray:
        if wire_mode == "all_layers":
            return side_step_layers(config, side, payload)
        vec, state["summary"] = side_step_rolled(config, side, payload, state["summary"])
        return vec

    return provide


class CloudStepModel:
    """One decode step: base forward, gate decision, optional side fusion."""

    def __init__(self, config, base, gate, policy, wire_mode, side_provider, steps: StepCounter):
        if policy == "device_only":
            raise ContractError("device_only decoding never runs on the cloud path")
        self.config = config
        self.base = base
        self.gate = gate
        self.policy = policy
        self.wire_mode = wire_mode
        self.side_provider = side_provider
        self.steps = steps
        self.gate_log: list[int] = []  # every decision, hypothesis steps included
        self.hidden_calls = 0

    def logits_for(self, ctx_ids) -> tuple[np.ndarray, int]:
        ctx = np.asarray(ctx_ids, dtype=np.int64)[-self.config.max_seq_len :]
        with nc.no_grad():
            trace = base_forward(self.config, self.base, ctx)
        final_row = trace.final.data[-1]
        if self.policy == "base_only":
            use_side = 0
        elif self.policy in ("lst", "always_side"):
            use_side = 1
        else:  # spa classifier
            logits_row = final_row @ self.gate["w"].data + self.gate["b"].data
            use_side = int(np.argmax(logits_row))
        self.gate_log.append(use_side)
        if not use_side:
            return trace.logits.data[-1], 0
        if self.wire_mode == "all_layers":
            payload = np.stack([h.data[-1] for h in trace.hiddens])
        else:
            payload = final_row
        side_vec = self.side_provider(self.steps.take(), payload)
        self.hidden_calls += 1
        fused_row = final_row + side_vec
        return fused_row @ self.base["out_proj"].data, 1


class DeviceOnlyStepModel:
    """Fully separated decoding: the side ladder over cached embeddings.

    Every layer's down-projection reads the embedded current position and
    nothing seeds layer 0; the cached output projection produces logits. No
    cloud contact, ever.
    """

    def __init__(self, config: ModelConfig, side, cache: dict[str, np.ndarray]):
        self.config = config
        self.side = side
        self.tok_emb = np.asarray(cache["tok_emb"], dtype=np.float64)
        self.pos_emb = np.asarray(cache["pos_emb"], dtype=np.float64)
        self.out_proj = np.asarray(cache["out_proj"], dtype=np.float64)
        self.gate_log: list[int] = []
        self.hidden_calls = 0

    def logits_for(self, ctx_ids) -> tuple[np.ndarray, int]:
        ctx = np.asarray(ctx_ids, dtype=np.int64)[-self.config.max_seq_len :]
        pos = ctx.size - 1
        vec = self.tok_emb[ctx[-1]] + self.pos_emb[pos]
        side_vec, _ = side_step_rolled(self.config, self.side, vec, None)
        self.gate_log.append(1)
        return (vec + side_vec) @ self.out_proj, 1


def local_step_model(model: SpaModel, policy: str, wire_mode: str):
    """Step model with the side computed in this process (no wire)."""
    cfg = model.config
    if policy == "device_only":
        cache = {name: model.base[name].data for name in DEVICE_CACHE}
        return DeviceOnlyStepModel(cfg, model.side, cache)
    return CloudStepModel(
        cfg, model.base, model.gate, policy, wire_mode,
        local_side_provider(cfg, model.side, wire_mode), StepCounter(),
    )


@dataclass
class DecodeOutcome:
    tokens: list[int]
    gate_trace: list[int]
    stopped_by_eos: bool
    hidden_calls: int


def greedy_decode(step_model, prompt_ids, max_new_tokens, eos_id=None, on_emit=None) -> DecodeOutcome:
    seq = list(prompt_ids)
    tokens: list[int] = []
    trace: list[int] = []
    stopped = False
    for _ in range(max_new_tokens):
        logits, used = step_model.logits_for(seq)
        tok = int(np.argmax(logits))  # ties resolve to the lowest token id
        tokens.append(tok)
        trace.append(used)
        if on_emit:
            on_emit(used, tok)
        seq.append(tok)
        if eos_id is not None and tok == eos_id:
            stopped = True
            break
    return DecodeOutcome(tokens, trace, stopped, getattr(step_model, "hidden_calls", 0))


@dataclass(frozen=True)
class _Hypothesis:
    tokens: tuple[int, ...]
    logprob: float
    trace: tuple[int, ...]
    finished: bool

    @property
    def score(self) -> float:
        """Length-normalized log probability."""
        return self.logprob / max(1, len(self.tokens))


def beam_decode(
    step_model,
    prompt_ids,
    beam_width: int,
    max_new_tokens: int,
    vocab_size: int,
    eos_id=None,
    on_emit=None,
) -> DecodeOutcome:
    """Beam search ranked by length-normalized log probability.

    Ties break toward the lexicographically smallest token sequence. Every
    expansion considers the full vocabulary, so beam_width >= vocab_size
    over a short horizon is an exhaustive search.
    """
    if beam_width < 1:
        raise ContractError("beam_width must be >= 1")
    prompt = tuple(prompt_ids)
    pool = [_Hypothesis(tokens=(), logprob=0.0, trace=(), finished=False)]
    for _ in range(max_new_tokens):
        candidates: list[_Hypothesis] = [h for h in pool if h.finished]
        expanded = False
        for hyp in pool:
            if hyp.finished:
                continue
            expanded = True
            logits, used = step_model.logits_for(prompt + hyp.tokens)
            logprobs = nc.log_softmax_rows(logits[None, :])[0]
            for tok in range(vocab_size):
                tokens = hyp.tokens + (tok,)
                candidates.append(
                    _Hypothesis(
                        tokens=tokens,
                        logprob=hyp.logprob + float(logprobs[tok]),
                        trace=hyp.trace + (used,),
                        finished=eos_id is not None and tok == eos_id,
                    )
                )
        if not expanded:
            break
        candidates.sort(key=lambda h: (-h.score, h.tokens))
        pool = candidates[:beam_width]
    best = min(pool, key=lambda h: (-h.score, h.tokens))
    for used, tok in zip(best.trace, best.tokens):
        if on_emit:
            on_emit(used, tok)
    return DecodeOutcome(
        list(best.tokens),
        list(best.trace),
        bool(best.tokens and eos_id is not None and best.tokens[-1] == eos_id),
        getattr(step_model, "hidden_calls", 0),
    )


def run_decode(step_model, prompt_ids, dcfg: DecodeConfig, vocab_size: int, eos_id=None, on_emit=None) -> DecodeOutcome:
    if dcfg.strategy == "beam":
        return beam_decode(
            step_model, prompt_ids, dcfg.beam_width, dcfg.max_new_tokens, vocab_size, eos_id, on_emit
        )
    return greedy_decode(step_model, prompt_ids, dcfg.max_new_tokens, eos_id, on_emit)


def beam_search(
    model: "SpaModel",
    prompt_ids,
    width: int,
    max_new_tokens: int,
    policy: str = "spa",
    wire_mode: str = "final",
    eos_id=None,
) -> DecodeOutcome:
    """Model-level convenience wrapper around beam_decode."""
    return beam_decode(
        local_step_model(model, policy, wire_mode),
        prompt_ids, width, max_new_tokens, model.config.vocab_size, eos_id,
    )


@dataclass
class MonolithicResult:
    tokens: list[int]
    gate_trace: list[int]
    stopped_by_eos: bool
    counter: TransmissionCounter
    gate_log: list[int]


def decode_monolithic(
    model: SpaModel, prompt_ids, dcfg: DecodeConfig, eos_id=None
) -> MonolithicResult:
    """The split pipeline's mathematics executed in one process."""
    cfg = model.config
    step_model = local_step_model(model, dcfg.policy, dcfg.wire_mode)
    outcome = run_decode(step_model, prompt_ids, dcfg, cfg.vocab_size, eos_id)
    return MonolithicResult(
        tokens=outcome.tokens,
        gate_trace=outcome.gate_trace,
        stopped_by_eos=outcome.stopped_by_eos,
        counter=TransmissionCounter.build(
            dcfg.policy, cfg.n_layers, outcome.tokens, outcome.gate_trace, outcome.hidden_calls
        ),
        gate_log=list(step_model.gate_log),
    )
