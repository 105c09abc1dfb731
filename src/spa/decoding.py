"""Decoding: greedy/beam search, transmission accounting.

What each cloud policy does with the gate bit is written once, in
`spa.model`: `POLICY_GATE_MODES` maps the policy to a gate mode,
`served_gate` turns that mode and the gate head's logits into the step's
bits, and `served_fusion` computes a gated row's logits. The step engine
here calls them and holds no gate or fusion arithmetic of its own; the
teacher-forced scorer in `metrics` runs the same gate rule. M, the round
trips per token, needs no policy: it is the mean of the emitted gate bits
(`count_transmissions`).

One step engine backs every path. The cloud session and the monolithic
decoder run the same `CloudStepModel` code on the same array shapes; the
only difference is where a step's block of side vectors comes from (one
wire round trip vs a local call to the same provider), so split and
in-process decoding agree bit for bit.

A step is one batched call: greedy passes one context, beam search passes
every live hypothesis at once, and the base runs once over all of them.
Decoding is incremental: `CloudStepModel` keeps the attention K/V of the
windows it evaluated on the previous step, and a step whose contexts each
extend one of them by a token runs the base over those tokens alone. When
the window slides past max_seq_len every absolute position shifts, so that
step falls back to a full recompute of the windows. Every step reads only
each context's last position, so every base forward passes `last=1`: the
prompt prefill and a slid-window recompute run the final layer's queries,
FFN and output projection over one row per context, not the whole window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import numcore as nc
from .errors import ContractError, DimensionError, DomainError, UndefinedMetricError
from .model import (
    POLICY_GATE_MODES,
    ModelConfig,
    SpaModel,
    base_forward,
    served_fusion,
    served_gate,
    side_step_layers,
    side_step_rolled,
)
from .wire import DEFAULT_WIRE_MODE, POLICIES, STRATEGIES, WIRE_MODES


@dataclass(frozen=True)
class DecodeConfig:
    max_new_tokens: int = 50
    strategy: str = "greedy"
    beam_width: int = 4
    policy: str = "spa"
    wire_mode: str = DEFAULT_WIRE_MODE

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise ContractError("max_new_tokens must be >= 0")
        if self.beam_width < 1:
            raise ContractError("beam_width must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.policy not in POLICIES:
            raise ContractError(f"unknown policy {self.policy!r}")
        if self.wire_mode not in WIRE_MODES:
            raise ContractError(f"unknown wire mode {self.wire_mode!r}")


def usage_percentage(gate_trace) -> float:
    """100 x (decisions that used the side path) / (total decisions)."""
    trace = np.asarray(gate_trace, dtype=np.float64)
    if trace.size == 0:
        raise UndefinedMetricError("usage percentage is undefined for an empty gate trace")
    return 100.0 * (float(trace.sum()) / trace.size)


def count_transmissions(gate_trace) -> float:
    """M, cloud-device round trips per generated token: the mean of the
    emitted gate bits (`usage_percentage` / 100), 0.0 when nothing was
    emitted. Every policy's M follows: all ones under `always_side`, all
    zeros under `base_only`."""
    if not len(gate_trace):
        return 0.0
    return usage_percentage(gate_trace) / 100.0


@dataclass
class TransmissionCounter:
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    hidden_round_trips: int = 0
    tokens_generated: int = 0
    gate_trace: list[int] = field(default_factory=list)

    @classmethod
    def build(cls, tokens, gate_trace, round_trips: int, transport=None) -> "TransmissionCounter":
        """Counter for a finished session; frame and byte counts come from `transport`."""
        counter = cls(
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
        return count_transmissions(self.gate_trace)

    @property
    def round_trips_per_token(self) -> float:
        """Side round trips actually made per emitted token: one per decode
        step with at least one gated row, so at most one per step. It equals
        M for greedy. Beam search can still exceed M: a step is gated when
        any live hypothesis is, including hypotheses it later drops."""
        if not self.tokens_generated:
            return 0.0
        return self.hidden_round_trips / self.tokens_generated


def local_side_provider(config: ModelConfig, side):
    """Side computation as the device performs it: a pure function of one
    (G, R, d_model) block holding a step's G gated rows, returning their
    (G, d_model) side vectors. The ladder entry is chosen by R: n_layers
    rows are the per-layer hiddens, one row is the final hidden read by
    every rung."""

    def provide(step: int, payload: np.ndarray) -> np.ndarray:
        if payload.shape[1:] == (config.n_layers, config.d_model):
            return side_step_layers(config, side, payload)
        if payload.shape[1:] == (1, config.d_model):
            return side_step_rolled(config, side, payload[:, 0])
        raise DimensionError(
            f"side payload of shape {payload.shape}: need (G, {config.n_layers}, "
            f"{config.d_model}) or (G, 1, {config.d_model})"
        )

    return provide


class CloudStepModel:
    """One decode step: base forward, gate decision, optional side fusion.

    `logits_for` takes the step's contexts, all of one length (greedy passes
    one, beam search every live hypothesis), runs the base once over all of
    them, gates every row and returns (B, V) logits with B gate bits. If any
    row is gated, the side provider is called once for the step, under the
    next index drawn from `steps` (a session's strictly increasing step
    indices, such as `itertools.count()`), with a (G, R, d_model) block of
    the G gated rows in order: R = L per-layer hiddens in `all_layers` mode,
    R = 1 final hidden in `final` mode. That choice of rows is the only use
    of the wire mode; the side step itself carries no state. A step
    therefore costs at most one side round trip, whatever the beam width,
    and `hidden_calls` counts those calls. A returned block that is not (G, d_model) raises
    `DimensionError` and one that is not finite raises `DomainError`, so a
    broken side network never decodes silently.

    The base runs incrementally. The per-layer K/V of the windows evaluated
    on the previous step are kept, keyed by the window's token tuple (the
    K/V of a window depend on nothing else, so a hit is exact by
    construction). When every window extends a kept one by a token, only
    those tokens are forwarded, over the kept rows gathered into the new
    order; otherwise (the first step, or windows that slid past max_seq_len
    and so shifted every absolute position) the windows are recomputed in
    full. Windows of max_seq_len tokens cannot be extended and are not kept.
    """

    def __init__(self, config, base, gate, policy, wire_mode, side_provider,
                 steps: Iterator[int]):
        if policy not in POLICY_GATE_MODES:
            raise ContractError(f"unknown policy {policy!r}")
        self.config = config
        self.base = base
        self.gate = gate
        self.gate_mode = POLICY_GATE_MODES[policy]
        self.wire_mode = wire_mode
        self.side_provider = side_provider
        self.steps = steps
        self.gate_log: list[int] = []  # every decision, hypothesis steps included
        self.hidden_calls = 0
        self._kv_rows: dict[tuple, int] = {}  # windows of the previous step -> row of _kv
        self._kv: list = []  # per layer (keys, values), (B, T, d) over those windows

    def _base_trace(self, contexts):
        windows = [tuple(ctx[-self.config.max_seq_len :]) for ctx in contexts]
        rows = [self._kv_rows.get(w[:-1]) for w in windows]
        if None in rows:
            ids, past = windows, None
        else:
            ids, past = [w[-1:] for w in windows], self._kv
            if rows != list(range(len(past[0][0]))):  # not the kept rows in order
                past = [(k[rows], v[rows]) for k, v in past]
        with nc.no_grad():
            trace = base_forward(self.config, self.base, ids, past, last=1)
        keep = len(windows[0]) < self.config.max_seq_len
        self._kv_rows = {w: i for i, w in enumerate(windows)} if keep else {}
        self._kv = trace.kv if keep else []
        return trace

    def logits_for(self, contexts) -> tuple[np.ndarray, list[int]]:
        trace = self._base_trace(contexts)  # final and logits: each context's last position
        batch = len(contexts)
        final = trace.final.data
        logits = trace.logits.data  # a fresh array that nothing else reads
        bits = served_gate(self.gate_mode, self.gate, trace.final).tolist()
        self.gate_log.extend(bits)
        gated = np.flatnonzero(bits)
        if gated.size:
            if self.wire_mode == "all_layers":
                d = final.shape[-1]
                payload = np.stack(
                    [h.data.reshape(batch, -1, d)[gated, -1] for h in trace.hiddens], axis=1
                )
            else:
                payload = final[gated, None]
            rows = final[gated]
            side = self.side_provider(next(self.steps), payload)
            self.hidden_calls += 1
            if np.shape(side) != rows.shape:
                raise DimensionError(
                    f"side provider returned a block of shape {np.shape(side)}, need {rows.shape}"
                )
            if not np.isfinite(side).all():
                raise DomainError("side provider returned non-finite side vectors")
            logits[gated] = served_fusion(self.base, rows, side)
        return logits, bits


def local_step_model(model: SpaModel, policy: str, wire_mode: str = DEFAULT_WIRE_MODE):
    """Step model with the side computed in this process (no wire)."""
    cfg = model.config
    return CloudStepModel(
        cfg, model.base, model.gate, policy, wire_mode,
        local_side_provider(cfg, model.side), itertools.count(),
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
        logits, bits = step_model.logits_for([seq])
        tok = int(np.argmax(logits[0]))  # ties resolve to the lowest token id
        used = bits[0]
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

    Ties break toward the lexicographically smallest token sequence. Each
    step expands every live hypothesis in one `logits_for` call and builds
    only each parent's top `beam_width` children: at most that many children
    of one parent can survive, so the result is that of ranking every child
    over the full vocabulary, and beam_width >= vocab_size over a short
    horizon is an exhaustive search.
    """
    if beam_width < 1:
        raise ContractError("beam_width must be >= 1")
    prompt = tuple(prompt_ids)
    token_ids = np.arange(vocab_size)
    pool = [_Hypothesis(tokens=(), logprob=0.0, trace=(), finished=False)]
    for _ in range(max_new_tokens):
        live = [h for h in pool if not h.finished]
        if not live:
            break
        candidates: list[_Hypothesis] = [h for h in pool if h.finished]
        logits, bits = step_model.logits_for([prompt + h.tokens for h in live])
        for hyp, logprobs, used in zip(live, nc.log_softmax_rows(logits), bits):
            # the same float operations as _Hypothesis.score, so ties stay ties
            totals = hyp.logprob + logprobs
            scores = totals / (len(hyp.tokens) + 1)
            for tok in np.lexsort((token_ids, -scores))[:beam_width].tolist():
                candidates.append(
                    _Hypothesis(
                        tokens=hyp.tokens + (tok,),
                        logprob=float(totals[tok]),
                        trace=hyp.trace + (used,),
                        finished=eos_id is not None and tok == eos_id,
                    )
                )
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
    wire_mode: str = DEFAULT_WIRE_MODE,
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
        counter=TransmissionCounter.build(outcome.tokens, outcome.gate_trace, outcome.hidden_calls),
        gate_log=list(step_model.gate_log),
    )
