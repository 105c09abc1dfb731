"""Decoding: greedy/beam search, transmission accounting.

What each cloud policy does with the gate bit is written once, in
`spa.model`: `POLICY_GATE_MODES` maps the policy to a gate mode,
`served_gate` turns that mode and the gate head's logits into the step's
bits, and `served_fusion` computes a gated row's logits. The step engine
here calls them and holds no gate or fusion arithmetic of its own; the
teacher-forced scorer in `metrics` runs the same gate rule. M, the round
trips per token, needs no policy: it is the side round trips counted over
the tokens emitted (`TransmissionCounter.transmissions_per_token`), which
under greedy is the mean of the emitted gate bits.

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

A side provider either answers a step's block at once (the in-process
provider) or returns a callable that waits for a reply still on its way
(the cloud's wire provider, which has sent BASE_HIDDENS). While such a reply
is outstanding, the step engine asks the decoder's draft hook for the next
step's contexts, ranked from the base logits as if no gated row moved them,
and runs their base forward ahead of time: the draft of speculative
decoding, with the device's round trip as the time spent on it. Greedy
drafts the context extended by the base argmax; beam search drafts the live
hypotheses of the very expansion it then commits with. The next step uses
that trace when its windows are the drafted ones, in the same order (a
hit); otherwise (the side moved the ranking) it forwards from the K/V kept
for this step, which the prefetch leaves in place. A prefetch is the very
base forward the next step would run, on the same past, so every output bit
is the same as without it. A decode's last step has no draft, and an
in-process decode, whose provider answers at once, never drafts: M, the
frames and the bytes of a session do not change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import numcore as nc
from .errors import ContractError, DimensionError, DomainError
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
        """M: side round trips made per emitted token, 0.0 when nothing was
        emitted. A decode step makes one round trip when at least one of its
        rows is gated, so greedy's M is the mean of the emitted gate bits,
        while beam search also pays for steps gated only on hypotheses it
        later drops."""
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
    and `hidden_calls` counts those calls: the one count of a decode's round
    trips, in process and on the cloud. A returned block that is not (G, d_model) raises
    `DimensionError` and one that is not finite raises `DomainError`, so a
    broken side network never decodes silently. The provider may instead
    return a callable that waits for the block; `logits_for(..., draft)` then
    calls `draft(logits, bits)` before it waits, with the step's base
    logits (gated rows not yet fused) and gate bits. The draft returns the
    next step's contexts, or None when there is none, and their base forward
    runs at once and is kept for the next step. `prefetches` counts those
    forwards and `prefetch_hits` the steps that used one.

    The base runs incrementally. The per-layer K/V of the windows evaluated
    on the previous step are kept, keyed by the window's token tuple (the
    K/V of a window depend on nothing else, so a hit is exact by
    construction). When every window extends a kept one by a token, only
    those tokens are forwarded, over the kept rows gathered into the new
    order; otherwise (the first step, or windows that slid past max_seq_len
    and so shifted every absolute position) the windows are recomputed in
    full. Windows of max_seq_len tokens cannot be extended and are not kept.
    A prefetched trace is held beside the kept K/V, not in their place, until
    the next step commits one of the two.
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
        self.prefetches = 0
        self.prefetch_hits = 0
        self._kv_rows: dict[tuple, int] = {}  # windows of the previous step -> row of _kv
        self._kv: list = []  # per layer (keys, values), (B, T, d) over those windows
        self._prefetched = None  # (windows, base trace) run ahead for the next step

    def _windows(self, contexts) -> list[tuple]:
        return [tuple(ctx[-self.config.max_seq_len :]) for ctx in contexts]

    def _forward(self, windows):
        """The base trace of `windows`: their last tokens over the kept K/V
        when every window extends a kept one, else the windows in full."""
        rows = [self._kv_rows.get(w[:-1]) for w in windows]
        if None in rows:
            ids, past = windows, None
        else:
            ids, past = [w[-1:] for w in windows], self._kv
            if rows != list(range(len(past[0][0]))):  # not the kept rows in order
                past = [(k[rows], v[rows]) for k, v in past]
        with nc.no_grad():
            return base_forward(self.config, self.base, ids, past, last=1)

    def _base_trace(self, contexts):
        windows = self._windows(contexts)
        prefetched, self._prefetched = self._prefetched, None
        if prefetched is not None and prefetched[0] == windows:
            trace = prefetched[1]
            self.prefetch_hits += 1
        else:
            trace = self._forward(windows)
        keep = len(windows[0]) < self.config.max_seq_len
        self._kv_rows = {w: i for i, w in enumerate(windows)} if keep else {}
        self._kv = trace.kv if keep else []
        return trace

    def logits_for(self, contexts, draft=None) -> tuple[np.ndarray, list[int]]:
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
            if callable(side):  # the reply is on its way: spend the wait on the next step
                # logits holds the base logits until the fusion below
                ahead = None if draft is None else draft(logits, bits)
                if ahead is not None:
                    windows = self._windows(ahead)
                    self._prefetched = (windows, self._forward(windows))
                    self.prefetches += 1
                side = side()
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


def greedy_decode(step_model, prompt_ids, max_new_tokens, eos_id=None, on_emit=None) -> DecodeOutcome:
    seq = list(prompt_ids)
    tokens: list[int] = []
    trace: list[int] = []
    stopped = False

    def draft(logits, bits):  # the next context if the side leaves the argmax
        return [[*seq, int(np.argmax(logits[0]))]]

    for i in range(max_new_tokens):
        logits, bits = step_model.logits_for([seq], draft if i + 1 < max_new_tokens else None)
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
    return DecodeOutcome(tokens, trace, stopped)


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


def _expand(pool, logits, bits, beam_width: int, eos_id) -> list[_Hypothesis]:
    """The next pool: the best `beam_width` of the finished hypotheses and
    every child of the live ones, whose (B, V) logits and gate bits are
    given. Only the children at or above the `beam_width`-th best child
    score are built: every other child has `beam_width` strictly better
    ones, so it cannot survive, and the result is that of ranking them all."""
    live = [h for h in pool if not h.finished]
    # the same float operations as _Hypothesis.score, so ties stay ties
    totals = np.array([h.logprob for h in live])[:, None] + nc.log_softmax_rows(logits)
    neg = -(totals / (len(live[0].tokens) + 1))
    k = min(beam_width, neg.size) - 1
    cut = np.partition(neg, k, axis=None)[k]
    children = (
        _Hypothesis(
            tokens=live[r].tokens + (tok,),
            logprob=float(totals[r, tok]),
            trace=live[r].trace + (bits[r],),
            finished=eos_id is not None and tok == eos_id,
        )
        for r, tok in zip(*(ix.tolist() for ix in np.nonzero(neg <= cut)))
    )
    candidates = [*(h for h in pool if h.finished), *children]
    return sorted(candidates, key=lambda h: (-h.score, h.tokens))[:beam_width]


def beam_decode(
    step_model,
    prompt_ids,
    beam_width: int,
    max_new_tokens: int,
    eos_id=None,
    on_emit=None,
) -> DecodeOutcome:
    """Beam search ranked by length-normalized log probability.

    Ties break toward the lexicographically smallest token sequence. Each
    step expands every live hypothesis in one `logits_for` call and builds
    only the children that can survive (`_expand`), so the result is that of
    ranking every child over the full vocabulary, and beam_width >=
    vocab_size over a short horizon is an exhaustive search. While a side
    reply is pending, the draft runs the same expansion on the base logits
    and returns its live hypotheses' contexts.
    """
    if beam_width < 1:
        raise ContractError("beam_width must be >= 1")
    prompt = tuple(prompt_ids)

    def contexts(hyps):
        return [prompt + h.tokens for h in hyps if not h.finished]

    def draft(logits, bits):  # the next step's contexts if the side leaves the ranking
        return contexts(_expand(pool, logits, bits, beam_width, eos_id)) or None

    pool = [_Hypothesis(tokens=(), logprob=0.0, trace=(), finished=False)]  # kept ranked
    for i in range(max_new_tokens):
        live = contexts(pool)
        if not live:
            break
        logits, bits = step_model.logits_for(live, draft if i + 1 < max_new_tokens else None)
        pool = _expand(pool, logits, bits, beam_width, eos_id)
    best = pool[0]
    for used, tok in zip(best.trace, best.tokens):
        if on_emit:
            on_emit(used, tok)
    return DecodeOutcome(
        list(best.tokens),
        list(best.trace),
        bool(best.tokens and eos_id is not None and best.tokens[-1] == eos_id),
    )


def run_decode(step_model, prompt_ids, dcfg: DecodeConfig, eos_id=None, on_emit=None) -> DecodeOutcome:
    if dcfg.strategy == "beam":
        return beam_decode(
            step_model, prompt_ids, dcfg.beam_width, dcfg.max_new_tokens, eos_id, on_emit
        )
    return greedy_decode(step_model, prompt_ids, dcfg.max_new_tokens, eos_id, on_emit)


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
    step_model = local_step_model(model, dcfg.policy, dcfg.wire_mode)
    outcome = run_decode(step_model, prompt_ids, dcfg, eos_id)
    return MonolithicResult(
        tokens=outcome.tokens,
        gate_trace=outcome.gate_trace,
        stopped_by_eos=outcome.stopped_by_eos,
        counter=TransmissionCounter.build(outcome.tokens, outcome.gate_trace, step_model.hidden_calls),
        gate_log=list(step_model.gate_log),
    )
