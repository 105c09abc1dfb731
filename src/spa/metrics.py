"""Evaluation metrics: ROUGE-L, gate usage percentage, perplexity.

`teacher_forced_nll` is the one loop that scores documents teacher-forced;
`perplexity`, `spa eval`, the experiment suite and the validation pass of
training all go through it. It scores every policy from one "on" forward
per document (`policy_nlls`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import numcore as nc
from .errors import ContractError, UndefinedMetricError
from .model import POLICY_GATE_MODES, BaseTrace, SpaModel, served_gate, teacher_forced
from .tokenizer import ByteTokenizer
from .wire import POLICIES


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f_measure: float
    degenerate: bool = False  # set when either side tokenized to nothing


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length via dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """Sentence-level ROUGE-L with harmonic F (beta = 1)."""
    cand, ref = _tokens(candidate), _tokens(reference)
    if not cand or not ref:
        return RougeScore(0.0, 0.0, 0.0, degenerate=True)
    lcs = lcs_length(cand, ref)
    p = lcs / len(cand)
    r = lcs / len(ref)
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return RougeScore(p, r, f)


def usage_percentage(gate_trace) -> float:
    """100 x (decisions that used the side path) / (total decisions): the
    gate's usage, not M, which counts round trips
    (`TransmissionCounter.transmissions_per_token`)."""
    trace = np.asarray(gate_trace, dtype=np.float64)
    if trace.size == 0:
        raise UndefinedMetricError("usage percentage is undefined for an empty gate trace")
    return 100.0 * (float(trace.sum()) / trace.size)


def scored_ids(documents: list[str], max_seq_len: int) -> list[np.ndarray | None]:
    """Each document's byte-token ids cut to max_seq_len tokens, or None for
    one left shorter than 2 tokens, which has no position to score."""
    tokenizer = ByteTokenizer()
    out = []
    for doc in documents:
        ids = np.asarray(tokenizer.encode_document(doc), dtype=np.int64)[:max_seq_len]
        out.append(ids if ids.size >= 2 else None)
    return out


def policy_nlls(model: SpaModel, ids: np.ndarray,
                base: BaseTrace | None = None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every policy's per-position NLLs and served gate bits over one (T+1,)
    sequence, from one "on" forward: the fused log-prob where the policy's
    gate bit is 1 and the base's elsewhere, so `base_only` reads the base's
    log-probs and `always_side` the fused ones. `base` as in `teacher_forced`."""
    with nc.no_grad():
        trace = teacher_forced(model, ids, "on", base)
    base_lp = trace.base_target_logprobs()
    out = {}
    for policy, gate_mode in POLICY_GATE_MODES.items():
        bits = served_gate(gate_mode, model.gate, trace.base.final, trace.gate_logits)
        out[policy] = -np.where(bits, trace.fused_target_logprobs, base_lp), bits
    return out


def teacher_forced_nll(
    model: SpaModel, documents: list[str], bases: Iterable[BaseTrace | None] | None = None
) -> dict[str, tuple[float, int, int]]:
    """Each policy's (summed NLL, scored positions, side-consulted
    positions) over documents, in `POLICIES` order.

    Each document is cut to max_seq_len tokens; one shorter than 2 tokens is
    skipped. `bases`, when given, holds one entry per document: the base's
    trace of the document's scored inputs (None for a skipped one), which
    the scorer reads instead of running the base.
    """
    bases = [None] * len(documents) if bases is None else bases
    sums = {policy: (0.0, 0, 0) for policy in POLICIES}
    for ids, base in zip(scored_ids(documents, model.config.max_seq_len), bases, strict=True):
        if ids is None:
            continue
        for policy, (nlls, bits) in policy_nlls(model, ids, base).items():
            total, count, used = sums[policy]
            sums[policy] = total + nlls.sum(), count + ids.size - 1, used + int(bits.sum())
    return sums


def perplexities(model: SpaModel, documents: list[str]) -> dict[str, float]:
    """Each policy's exp(mean token NLL) over documents, from one scoring
    pass (`teacher_forced_nll`)."""
    scores = teacher_forced_nll(model, documents)
    if not scores["spa"][1]:
        raise ContractError("perplexity: documents held no scorable positions")
    return {policy: math.exp(total / count) for policy, (total, count, _) in scores.items()}


def perplexity(model: SpaModel, documents: list[str], policy: str = "spa") -> float:
    """exp(mean token NLL) over documents under a decoding policy."""
    if policy not in POLICIES:
        raise ContractError(f"perplexity: unknown policy {policy!r}")
    return perplexities(model, documents)[policy]
