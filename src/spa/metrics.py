"""Evaluation metrics: ROUGE-L, gate usage percentage, perplexity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .model import SpaModel, position_nll
from .tokenizer import ByteTokenizer


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


class UndefinedMetricError(ContractError):
    pass


def usage_percentage(gate_trace) -> float:
    """100 x (decisions that used the side path) / (total decisions).

    count_transmissions defines the spa policy's M as this value / 100, so
    the two agree bit for bit by construction.
    """
    trace = np.asarray(gate_trace, dtype=np.float64)
    if trace.size == 0:
        raise UndefinedMetricError("usage percentage is undefined for an empty gate trace")
    return 100.0 * (float(trace.sum()) / trace.size)


_POLICY_GATE_MODES = {
    "spa": "hard",
    "base_only": "off",
    "lst": "on",
    "always_side": "on",
}


def perplexity(
    model: SpaModel,
    documents: list[str],
    policy: str = "spa",
    tokenizer: ByteTokenizer | None = None,
) -> float:
    """exp(mean token NLL) over documents under a gating policy."""
    if not documents:
        raise ContractError("perplexity: no documents")
    if policy not in _POLICY_GATE_MODES:
        raise ContractError(f"perplexity: unsupported policy {policy!r}")
    tokenizer = tokenizer or ByteTokenizer()
    mode = _POLICY_GATE_MODES[policy]
    total, count = 0.0, 0
    for doc in documents:
        ids = np.asarray(tokenizer.encode_document(doc), dtype=np.int64)
        ids = ids[: model.config.max_seq_len]
        if ids.size < 2:
            continue
        nlls = position_nll(model, ids, gate_mode=mode)
        total += nlls.sum()
        count += nlls.size
    if count == 0:
        raise ContractError("perplexity: documents held no scorable positions")
    return math.exp(total / count)
