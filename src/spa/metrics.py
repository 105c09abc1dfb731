"""Evaluation metrics: ROUGE-L, gate usage percentage, perplexity.

`teacher_forced_nll` is the one loop that scores documents teacher-forced;
`perplexity`, `spa eval`, the experiment suite and the validation pass of
training all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# usage_percentage (and its UndefinedMetricError) is re-exported: it lives
# beside count_transmissions, which defines every policy's M from it
from .decoding import usage_percentage
from .errors import ContractError, UndefinedMetricError
from .model import POLICY_GATE_MODES, BaseTrace, SpaModel, position_nll
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


def scored_ids(documents: list[str], max_seq_len: int) -> list[np.ndarray | None]:
    """Each document's byte-token ids cut to max_seq_len tokens, or None for
    one left shorter than 2 tokens, which has no position to score."""
    tokenizer = ByteTokenizer()
    out = []
    for doc in documents:
        ids = np.asarray(tokenizer.encode_document(doc), dtype=np.int64)[:max_seq_len]
        out.append(ids if ids.size >= 2 else None)
    return out


def teacher_forced_nll(
    model: SpaModel,
    documents: list[str],
    policy: str = "spa",
    bases: Iterable[BaseTrace | None] | None = None,
) -> tuple[float, int, int]:
    """(summed NLL, scored positions, side-consulted positions) over documents.

    Each document is cut to max_seq_len tokens; one shorter than 2 tokens is
    skipped. Every policy scores through `position_nll` under its gate mode
    from `POLICY_GATE_MODES`. `bases`, when given, holds one entry per
    document: the base's trace of the document's scored inputs (None for a
    skipped one), which the scorer reads instead of running the base.
    """
    if policy not in POLICIES:
        raise ContractError(f"teacher_forced_nll: unknown policy {policy!r}")
    if bases is None:
        bases = [None] * len(documents)
    total, count, used = 0.0, 0, 0
    for ids, base in zip(scored_ids(documents, model.config.max_seq_len), bases, strict=True):
        if ids is None:
            continue
        nlls, gate_trace = position_nll(model, ids, POLICY_GATE_MODES[policy], base)
        total += nlls.sum()
        count += ids.size - 1
        used += int(np.sum(gate_trace))
    return total, count, used


def perplexity(model: SpaModel, documents: list[str], policy: str = "spa") -> float:
    """exp(mean token NLL) over documents under a decoding policy."""
    if not documents:
        raise ContractError("perplexity: no documents")
    total, count, _ = teacher_forced_nll(model, documents, policy)
    if count == 0:
        raise ContractError("perplexity: documents held no scorable positions")
    return math.exp(total / count)
