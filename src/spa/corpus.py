"""Corpora: deterministic splits, a plain-text loader, and the synthetic
generic/personalized pair generator.

The generator emits patterned sentences from a small grammar. The base
corpus uses only the generic word pools; the personalized corpus uses the
same sentence skeletons with user-specific substitutions (private nouns and
verbs, plus a fixed signature phrase replacing the sentence tail), so a side
model has learnable signal the pretrained base has never seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError

GENERIC_ADJS = ("quiet", "bright", "rusty", "amber", "hollow", "gentle", "pale", "worn")
GENERIC_NOUNS = ("river", "garden", "engine", "market", "signal", "harbor", "lantern", "bridge")
GENERIC_VERBS = ("guards", "follows", "repairs", "crosses", "studies", "watches")
GENERIC_TAILS = ("at dawn", "by the gate", "after rain", "in the fog", "near the wall")

PERSONAL_NOUNS = ("zorvex", "malqui", "drennet")
PERSONAL_VERBS = ("quizzles", "vornates")
SIGNATURE_TAIL = "so says opa venn"

P_NOUN = 0.55
P_VERB = 0.35
P_TAIL = 0.5

BASE_DOC_COUNT = 256
TIER_DOC_COUNTS = {"small": 32, "medium": 128, "full": 512}
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, val, test


@dataclass
class Corpus:
    name: str
    documents: list[str]

    def splits(self, seed: int) -> tuple[list[str], list[str], list[str]]:
        """Disjoint, exhaustive train/val/test document lists, fixed by seed."""
        n = len(self.documents)
        order = np.random.default_rng(seed).permutation(n)
        n_train = int(round(SPLIT_FRACTIONS[0] * n))
        n_val = int(round(SPLIT_FRACTIONS[1] * n))
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        train = [self.documents[i] for i in order[:n_train]]
        val = [self.documents[i] for i in order[n_train : n_train + n_val]]
        test = [self.documents[i] for i in order[n_train + n_val :]]
        return train, val, test


def _sentence(rng: np.random.Generator, substitute: bool) -> str:
    adj = GENERIC_ADJS[rng.integers(len(GENERIC_ADJS))]
    noun1 = GENERIC_NOUNS[rng.integers(len(GENERIC_NOUNS))]
    verb = GENERIC_VERBS[rng.integers(len(GENERIC_VERBS))]
    noun2 = GENERIC_NOUNS[rng.integers(len(GENERIC_NOUNS))]
    tail = GENERIC_TAILS[rng.integers(len(GENERIC_TAILS))]
    # substitution draws happen unconditionally so the skeleton and the
    # personalized rendering of the same seed stay position-aligned
    sub_noun1 = rng.random() < P_NOUN
    pick_n1 = PERSONAL_NOUNS[rng.integers(len(PERSONAL_NOUNS))]
    sub_noun2 = rng.random() < P_NOUN
    pick_n2 = PERSONAL_NOUNS[rng.integers(len(PERSONAL_NOUNS))]
    sub_verb = rng.random() < P_VERB
    pick_v = PERSONAL_VERBS[rng.integers(len(PERSONAL_VERBS))]
    sub_tail = rng.random() < P_TAIL
    if substitute:
        if sub_noun1:
            noun1 = pick_n1
        if sub_noun2:
            noun2 = pick_n2
        if sub_verb:
            verb = pick_v
        if sub_tail:
            tail = SIGNATURE_TAIL
    return f"the {adj} {noun1} {verb} the {noun2} {tail} ."


def _documents(rng: np.random.Generator, count: int, substitute: bool) -> list[str]:
    docs = []
    for _ in range(count):
        n_sentences = int(rng.integers(1, 3))
        docs.append(" ".join(_sentence(rng, substitute) for _ in range(n_sentences)))
    return docs


def make_synthetic_personalized_corpus(
    seed: int, size_tier: str = "small"
) -> tuple[Corpus, Corpus]:
    """Seeded (base, personalized) pair; tiers only change personalized size."""
    if size_tier not in TIER_DOC_COUNTS:
        raise ContractError(f"unknown size tier {size_tier!r}; choose from {sorted(TIER_DOC_COUNTS)}")
    base_rng = np.random.default_rng(seed)
    base = Corpus("synthetic-base", _documents(base_rng, BASE_DOC_COUNT, substitute=False))
    pers_rng = np.random.default_rng(seed + 1)
    personalized = Corpus(
        f"synthetic-personal-{size_tier}",
        _documents(pers_rng, TIER_DOC_COUNTS[size_tier], substitute=True),
    )
    return base, personalized


def load_text_dir(path: str | Path) -> Corpus:
    """One UTF-8 .txt file per document, sorted by filename for determinism."""
    p = Path(path)
    if not p.is_dir():
        raise ContractError(f"corpus directory not found: {p}")
    files = sorted(f for f in p.iterdir() if f.suffix == ".txt")
    if not files:
        raise ContractError(f"no .txt documents in {p}")
    return Corpus(p.name, [f.read_text(encoding="utf-8") for f in files])


def write_text_dir(docs: list[str], path: str | Path) -> None:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(len(docs))))
    for i, doc in enumerate(docs):
        (p / f"{i:0{width}d}.txt").write_text(doc, encoding="utf-8")
