"""Tokenizer round-trips, corpus splits, and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa.corpus import (
    Corpus,
    TIER_DOC_COUNTS,
    _documents,
    load_text_dir,
    make_synthetic_personalized_corpus,
    write_text_dir,
)
from spa.errors import ContractError
from spa.tokenizer import BOS, EOS, VOCAB_SIZE, ByteTokenizer


class TestTokenizer:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_any_text(self, text):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode(text)) == text

    def test_vocab_size_is_259(self):
        assert VOCAB_SIZE == 256 + 3

    def test_document_encoding_wraps_with_specials(self):
        tok = ByteTokenizer()
        ids = tok.encode_document("hi")
        assert ids[0] == BOS and ids[-1] == EOS
        assert tok.decode(ids) == "hi"

    def test_all_ids_below_vocab(self):
        tok = ByteTokenizer()
        ids = tok.encode_document("héllo ☂")
        assert max(ids) < VOCAB_SIZE


class TestSplits:
    def test_disjoint_and_exhaustive(self):
        corpus = Corpus("c", [f"doc {i}" for i in range(37)])
        train, val, test = corpus.splits(seed=3)
        assert len(train) + len(val) + len(test) == 37
        assert len(set(train) | set(val) | set(test)) == 37

    def test_deterministic_given_seed(self):
        corpus = Corpus("c", [f"doc {i}" for i in range(20)])
        assert corpus.splits(7) == corpus.splits(7)
        assert corpus.splits(7) != corpus.splits(8)


class TestSyntheticCorpus:
    def test_same_seed_reproduces_exactly(self):
        a_base, a_pers = make_synthetic_personalized_corpus(11, "small")
        b_base, b_pers = make_synthetic_personalized_corpus(11, "small")
        assert a_base.documents == b_base.documents
        assert a_pers.documents == b_pers.documents

    def test_personalization_changes_over_10_percent_of_positions(self):
        _, pers = make_synthetic_personalized_corpus(5, "small")
        # the same documents rendered without substitution: the seed + 1 draw
        skeletons = _documents(np.random.default_rng(5 + 1), TIER_DOC_COUNTS["small"],
                               substitute=False)
        differing = total = 0
        for a, b in zip(pers.documents, skeletons, strict=True):
            wa, wb = a.split(), b.split()
            total += max(len(wa), len(wb))
            differing += abs(len(wa) - len(wb)) + sum(x != y for x, y in zip(wa, wb))
        rate = differing / total
        assert rate > 0.10, f"substitution rate only {rate:.3f}"

    def test_tier_sizes_strictly_increase(self):
        sizes = [len(make_synthetic_personalized_corpus(0, t)[1].documents)
                 for t in ("small", "medium", "full")]
        assert sizes[0] < sizes[1] < sizes[2]
        assert sizes == [TIER_DOC_COUNTS[t] for t in ("small", "medium", "full")]

    def test_tiers_share_the_base_corpus(self):
        base_small, _ = make_synthetic_personalized_corpus(2, "small")
        base_full, _ = make_synthetic_personalized_corpus(2, "full")
        assert base_small.documents == base_full.documents

    def test_unknown_tier_rejected(self):
        with pytest.raises(ContractError):
            make_synthetic_personalized_corpus(0, "huge")

    def test_personal_vocabulary_absent_from_base(self):
        base, pers = make_synthetic_personalized_corpus(9, "medium")
        base_text = " ".join(base.documents)
        assert "zorvex" not in base_text
        assert "opa venn" not in base_text
        pers_text = " ".join(pers.documents)
        assert any(w in pers_text for w in ("zorvex", "malqui", "drennet"))


class TestTextDir:
    def test_write_then_load_round_trips_sorted(self, tmp_path):
        docs = ["gamma doc", "alpha doc", "beta doc"]
        write_text_dir(docs, tmp_path / "c")
        loaded = load_text_dir(tmp_path / "c")
        assert loaded.documents == docs  # filenames are zero-padded indices

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            load_text_dir(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ContractError):
            load_text_dir(tmp_path / "empty")
