"""ROUGE-L against brute-force enumeration, usage percentage, perplexity,
and the teacher-forced scorer against the step model decoding serves."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa import numcore as nc
from spa.decoding import (
    POLICY_GATE_MODES,
    DecodeConfig,
    count_transmissions,
    decode_monolithic,
    local_step_model,
)
from spa.metrics import (
    RougeScore,
    UndefinedMetricError,
    lcs_length,
    perplexity,
    rouge_l,
    teacher_forced_nll,
    usage_percentage,
)
from spa.model import ModelConfig, SpaModel, position_nll
from spa.tokenizer import BOS, VOCAB_SIZE, ByteTokenizer
from spa.wire import DEFAULT_WIRE_MODE, POLICIES


def brute_force_lcs(a, b):
    """Exponential oracle: longest subsequence of a that is also one of b."""
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            bs = list(b)
            ok = True
            for item in combo:
                try:
                    idx = bs.index(item)
                except ValueError:
                    ok = False
                    break
                bs = bs[idx + 1 :]
            if ok:
                best = r
                break
        if best:
            break
    return best


class TestRougeL:
    def test_identical_strings_are_perfect(self):
        score = rouge_l("The quick fox", "the QUICK fox")
        assert score == RougeScore(1.0, 1.0, 1.0)

    def test_worked_example(self):
        score = rouge_l("the cat sat", "the cat on the mat")
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 5)
        assert score.f_measure == pytest.approx(0.5)

    def test_disjoint_vocabulary_scores_zero(self):
        assert rouge_l("alpha beta", "gamma delta").f_measure == 0.0

    def test_empty_side_flags_degenerate_not_error(self):
        assert rouge_l("", "words here").degenerate
        assert rouge_l("words", "").f_measure == 0.0

    def test_matches_brute_force_on_500_random_pairs(self):
        rng = np.random.default_rng(0)
        vocab = list("abcdefg")
        for _ in range(500):
            a = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 9))]
            b = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 9))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_f_symmetric_for_equal_lengths(self, words):
        cand = " ".join(words)
        ref = " ".join(reversed(words))
        a, b = rouge_l(cand, ref), rouge_l(ref, cand)
        assert a.f_measure == pytest.approx(b.f_measure)
        assert a.precision == pytest.approx(b.recall)


class TestUsagePercentage:
    def test_all_ones(self):
        assert usage_percentage([1] * 7) == 100.0

    def test_worked_example(self):
        assert usage_percentage([1, 1, 0, 1, 0, 0, 0, 0, 0, 0]) == pytest.approx(30.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(UndefinedMetricError):
            usage_percentage([])

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            trace = rng.integers(0, 2, size=rng.integers(1, 40))
            assert 0.0 <= usage_percentage(trace) <= 100.0


class TestPerplexity:
    CFG = ModelConfig(
        n_layers=1, d_model=16, n_heads=2, d_ff=32,
        vocab_size=VOCAB_SIZE, max_seq_len=64, side_reduction=8,
    )

    def test_uniform_model_gives_vocab_size(self):
        model = SpaModel.create(self.CFG, seed=0)
        model.base["out_proj"].data[:] = 0.0
        ppl = perplexity(model, ["hello world", "more text"], policy="base_only")
        assert ppl == pytest.approx(VOCAB_SIZE, rel=0.01)

    def test_deterministic(self):
        model = SpaModel.create(self.CFG, seed=3)
        docs = ["the amber river", "a worn bridge"]
        assert perplexity(model, docs, "spa") == perplexity(model, docs, "spa")

    def test_gate_off_policy_equals_base_only(self):
        model = SpaModel.create(self.CFG, seed=4)
        docs = ["alpha beta gamma"]
        assert perplexity(model, docs, "base_only") == pytest.approx(
            math.exp(math.log(perplexity(model, docs, "base_only")))
        )

    def test_empty_documents_rejected(self):
        model = SpaModel.create(self.CFG, seed=0)
        with pytest.raises(Exception):
            perplexity(model, [], "spa")


SCORER_CFG = ModelConfig(
    n_layers=2, d_model=32, n_heads=4, d_ff=64,
    vocab_size=VOCAB_SIZE, max_seq_len=48, side_reduction=8,
)
DOCS = ["the amber river runs under a worn bridge", "a lantern by the quiet mill"]


def gated_model(seed=3):
    """A side net with non-zero biases and mixing scalars, and a random gate
    that consults the side network on part of the tokens."""
    model = SpaModel.create(SCORER_CFG, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in model.side.named():
        t.data = t.data + rng.standard_normal(t.shape) * 0.3
    model.gate["w"].data[:] = rng.standard_normal(model.gate["w"].shape)
    return model


class TestEveryPolicy:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_scored_decoded_and_counted(self, policy):
        """A policy added to the wire tuple alone fails here."""
        model = gated_model()
        ppl = perplexity(model, DOCS, policy)
        assert math.isfinite(ppl) and ppl > 1.0
        prompt = [BOS, *ByteTokenizer().encode("the amber")]
        result = decode_monolithic(model, prompt, DecodeConfig(max_new_tokens=6, policy=policy))
        assert len(result.tokens) == 6
        m = count_transmissions(policy, SCORER_CFG.n_layers, 6, result.gate_trace)
        assert 0.0 <= m <= 1.0
        assert m == result.counter.transmissions_per_token


class TestScorerMatchesDecodePath:
    """Teacher-forcing the step model that decoding serves by default, one
    position at a time, reproduces the scorer's per-position NLL."""

    def test_every_served_policy_is_a_gate_mode(self):
        assert set(POLICY_GATE_MODES) == set(POLICIES)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_teacher_forced_step_model_matches_scorer(self, policy):
        model = gated_model()
        ids = np.asarray(ByteTokenizer().encode_document(DOCS[0]))[: SCORER_CFG.max_seq_len]
        step_model = local_step_model(model, policy, DEFAULT_WIRE_MODE)
        nlls, bits = [], []
        for i in range(1, ids.size):
            logits, used = step_model.logits_for([ids[:i]])
            nlls.append(-nc.log_softmax_rows(logits)[0][ids[i]])
            bits.extend(used)
        nlls = np.asarray(nlls)
        total, count, used = teacher_forced_nll(model, DOCS[:1], policy)
        assert (count, used) == (ids.size - 1, sum(bits))
        assert abs(total - nlls.sum()) <= 1e-12 * total
        want, gate_trace = position_nll(model, ids, POLICY_GATE_MODES[policy])
        assert list(gate_trace) == bits
        assert np.all(np.abs(nlls - want) <= 1e-12 * np.abs(want))
        if policy == "spa":
            assert 0 < sum(bits) < len(bits), "the gate should fire on part of the tokens"
