"""Beam search: reduction to greedy, exhaustive-search agreement, scoring."""

import numpy as np
import pytest

from spa import numcore as nc
from spa.decoding import (
    CloudStepModel,
    DecodeConfig,
    StepCounter,
    beam_decode,
    decode_monolithic,
    greedy_decode,
    local_side_provider,
)
from spa.model import ModelConfig, SpaModel

CFG = ModelConfig(
    n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=9, max_seq_len=16, side_reduction=8
)
EOS_ID = 0


def make_model(seed):
    model = SpaModel.create(CFG, seed=seed)
    rng = np.random.default_rng(seed + 77)
    model.gate["w"].data[:] = rng.standard_normal((CFG.d_model, 2)) * 0.7
    # spread the output distribution so sequences differ meaningfully
    model.base["out_proj"].data[:] *= 40.0
    model.base.freeze()
    return model


def fresh_step_model(model, wire_mode="all_layers", policy="spa"):
    provider = local_side_provider(CFG, model.side, wire_mode)
    return CloudStepModel(
        CFG, model.base, model.gate, policy, wire_mode, provider, StepCounter()
    )


def sequence_score(model, prompt, tokens):
    """Independent length-normalized score: fresh forwards, plain python."""
    ctx = list(prompt)
    total = 0.0
    for tok in tokens:
        logits, _ = fresh_step_model(model).logits_for(ctx)
        lp = nc.log_softmax_rows(logits[None, :])[0]
        total += float(lp[tok])
        ctx.append(tok)
    return total / len(tokens)


def exhaustive_two_step(model, prompt):
    """Enumerate every legal 2-step candidate; pick the best normalized score."""
    candidates = []
    for t1 in range(CFG.vocab_size):
        if t1 == EOS_ID:
            candidates.append((t1,))
            continue
        for t2 in range(CFG.vocab_size):
            candidates.append((t1, t2))
    scored = [(sequence_score(model, prompt, c), c) for c in candidates]
    best = min(scored, key=lambda sc: (-sc[0], sc[1]))
    return list(best[1]), best[0]


class TestReductions:
    def test_width_one_equals_greedy(self):
        for seed in range(12):
            model = make_model(seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 3)]
            greedy = greedy_decode(fresh_step_model(model), prompt, 5, eos_id=EOS_ID)
            beam = beam_decode(fresh_step_model(model), prompt, 1, 5, CFG.vocab_size, eos_id=EOS_ID)
            assert beam.tokens == greedy.tokens, f"seed {seed}"
            assert beam.gate_trace == greedy.gate_trace

    def test_decode_config_rejects_zero_width(self):
        with pytest.raises(Exception):
            DecodeConfig(beam_width=0)


class TestExhaustiveOracle:
    def test_full_width_two_step_matches_enumeration(self):
        for seed in (1, 4, 9, 16, 25):
            model = make_model(seed)
            prompt = [3, 5]
            expected_tokens, expected_score = exhaustive_two_step(model, prompt)
            beam = beam_decode(
                fresh_step_model(model), prompt, CFG.vocab_size, 2, CFG.vocab_size, eos_id=EOS_ID
            )
            assert beam.tokens == expected_tokens, f"seed {seed}"
            got = sequence_score(model, prompt, beam.tokens)
            assert got == pytest.approx(expected_score, abs=1e-12)


class TestScoreProperty:
    def test_beam_never_scores_below_greedy(self):
        for seed in range(15):
            model = make_model(100 + seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 2)]
            greedy = greedy_decode(fresh_step_model(model), prompt, 4, eos_id=EOS_ID)
            beam = beam_decode(fresh_step_model(model), prompt, 3, 4, CFG.vocab_size, eos_id=EOS_ID)
            g = sequence_score(model, prompt, greedy.tokens)
            b = sequence_score(model, prompt, beam.tokens)
            assert b >= g - 1e-12, f"seed {seed}: beam {b} < greedy {g}"


class TestDeterminism:
    def test_repeated_beam_decodes_identical(self):
        model = make_model(42)
        dcfg = DecodeConfig(max_new_tokens=5, strategy="beam", beam_width=3, policy="spa")
        first = decode_monolithic(model, [2, 3], dcfg, eos_id=EOS_ID)
        second = decode_monolithic(model, [2, 3], dcfg, eos_id=EOS_ID)
        assert first.tokens == second.tokens
        assert first.gate_trace == second.gate_trace


class TestKVCache:
    def test_step_model_keeps_at_most_beam_width_windows_per_step(self):
        model = make_model(3)
        step_model = fresh_step_model(model)
        width = 4
        sizes = []
        real_logits_for = step_model.logits_for

        def logits_for(ctx):
            out = real_logits_for(ctx)
            sizes.append((len(step_model._kv_prev), len(step_model._kv_cur)))
            return out

        step_model.logits_for = logits_for
        # 2 + 20 tokens slide past max_seq_len = 16
        beam_decode(step_model, [3, 5], width, 20, CFG.vocab_size)
        assert max(prev for prev, _ in sizes) == width
        assert max(cur for _, cur in sizes) == width
        # slid windows are never kept, so nothing older than one step is left
        assert sizes[-1] == (0, 0)
