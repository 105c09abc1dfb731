"""Beam search: reduction to greedy, exhaustive-search agreement, scoring,
the top-k expansion against a full-vocabulary reference, one batched step."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

import spa.decoding
from spa import numcore as nc
from spa.decoding import (
    CloudStepModel,
    DecodeConfig,
    beam_decode,
    decode_monolithic,
    greedy_decode,
    local_side_provider,
)
from spa.errors import ContractError
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


def fresh_step_model(model, wire_mode="all_layers", policy="spa", pending=False):
    """A step model with the local side provider; `pending` makes every reply
    a callable, as the cloud's wire provider's is, so the decoder drafts."""
    provide = local_side_provider(CFG, model.side)
    provider = (lambda step, payload: lambda: provide(step, payload)) if pending else provide
    return CloudStepModel(
        CFG, model.base, model.gate, policy, wire_mode, provider, itertools.count()
    )


def sequence_score(model, prompt, tokens):
    """Independent length-normalized score: fresh forwards, plain python."""
    ctx = list(prompt)
    total = 0.0
    for tok in tokens:
        logits, _ = fresh_step_model(model).logits_for([ctx])
        lp = nc.log_softmax_rows(logits)[0]
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


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple
    logprob: float
    trace: tuple
    finished: bool

    @property
    def score(self):
        return self.logprob / max(1, len(self.tokens))


def reference_beam(step_model, prompt, width, max_new_tokens, vocab_size, eos_id=None):
    """Beam search that builds every child over the full vocabulary and sorts
    them all; the step model is called exactly as `beam_decode` calls it.
    Returns (tokens, trace, counts) where counts has the steps whose cut fell
    between tied children and those that carried a finished hypothesis."""
    pool = [Hypothesis((), 0.0, (), False)]
    counts = {"tied_cuts": 0, "finished_carried": 0}
    for _ in range(max_new_tokens):
        live = [h for h in pool if not h.finished]
        if not live:
            break
        candidates = [h for h in pool if h.finished]
        counts["finished_carried"] += bool(candidates)
        logits, bits = step_model.logits_for([tuple(prompt) + h.tokens for h in live])
        for hyp, logprobs, used in zip(live, nc.log_softmax_rows(logits), bits):
            for tok in range(vocab_size):
                candidates.append(
                    Hypothesis(
                        hyp.tokens + (tok,),
                        hyp.logprob + float(logprobs[tok]),
                        hyp.trace + (used,),
                        eos_id is not None and tok == eos_id,
                    )
                )
        candidates.sort(key=lambda h: (-h.score, h.tokens))
        if len(candidates) > width and candidates[width - 1].score == candidates[width].score:
            counts["tied_cuts"] += 1
        pool = candidates[:width]
    best = min(pool, key=lambda h: (-h.score, h.tokens))
    return list(best.tokens), list(best.trace), counts


def tie_heavy_model(seed):
    """Output columns duplicated in pairs: tokens 2j and 2j+1 always get the
    same logit, so every child has a twin of equal score."""
    model = make_model(seed)
    out = model.base["out_proj"].data
    out[:, 1::2] = out[:, 0:-1:2]
    return model


class TestReductions:
    def test_width_one_equals_greedy(self):
        for seed in range(12):
            model = make_model(seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 3)]
            greedy = greedy_decode(fresh_step_model(model), prompt, 5, eos_id=EOS_ID)
            beam = beam_decode(fresh_step_model(model), prompt, 1, 5, eos_id=EOS_ID)
            assert beam.tokens == greedy.tokens, f"seed {seed}"
            assert beam.gate_trace == greedy.gate_trace

    def test_decode_config_rejects_zero_width(self):
        with pytest.raises(Exception):
            DecodeConfig(beam_width=0)

    def test_decode_config_rejects_negative_max_new_tokens(self):
        with pytest.raises(ContractError, match="max_new_tokens"):
            DecodeConfig(max_new_tokens=-5)
        assert DecodeConfig(max_new_tokens=0).max_new_tokens == 0


class TestExhaustiveOracle:
    def test_full_width_two_step_matches_enumeration(self):
        for seed in (1, 4, 9, 16, 25):
            model = make_model(seed)
            prompt = [3, 5]
            expected_tokens, expected_score = exhaustive_two_step(model, prompt)
            beam = beam_decode(
                fresh_step_model(model), prompt, CFG.vocab_size, 2, eos_id=EOS_ID
            )
            assert beam.tokens == expected_tokens, f"seed {seed}"
            got = sequence_score(model, prompt, beam.tokens)
            assert got == pytest.approx(expected_score, abs=1e-12)


class TestPruningOracle:
    """Building only the children that can survive changes nothing, whether
    or not the step drafts the next one from its base logits."""

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("width", [1, 2, 3, CFG.vocab_size])
    def test_matches_full_vocabulary_reference(self, width, pending):
        finished_carried = 0
        for seed in range(6):
            model = make_model(200 + seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 3)]
            for wire_mode in ("final", "all_layers"):
                got_model = fresh_step_model(model, wire_mode, pending=pending)
                want_model = fresh_step_model(model, wire_mode)
                got = beam_decode(got_model, prompt, width, 6, eos_id=EOS_ID)
                tokens, trace, counts = reference_beam(
                    want_model, prompt, width, 6, CFG.vocab_size, eos_id=EOS_ID
                )
                assert (got.tokens, got.gate_trace) == (tokens, trace), f"seed {seed} {wire_mode}"
                assert got_model.gate_log == want_model.gate_log
                assert (got_model.prefetches > 0) == pending
                finished_carried += counts["finished_carried"]
        if width > 1:
            assert finished_carried, "no hypothesis finished on EOS before the horizon"

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_tied_children_break_toward_the_smaller_token(self, width, pending):
        tied = 0
        for seed in range(4):
            model = tie_heavy_model(300 + seed)
            prompt = [2, 7, 4]
            got_model = fresh_step_model(model, pending=pending)
            want_model = fresh_step_model(model)
            got = beam_decode(got_model, prompt, width, 5)
            tokens, trace, counts = reference_beam(want_model, prompt, width, 5, CFG.vocab_size)
            assert (got.tokens, got.gate_trace) == (tokens, trace), f"seed {seed}"
            assert got_model.gate_log == want_model.gate_log
            tied += counts["tied_cuts"]
        if width % 2:
            assert tied, "the beam cut never fell between tied children"

    @pytest.mark.parametrize("width", [3, 5, CFG.vocab_size, 2 * CFG.vocab_size])
    def test_tied_children_beside_finished_hypotheses(self, width):
        """Tied twins, EOS mid-search (finished hypotheses in the pool) and
        widths up to twice the vocabulary, where the first step has fewer
        children than the beam holds."""
        counts = {"tied_cuts": 0, "finished_carried": 0}
        for seed in range(4):
            model = tie_heavy_model(400 + seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 2)]
            got_model = fresh_step_model(model)
            want_model = fresh_step_model(model)
            got = beam_decode(got_model, prompt, width, 3, eos_id=EOS_ID)
            tokens, trace, seen = reference_beam(
                want_model, prompt, width, 3, CFG.vocab_size, eos_id=EOS_ID
            )
            assert (got.tokens, got.gate_trace) == (tokens, trace), f"seed {seed}"
            assert got_model.gate_log == want_model.gate_log
            for key in counts:
                counts[key] += seen[key]
        assert counts["finished_carried"], "no hypothesis finished on EOS before the horizon"
        if width < CFG.vocab_size:
            assert counts["tied_cuts"], "the beam cut never fell between tied children"


class TestScoreProperty:
    def test_beam_never_scores_below_greedy(self):
        for seed in range(15):
            model = make_model(100 + seed)
            prompt = [int(t) for t in np.random.default_rng(seed).integers(1, CFG.vocab_size, 2)]
            greedy = greedy_decode(fresh_step_model(model), prompt, 4, eos_id=EOS_ID)
            beam = beam_decode(fresh_step_model(model), prompt, 3, 4, eos_id=EOS_ID)
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

        def logits_for(contexts, draft=None):
            out = real_logits_for(contexts, draft)
            kept_rows = len(step_model._kv[0][0]) if step_model._kv else 0
            sizes.append((len(step_model._kv_rows), kept_rows))
            return out

        step_model.logits_for = logits_for
        # 2 + 20 tokens slide past max_seq_len = 16
        beam_decode(step_model, [3, 5], width, 20)
        assert max(windows for windows, _ in sizes) == width
        assert max(rows for _, rows in sizes) == width
        # slid windows are never kept, so nothing is left after the last step
        assert sizes[-1] == (0, 0)
        assert step_model._prefetched is None

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 4)])
    def test_a_step_awaiting_its_reply_keeps_up_to_beam_width_extra_windows(self, strategy,
                                                                            width):
        model = make_model(3)
        step_model = fresh_step_model(model, policy="always_side", pending=True)
        sizes = []
        real_logits_for = step_model.logits_for

        def logits_for(contexts, draft=None):
            out = real_logits_for(contexts, draft)
            prefetched = step_model._prefetched
            sizes.append((len(step_model._kv_rows), 0 if prefetched is None else len(prefetched[0])))
            return out

        step_model.logits_for = logits_for
        # 2 + 20 tokens slide past max_seq_len = 16
        if strategy == "greedy":
            greedy_decode(step_model, [3, 5], 20)
        else:
            beam_decode(step_model, [3, 5], width, 20)
        # this step's windows, and the prefetched next ones beside them
        assert max(kept for kept, _ in sizes) == width
        assert max(ahead for _, ahead in sizes) == width
        assert all(ahead for _, ahead in sizes[:-1])  # every step but the last drafts
        assert sizes[-1] == (0, 0)

    @pytest.mark.parametrize("policy", ["spa", "always_side", "base_only"])
    def test_one_base_forward_per_beam_step(self, policy, monkeypatch):
        calls = []
        real_forward = spa.decoding.base_forward

        def counting_forward(config, base, ids, past=None, **kwargs):
            calls.append(np.shape(ids))
            return real_forward(config, base, ids, past, **kwargs)

        monkeypatch.setattr(spa.decoding, "base_forward", counting_forward)
        model = make_model(8)
        step_model = fresh_step_model(model, policy=policy)
        steps = []
        real_logits_for = step_model.logits_for

        def logits_for(contexts, draft=None):
            steps.append(len(contexts))
            return real_logits_for(contexts, draft)

        step_model.logits_for = logits_for
        beam_decode(step_model, [4, 1], 3, 18, eos_id=EOS_ID)
        assert len(calls) == len(steps)
        assert [shape[0] for shape in calls] == steps
