"""Forward traces, fusion math, gate behaviour, and the token loss."""

import itertools
import math

import numpy as np
import pytest

import spa.decoding
from spa import numcore as nc
from spa.decoding import (
    CloudStepModel,
    beam_decode,
    greedy_decode,
    local_side_provider,
    local_step_model,
)
from spa.errors import ContractError, DimensionError
from spa.model import (
    GATE_MODES,
    ModelConfig,
    SpaModel,
    base_forward,
    cate_estimate,
    fuse,
    gate_decide,
    gate_logits,
    ladder,
    position_nll,
    side_step_layers,
    side_step_rolled,
    token_loss,
)
from spa.numcore import Tape, Tensor

TINY = ModelConfig(
    n_layers=2, d_model=32, n_heads=4, d_ff=64, vocab_size=40, max_seq_len=32, side_reduction=8
)


@pytest.fixture
def tiny_model():
    return SpaModel.create(TINY, seed=5)


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ContractError):
            ModelConfig(d_model=30, n_heads=4)

    def test_side_reduction_divisibility_enforced(self):
        with pytest.raises(ContractError):
            ModelConfig(d_model=128, side_reduction=7)

    def test_digest_stable_and_order_independent(self):
        a = ModelConfig().digest()
        b = ModelConfig.from_dict(dict(reversed(list(ModelConfig().to_dict().items())))).digest()
        assert a == b


class TestSizeAudit:
    def test_side_params_within_five_percent_at_default_config(self):
        model = SpaModel.create(ModelConfig(), seed=0)
        assert model.side_fraction() <= 0.05
        assert model.side_and_gate_fraction() <= 0.05

    def test_default_config_forward_runs_end_to_end(self):
        model = SpaModel.create(ModelConfig(), seed=0)
        ids = np.arange(10)
        trace = base_forward(model.config, model.base, ids)
        side = ladder(model.config, model.side, trace.hiddens)
        _, logits = fuse(trace.final, side, np.ones(10), model.base["out_proj"])
        assert logits.shape == (10, model.config.vocab_size)
        assert np.isfinite(logits.data).all()


class TestBaseForward:
    def test_single_token_logits_shape_and_finite(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [7])
        assert trace.logits.shape == (1, TINY.vocab_size)
        assert np.isfinite(trace.logits.data).all()

    def test_repeated_prompt_is_bitwise_identical(self, tiny_model):
        ids = [3, 1, 4, 1, 5]
        a = base_forward(TINY, tiny_model.base, ids).logits.data
        b = base_forward(TINY, tiny_model.base, ids).logits.data
        assert np.array_equal(a, b)

    def test_zeroed_output_layer_gives_log_vocab_loss(self, tiny_model):
        tiny_model.base["out_proj"].data[:] = 0.0
        ids = np.array([1, 2, 3, 4])
        trace = base_forward(TINY, tiny_model.base, ids[:-1])
        loss = nc.cross_entropy(trace.logits, ids[1:])
        assert loss.item() == pytest.approx(math.log(TINY.vocab_size), abs=1e-12)

    def test_out_of_vocab_token_raises_index_error(self, tiny_model):
        with pytest.raises(IndexError):
            base_forward(TINY, tiny_model.base, [0, TINY.vocab_size])

    def test_too_long_sequence_rejected(self, tiny_model):
        with pytest.raises(ContractError):
            base_forward(TINY, tiny_model.base, [0] * (TINY.max_seq_len + 1))

    def test_past_continues_the_full_forward(self, tiny_model):
        ids = [3, 1, 4, 1, 5, 9, 2, 6]
        with nc.no_grad():
            full = base_forward(TINY, tiny_model.base, ids)
            head = base_forward(TINY, tiny_model.base, ids[:5])
            tail = base_forward(TINY, tiny_model.base, ids[5:], head.kv)
            with pytest.raises(ContractError):
                base_forward(TINY, tiny_model.base, list(range(TINY.max_seq_len - 4)), head.kv)
        np.testing.assert_allclose(tail.logits.data, full.logits.data[5:], rtol=1e-12, atol=1e-14)
        for (k, v), (full_k, full_v) in zip(tail.kv, full.kv):
            assert k.shape == full_k.shape == (len(ids), TINY.d_model)
            np.testing.assert_allclose(k, full_k, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(v, full_v, rtol=1e-12, atol=1e-14)

    def test_batch_rows_match_single_sequences(self, tiny_model):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, TINY.vocab_size, size=(3, 9))
        with nc.no_grad():
            head = base_forward(TINY, tiny_model.base, ids[:, :6])
            tail = base_forward(TINY, tiny_model.base, ids[:, 6:], head.kv)
            with pytest.raises(DimensionError):
                base_forward(TINY, tiny_model.base, ids[:2, 6:], head.kv)
        assert head.logits.shape == (3 * 6, TINY.vocab_size)
        assert tail.kv[0][0].shape == (3, 9, TINY.d_model)
        for b in range(3):
            single = base_forward(TINY, tiny_model.base, ids[b])
            np.testing.assert_allclose(
                head.logits.data[6 * b : 6 * b + 6], single.logits.data[:6], rtol=1e-12, atol=1e-14
            )
            np.testing.assert_allclose(
                tail.logits.data[3 * b : 3 * b + 3], single.logits.data[6:], rtol=1e-12, atol=1e-14
            )
            for (k, v), (one_k, one_v) in zip(tail.kv, single.kv):
                np.testing.assert_allclose(k[b], one_k, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(v[b], one_v, rtol=1e-12, atol=1e-14)

    def test_past_under_a_tape_rejected(self, tiny_model):
        with nc.no_grad():
            head = base_forward(TINY, tiny_model.base, [3, 1])
        tiny_model.base.thaw()
        with Tape(), pytest.raises(ContractError):
            base_forward(TINY, tiny_model.base, [4], head.kv)

    @pytest.mark.parametrize("shape", [(9,), (3, 9)])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_last_rows_match_the_full_forward(self, tiny_model, shape, n):
        ids = np.random.default_rng(8).integers(0, TINY.vocab_size, size=shape)
        batch, t_len = int(np.prod(shape[:-1])), shape[-1]
        with nc.no_grad():
            full = base_forward(TINY, tiny_model.base, ids)
            cut = base_forward(TINY, tiny_model.base, ids, last=n)

        def tail(rows):  # each sequence's last n rows of a full-length state
            return rows.reshape(batch, t_len, -1)[:, -n:].reshape(batch * n, -1)

        for got, want in ((cut.final, full.final), (cut.logits, full.logits),
                          (cut.hiddens[-1], full.hiddens[-1])):
            assert got.shape == (batch * n, want.shape[-1])
            scale = np.max(np.abs(want.data))
            assert np.max(np.abs(got.data - tail(want.data))) <= 1e-12 * scale
        for got, want in zip(cut.hiddens[:-1], full.hiddens[:-1]):
            assert np.array_equal(got.data, want.data)
        for (k, v), (full_k, full_v) in zip(cut.kv, full.kv):
            assert np.array_equal(k, full_k) and np.array_equal(v, full_v)

    def test_last_under_a_tape_or_out_of_range_rejected(self, tiny_model):
        with nc.no_grad():
            for n in (0, 4):
                with pytest.raises(ContractError):
                    base_forward(TINY, tiny_model.base, [3, 1, 4], last=n)
        tiny_model.base.thaw()
        with Tape(), pytest.raises(ContractError):
            base_forward(TINY, tiny_model.base, [3, 1, 4], last=1)

    def test_records_one_hidden_per_layer(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        assert len(trace.hiddens) == TINY.n_layers
        for h in trace.hiddens:
            assert h.shape == (3, TINY.d_model)


class TestSideForward:
    def test_zero_side_weights_give_zero_output(self, tiny_model):
        for _, t in tiny_model.side.named():
            t.data[:] = 0.0
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        out = ladder(TINY, tiny_model.side, trace.hiddens)
        assert np.array_equal(out.data, np.zeros((3, TINY.d_model)))

    def test_output_shape(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3, 4, 5])
        out = ladder(TINY, tiny_model.side, trace.hiddens)
        assert out.shape == (5, TINY.d_model)

    def test_wrong_layer_count_rejected(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2])
        with pytest.raises(ContractError):
            ladder(TINY, tiny_model.side, trace.hiddens[:1])

    def test_sensitive_to_each_layer_hidden(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        baseline = ladder(TINY, tiny_model.side, trace.hiddens).data.copy()
        for i in range(TINY.n_layers):
            perturbed = [Tensor(h.data.copy()) for h in trace.hiddens]
            perturbed[i].data[1, 3] += 1e-3
            out = ladder(TINY, tiny_model.side, perturbed).data
            assert np.abs(out - baseline).max() > 0.0, f"layer {i} hidden had no effect"

    def test_single_position_path_matches_column_of_full_pass(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        vecs = np.stack([h.data[1] for h in trace.hiddens])[None]
        single = side_step_layers(TINY, tiny_model.side, vecs)
        full = ladder(
            TINY, tiny_model.side, [Tensor(h.data[1:2]) for h in trace.hiddens]
        ).data
        assert single.shape == (1, TINY.d_model)
        assert np.array_equal(single, full)

    def test_block_rows_match_full_pass_rows(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        block = np.stack([h.data for h in trace.hiddens], axis=1)  # (T, L, d)
        rows = side_step_layers(TINY, tiny_model.side, block)
        full = ladder(TINY, tiny_model.side, trace.hiddens).data
        assert rows.shape == (3, TINY.d_model)
        np.testing.assert_allclose(rows, full, rtol=1e-12, atol=1e-14)
        for bad in (block[0], block[:, :1], block[..., :-1]):
            with pytest.raises(DimensionError):
                side_step_layers(TINY, tiny_model.side, bad)


# three layers so both mixing scalars (mix.1, mix.2) take part
LADDER_CFG = ModelConfig(
    n_layers=3, d_model=32, n_heads=4, d_ff=64, vocab_size=40, max_seq_len=32, side_reduction=4
)


def seeded_side_model(seed=9):
    """A model whose side net has non-zero biases and mixing scalars."""
    model = SpaModel.create(LADDER_CFG, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in model.side.named():
        t.data = t.data + rng.standard_normal(t.shape) * 0.3
    return model


def ladder_ref(side, rows):
    """The side ladder in plain numpy, for 1-D inputs."""
    p = {name: t.data for name, t in side.named()}
    rung = None
    for i, row in enumerate(rows):
        z = row @ p[f"down.{i}.w"] + p[f"down.{i}.b"]
        if rung is not None:
            z = z + p[f"mix.{i}"][0] * rung
        a = z @ p[f"mixer.{i}.w1"] + p[f"mixer.{i}.b1"]
        a = 0.5 * a * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (a + 0.044715 * a**3)))
        rung = a @ p[f"mixer.{i}.w2"] + p[f"mixer.{i}.b2"]
    return rung @ p["up.w"] + p["up.b"]


class TestLadderReference:
    def test_rolled_steps_are_independent_of_earlier_calls(self):
        model = seeded_side_model()
        rng = np.random.default_rng(4)
        for step in range(6):
            final = rng.standard_normal(LADDER_CFG.d_model)
            out = side_step_rolled(LADDER_CFG, model.side, final)
            ref_out = ladder_ref(model.side, [final] * LADDER_CFG.n_layers)
            assert out.shape == (LADDER_CFG.d_model,)
            np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-12, err_msg=f"step {step}")


class TestDispatchBudget:
    """A decode step's cost is mostly Python dispatch per `numcore` op, so
    the op count of each step is pinned: a matmul followed by a bias add
    in place of one `nc.linear` fails here."""

    @staticmethod
    def count_ops(monkeypatch, fn):
        """The name of the op behind every `numcore._apply` call fn makes."""
        calls = []
        apply = nc._apply

        def counting(out_data, inputs, backward_fn):
            calls.append(backward_fn.__qualname__.split(".")[0])
            return apply(out_data, inputs, backward_fn)

        with monkeypatch.context() as m:
            m.setattr(nc, "_apply", counting)
            fn()
        return calls

    @pytest.mark.parametrize("config", [TINY, LADDER_CFG], ids=["2_layers", "3_layers"])
    def test_cached_one_token_base_forward(self, monkeypatch, config):
        model = SpaModel.create(config, seed=3)
        with nc.no_grad():
            past = base_forward(config, model.base, [1, 2, 3, 4]).kv
            calls = self.count_ops(monkeypatch, lambda: base_forward(
                config, model.base, [5], past=past, last=1))
        # embeddings, their sum, ln_f and out_proj; per layer ln1, k, v, q,
        # attention, wo, residual, ln2, w1, gelu, w2, residual
        assert len(calls) == 5 + 12 * config.n_layers, calls
        assert calls.count("linear") == 6 * config.n_layers

    @pytest.mark.parametrize("config", [TINY, LADDER_CFG], ids=["2_layers", "3_layers"])
    def test_side_step_layers(self, monkeypatch, config):
        model = SpaModel.create(config, seed=3)
        vecs = np.random.default_rng(0).standard_normal((2, config.n_layers, config.d_model))
        calls = self.count_ops(monkeypatch, lambda: side_step_layers(config, model.side, vecs))
        # rung 0: down, w1, gelu, w2; later rungs add the scaled carry; then up
        assert len(calls) == 4 + 6 * (config.n_layers - 1) + 1, calls
        assert calls.count("linear") == 3 * config.n_layers + 1


class TestStatelessSide:
    """A row's side output is a function of that row's payload alone, so a
    step's logits do not depend on which contexts were evaluated before it
    or beside it."""

    CONTEXTS = [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]]

    @staticmethod
    def gated_model():
        model = seeded_side_model()
        model.gate["w"].data[:] = np.random.default_rng(14).standard_normal(
            (LADDER_CFG.d_model, 2)
        ) * 3.0
        return model

    @pytest.mark.parametrize("policy", ["always_side", "spa"])
    def test_logits_do_not_depend_on_an_earlier_call(self, policy):
        model = self.gated_model()
        used = local_step_model(model, policy, "final")
        used.logits_for([self.CONTEXTS[0]])
        got, got_bits = used.logits_for([self.CONTEXTS[1]])
        want, want_bits = local_step_model(model, policy, "final").logits_for([self.CONTEXTS[1]])
        assert got_bits == want_bits == [1] and used.gate_log == [1, 1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("policy", ["always_side", "spa"])
    def test_beam_rows_do_not_depend_on_pool_order(self, policy):
        model = self.gated_model()
        rows, bits = local_step_model(model, policy, "final").logits_for(self.CONTEXTS)
        rev, rev_bits = local_step_model(model, policy, "final").logits_for(self.CONTEXTS[::-1])
        assert bits == rev_bits[::-1] and sum(bits) >= 2
        np.testing.assert_allclose(rows, rev[::-1], rtol=1e-12, atol=0)

    def test_provider_picks_the_ladder_entry_from_the_payload_rows(self):
        model = seeded_side_model()
        provide = local_side_provider(LADDER_CFG, model.side)
        block = np.random.default_rng(3).standard_normal((4, LADDER_CFG.n_layers, LADDER_CFG.d_model))
        layers = provide(0, block)
        assert layers.shape == (4, LADDER_CFG.d_model)
        assert np.array_equal(layers, side_step_layers(LADDER_CFG, model.side, block))
        rolled = provide(1, block[:, :1])
        assert rolled.shape == (4, LADDER_CFG.d_model)
        assert np.array_equal(rolled, side_step_rolled(LADDER_CFG, model.side, block[:, 0]))
        for bad in (block[:, :2], block[0], block[:, :, :-1]):
            with pytest.raises(DimensionError):
                provide(2, bad)


class FullRecompute:
    """Reference step model: every context of a step through a fresh
    CloudStepModel of its own, one at a time, so every base forward covers
    one whole window and every side call one row. The gated rows' payloads
    of a step are gathered into one (step, block) entry of `calls`, which is
    the sequence a batched step sends."""

    def __init__(self, model, policy, wire_mode):
        self.model, self.policy, self.wire_mode = model, policy, wire_mode
        self.calls: list = []
        self.steps = itertools.count()
        self.gate_log: list[int] = []

    def logits_for(self, contexts):
        m = self.model
        provide = local_side_provider(m.config, m.side)
        payloads = []

        def one_row(step, payload):
            payloads.append(payload)
            return provide(step, payload)

        rows, bits = [], []
        for ctx in contexts:
            step = CloudStepModel(
                m.config, m.base, m.gate, self.policy, self.wire_mode, one_row, itertools.count()
            )
            logits, used = step.logits_for([ctx])
            rows.append(logits[0])
            bits.extend(used)
        if payloads:
            self.calls.append((next(self.steps), np.concatenate(payloads)))
        self.gate_log.extend(bits)
        return np.stack(rows), bits


def recording_provider(model):
    """The local side provider, recording every (step, payload) it is given."""
    provide = local_side_provider(model.config, model.side)

    def record(step, payload):
        record.calls.append((step, np.array(payload)))
        return provide(step, payload)

    record.calls = []
    return record


class Lockstep:
    """Runs the batched step model and the per-row full recompute on every
    call and checks that every row's logits agree to 1e-12 relative and the
    gate bits exactly."""

    def __init__(self, batched, reference):
        self.batched, self.reference = batched, reference
        self.batch_sizes: list[int] = []

    def logits_for(self, contexts):
        got, bits = self.batched.logits_for(contexts)
        want, want_bits = self.reference.logits_for(contexts)
        self.batch_sizes.append(len(contexts))
        assert got.shape == want.shape == (len(contexts), self.reference.model.config.vocab_size)
        assert bits == want_bits, f"gate bits differ at context length {len(contexts[0])}"
        for row, (g, w) in enumerate(zip(got, want)):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (len(contexts[0]), row)
        return got, bits


class TestIncrementalDecode:
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("wire_mode", ["final", "all_layers"])
    @pytest.mark.parametrize("policy", ["spa", "always_side", "base_only"])
    def test_cached_steps_match_full_recompute(self, policy, wire_mode, width, monkeypatch):
        model = seeded_side_model()
        model.gate["w"].data[:] = np.random.default_rng(3).standard_normal(model.gate["w"].shape)
        forwards = []
        real_forward = spa.decoding.base_forward

        def counting_forward(config, base, ids, past=None, **kwargs):
            forwards.append((np.shape(ids)[-1], past is not None))
            return real_forward(config, base, ids, past, **kwargs)

        monkeypatch.setattr(spa.decoding, "base_forward", counting_forward)
        rng = np.random.default_rng(11)
        window = LADDER_CFG.max_seq_len
        batch_sizes = set()
        # the long prompt slides past max_seq_len after 4 new tokens
        for prompt_len in (5, window - 3):
            prompt = [int(t) for t in rng.integers(0, LADDER_CFG.vocab_size, prompt_len)]
            # the second-ranked first token ends its hypothesis, so later
            # beam steps run fewer rows than the width
            first = FullRecompute(model, policy, wire_mode).logits_for([prompt])[0][0]
            eos_id = int(np.argsort(-first, kind="stable")[1])

            def decode(step_model):
                if width == 1:
                    return greedy_decode(step_model, prompt, 8, eos_id)
                return beam_decode(step_model, prompt, width, 8, LADDER_CFG.vocab_size, eos_id)

            provider = recording_provider(model)
            batched = CloudStepModel(
                model.config, model.base, model.gate, policy, wire_mode, provider, itertools.count()
            )
            lockstep = Lockstep(batched, FullRecompute(model, policy, wire_mode))
            got = decode(lockstep)
            reference = FullRecompute(model, policy, wire_mode)
            want = decode(reference)
            assert got.tokens == want.tokens
            assert got.gate_trace == want.gate_trace
            assert batched.gate_log == reference.gate_log
            calls, want_calls = provider.calls, reference.calls
            assert [step for step, _ in calls] == [step for step, _ in want_calls]
            for (_, payload), (_, want_payload) in zip(calls, want_calls):
                assert payload.shape == want_payload.shape
                scale = np.max(np.abs(want_payload))
                assert np.max(np.abs(payload - want_payload)) <= 1e-12 * scale
            batch_sizes.update(lockstep.batch_sizes)
        assert (1, True) in forwards, "no step was served from the cache"
        assert (window, False) in forwards, "no slid window was recomputed"
        if width > 1:
            assert 1 < min(batch_sizes - {1}) < width <= max(batch_sizes), batch_sizes

    @pytest.mark.parametrize("width", [1, 3])
    def test_every_forward_computes_only_the_last_row(self, width, monkeypatch):
        forwards = []
        real_forward = spa.decoding.base_forward

        def spy(config, base, ids, past=None, **kwargs):
            forwards.append((np.shape(ids)[-1], past is not None, kwargs))
            return real_forward(config, base, ids, past, **kwargs)

        monkeypatch.setattr(spa.decoding, "base_forward", spy)
        window = LADDER_CFG.max_seq_len
        rng = np.random.default_rng(4)
        prompt = [int(t) for t in rng.integers(0, LADDER_CFG.vocab_size, window - 3)]
        step_model = local_step_model(seeded_side_model(), "spa", "all_layers")
        if width == 1:
            greedy_decode(step_model, prompt, 8)
        else:
            beam_decode(step_model, prompt, width, 8, LADDER_CFG.vocab_size)
        assert forwards[0][:2] == (window - 3, False), "the first step is not a prefill"
        assert (window, False) in [f[:2] for f in forwards[1:]], "no slid window was recomputed"
        assert all(kwargs == {"last": 1} for *_, kwargs in forwards)


class TestGate:
    def test_zero_params_give_half_half(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        _, probs = gate_logits(tiny_model.gate, trace.final)
        assert np.allclose(probs.data, 0.5)

    def test_large_bias_forces_side_everywhere(self, tiny_model):
        tiny_model.gate["b"].data[:] = [0.0, 10.0]
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        logits, _ = gate_logits(tiny_model.gate, trace.final)
        assert all(gate_decide(row) == 1 for row in logits.data)

    def test_tie_breaks_to_base_path(self):
        assert gate_decide(np.array([0.0, 0.0])) == 0

    def test_argmax_invariant_under_positive_scaling_and_shift(self, tiny_model):
        rng = np.random.default_rng(2)
        tiny_model.gate["w"].data[:] = rng.standard_normal((TINY.d_model, 2)) * 0.3
        trace = base_forward(TINY, tiny_model.base, [5, 6, 7, 8])
        logits, _ = gate_logits(tiny_model.gate, trace.final)
        base_decisions = [gate_decide(r) for r in logits.data]
        for _ in range(25):
            c = float(rng.uniform(0.01, 50.0))
            shift = float(rng.uniform(-5.0, 5.0))
            scaled = [gate_decide(r * c + shift) for r in logits.data]
            assert scaled == base_decisions


class TestFuse:
    def setup_traces(self, model):
        trace = base_forward(TINY, model.base, [1, 2, 3])
        side = ladder(TINY, model.side, trace.hiddens)
        return trace, side

    def test_gate_off_reproduces_base_bitwise(self, tiny_model):
        trace, side = self.setup_traces(tiny_model)
        fused, logits = fuse(trace.final, side, np.zeros(3), tiny_model.base["out_proj"])
        assert np.array_equal(fused.data, trace.final.data)
        assert np.array_equal(logits.data, trace.logits.data)

    def test_gate_on_adds_side_output(self, tiny_model):
        trace, side = self.setup_traces(tiny_model)
        fused, _ = fuse(trace.final, side, np.ones(3), tiny_model.base["out_proj"])
        assert np.allclose(fused.data, trace.final.data + side.data)

    def test_half_gate_with_side_equal_base_scales(self, tiny_model):
        trace, _ = self.setup_traces(tiny_model)
        doppel = Tensor(trace.final.data.copy())
        fused, _ = fuse(trace.final, doppel, np.full(3, 0.5), tiny_model.base["out_proj"])
        assert np.allclose(fused.data, 1.5 * trace.final.data)

    def test_shape_mismatch_raises(self, tiny_model):
        trace, side = self.setup_traces(tiny_model)
        with pytest.raises(DimensionError):
            fuse(trace.final, side, np.zeros(5), tiny_model.base["out_proj"])

    def test_all_zero_hard_trace_reuses_the_base_logits(self, tiny_model, monkeypatch):
        # the fresh gate is all zeros, so every hard decision ties to 0
        ids = np.arange(1, 12) % TINY.vocab_size
        out_proj = tiny_model.base["out_proj"]
        projections = 0
        matmul = nc.matmul

        def counting(a, b):
            nonlocal projections
            projections += b is out_proj
            return matmul(a, b)

        monkeypatch.setattr(nc, "matmul", counting)
        nll, used = position_nll(tiny_model, ids, "hard")
        monkeypatch.undo()
        assert not used.any()
        assert projections == 1, "only base_forward should project through out_proj"
        logits = base_forward(TINY, tiny_model.base, ids[:-1]).logits.data
        want = -nc.log_softmax_rows(logits)[np.arange(len(ids) - 1), ids[1:]]
        assert nll.tobytes() == want.tobytes()
        assert nll.tobytes() == position_nll(tiny_model, ids, "off")[0].tobytes()


def fused_loss_oracle(model, ids):
    """Recompute the fused teacher-forced loss from scratch with plain numpy."""
    ids = np.asarray(ids)
    inputs, targets = ids[:-1], ids[1:]
    trace = base_forward(TINY, model.base, inputs)
    side = ladder(TINY, model.side, trace.hiddens).data
    glog, _ = gate_logits(model.gate, trace.final)
    e = np.exp(glog.data - glog.data.max(axis=1, keepdims=True))
    p1 = (e / e.sum(axis=1, keepdims=True))[:, 1]
    fused = trace.final.data + p1[:, None] * side
    logits = fused @ model.base["out_proj"].data
    total = 0.0
    for i, t in enumerate(targets):
        row = logits[i]
        m = row.max()
        total += math.log(np.exp(row - m).sum()) + m - row[t]
    return total / len(targets)


class TestTokenLoss:
    def test_too_short_sequence_rejected(self, tiny_model):
        with pytest.raises(ContractError):
            token_loss(tiny_model, [3])

    def test_gate_off_with_zero_side_equals_base_cross_entropy(self, tiny_model):
        for _, t in tiny_model.side.named():
            t.data[:] = 0.0
        ids = np.array([1, 2, 3, 4, 5])
        loss_off, trace = token_loss(tiny_model, ids, gate_mode="off")
        base_ce = nc.cross_entropy(trace.base.logits, ids[1:])
        assert abs(loss_off.item() - base_ce.item()) < 1e-12

    def test_loss_is_non_negative(self, tiny_model):
        for seed in range(5):
            ids = np.random.default_rng(seed).integers(0, TINY.vocab_size, size=6)
            loss, _ = token_loss(tiny_model, ids)
            assert loss.item() >= 0.0

    def test_matches_independent_oracle(self, tiny_model):
        rng = np.random.default_rng(3)
        tiny_model.gate["w"].data[:] = rng.standard_normal((TINY.d_model, 2)) * 0.2
        ids = rng.integers(0, TINY.vocab_size, size=9)
        loss, _ = token_loss(tiny_model, ids, gate_mode="soft")
        assert abs(loss.item() - fused_loss_oracle(tiny_model, ids)) < 1e-10

    def test_eq_reduction_gate_off_bitwise(self, tiny_model):
        # with the hard gate forced off, fused logits are the base logits
        ids = np.array([2, 9, 4, 7])
        with nc.no_grad():
            _, trace_off = token_loss(tiny_model, ids, gate_mode="off")
        assert np.array_equal(trace_off.fused_logits.data, trace_off.base.logits.data)


class TestPositionNll:
    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_scores_the_loss_positions_without_a_cross_entropy(
        self, tiny_model, gate_mode, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("position_nll computed a cross-entropy")

        ids = np.array([3, 8, 2, 6, 1, 9])
        monkeypatch.setattr(nc, "cross_entropy", forbidden)
        nlls, used = position_nll(tiny_model, ids, gate_mode)
        monkeypatch.undo()
        loss, trace = token_loss(tiny_model, ids, gate_mode=gate_mode)
        assert abs(nlls.mean() - loss.item()) <= 1e-12 * loss.item()
        assert np.array_equal(used, trace.gate_trace)


class TestCate:
    def test_zero_side_gives_zero_effect(self, tiny_model):
        for _, t in tiny_model.side.named():
            t.data[:] = 0.0
        delta = cate_estimate(tiny_model, [1, 2, 3, 4, 5])
        assert np.array_equal(delta, np.zeros(4))

    def test_deterministic(self, tiny_model):
        ids = [3, 8, 2, 6, 1]
        assert np.array_equal(cate_estimate(tiny_model, ids), cate_estimate(tiny_model, ids))

    def test_trace_without_side_output_rejected(self, tiny_model):
        _, trace = token_loss(tiny_model, [3, 8, 2], gate_mode="off")
        with pytest.raises(ContractError):
            trace.cate()


class TestGradientFlow:
    def test_side_and_gate_receive_gradient_in_95_percent_of_trials(self):
        trials, full_flow = 20, 0
        for seed in range(trials):
            model = SpaModel.create(TINY, seed=100 + seed)
            model.base.freeze()
            rng = np.random.default_rng(seed)
            ids = rng.integers(0, TINY.vocab_size, size=8)
            with Tape() as tape:
                loss, _ = token_loss(model, ids, gate_mode="soft")
            tape.backward(loss)
            tensors = model.side.tensors() + model.gate.tensors()
            if all(t.grad is not None and np.any(t.grad != 0) for t in tensors):
                full_flow += 1
        assert full_flow >= 0.95 * trials

    def test_frozen_base_gets_no_gradients(self, tiny_model):
        tiny_model.base.freeze()
        with Tape() as tape:
            loss, _ = token_loss(tiny_model, [1, 2, 3, 4], gate_mode="soft")
        tape.backward(loss)
        assert all(t.grad is None for t in tiny_model.base.tensors())
        assert tiny_model.base.frozen


class TestFullModelGradCheck:
    def test_side_and_gate_gradients_vs_finite_differences(self):
        from spa.gradcheck import grad_check

        model = SpaModel.create(TINY, seed=1)
        model.base.freeze()
        ids = np.random.default_rng(0).integers(0, TINY.vocab_size, size=5)

        params = model.side.tensors() + model.gate.tensors()

        def f(*_):
            loss, _ = token_loss(model, ids, gate_mode="soft")
            return loss

        report = grad_check(f, params)
        assert report.passed(1e-4), report.summary()
