"""Forward traces, fusion math, gate behaviour, and the token loss."""

import math

import numpy as np
import pytest

import spa.decoding
from spa import numcore as nc
from spa.decoding import (
    CloudStepModel,
    DeviceOnlyStepModel,
    StepCounter,
    beam_decode,
    greedy_decode,
    local_side_provider,
)
from spa.errors import ContractError, DimensionError
from spa.model import (
    ModelConfig,
    SpaModel,
    base_forward,
    cate_estimate,
    fuse,
    gate_decide,
    gate_logits,
    side_forward,
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
        side = side_forward(model.config, model.side, trace.hiddens)
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

    def test_past_under_a_tape_rejected(self, tiny_model):
        with nc.no_grad():
            head = base_forward(TINY, tiny_model.base, [3, 1])
        tiny_model.base.thaw()
        with Tape(), pytest.raises(ContractError):
            base_forward(TINY, tiny_model.base, [4], head.kv)

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
        out = side_forward(TINY, tiny_model.side, trace.hiddens)
        assert np.array_equal(out.data, np.zeros((3, TINY.d_model)))

    def test_output_shape(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3, 4, 5])
        out = side_forward(TINY, tiny_model.side, trace.hiddens)
        assert out.shape == (5, TINY.d_model)

    def test_wrong_layer_count_rejected(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2])
        with pytest.raises(ContractError):
            side_forward(TINY, tiny_model.side, trace.hiddens[:1])

    def test_sensitive_to_each_layer_hidden(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        baseline = side_forward(TINY, tiny_model.side, trace.hiddens).data.copy()
        for i in range(TINY.n_layers):
            perturbed = [Tensor(h.data.copy()) for h in trace.hiddens]
            perturbed[i].data[1, 3] += 1e-3
            out = side_forward(TINY, tiny_model.side, perturbed).data
            assert np.abs(out - baseline).max() > 0.0, f"layer {i} hidden had no effect"

    def test_single_position_path_matches_column_of_full_pass(self, tiny_model):
        trace = base_forward(TINY, tiny_model.base, [1, 2, 3])
        vecs = np.stack([h.data[1] for h in trace.hiddens])
        single = side_step_layers(TINY, tiny_model.side, vecs)
        full = side_forward(
            TINY, tiny_model.side, [Tensor(h.data[1:2]) for h in trace.hiddens]
        ).data[0]
        assert np.array_equal(single, full)


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


def ladder_ref(side, rows, rung=None):
    """The side ladder in plain numpy: (side_out, last_rung) for 1-D inputs."""
    p = {name: t.data for name, t in side.named()}
    for i, row in enumerate(rows):
        z = row @ p[f"down.{i}.w"] + p[f"down.{i}.b"]
        if rung is not None:
            z = z + (rung if i == 0 else p[f"mix.{i}"][0] * rung)
        a = z @ p[f"mixer.{i}.w1"] + p[f"mixer.{i}.b1"]
        a = 0.5 * a * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (a + 0.044715 * a**3)))
        rung = a @ p[f"mixer.{i}.w2"] + p[f"mixer.{i}.b2"]
    return rung @ p["up.w"] + p["up.b"], rung


class TestLadderReference:
    def test_rolled_steps_match_plain_numpy_recurrence(self):
        model = seeded_side_model()
        rng = np.random.default_rng(4)
        summary = ref_summary = None
        for step in range(6):
            final = rng.standard_normal(LADDER_CFG.d_model)
            out, summary = side_step_rolled(LADDER_CFG, model.side, final, summary)
            ref_out, ref_summary = ladder_ref(
                model.side, [final] * LADDER_CFG.n_layers, ref_summary
            )
            assert summary.shape == (LADDER_CFG.side_width,)
            np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-12, err_msg=f"step {step}")
            np.testing.assert_allclose(summary, ref_summary, rtol=1e-10, atol=1e-12)

    def test_device_only_logits_match_ladder_over_embedding(self):
        model = seeded_side_model()
        base = {name: model.base[name].data for name in ("tok_emb", "pos_emb", "out_proj")}
        step_model = DeviceOnlyStepModel(LADDER_CFG, model.side, base)
        ctx = [3, 17, 5, 29, 11]
        for n in range(1, len(ctx) + 1):
            logits, used = step_model.logits_for(ctx[:n])
            e = base["tok_emb"][ctx[n - 1]] + base["pos_emb"][n - 1]
            side_out, _ = ladder_ref(model.side, [e] * LADDER_CFG.n_layers)
            assert used == 1
            np.testing.assert_allclose(
                logits, (e + side_out) @ base["out_proj"], rtol=1e-10, atol=1e-12
            )


class FullRecompute:
    """Reference step model: a fresh CloudStepModel per call, so every base
    forward covers the whole window."""

    def __init__(self, model, policy, wire_mode):
        self.model, self.policy, self.wire_mode = model, policy, wire_mode
        self.provider = local_side_provider(model.config, model.side, wire_mode)
        self.steps = StepCounter()
        self.gate_log: list[int] = []

    def logits_for(self, ctx):
        m = self.model
        step = CloudStepModel(
            m.config, m.base, m.gate, self.policy, self.wire_mode, self.provider, self.steps
        )
        logits, used = step.logits_for(ctx)
        self.gate_log.append(used)
        return logits, used


class Lockstep:
    """Runs the cached step model and the full recompute on every call and
    checks that the logits agree to 1e-12 relative and the gate bits exactly."""

    def __init__(self, cached, reference):
        self.cached, self.reference = cached, reference

    def logits_for(self, ctx):
        got, used = self.cached.logits_for(ctx)
        want, want_used = self.reference.logits_for(ctx)
        assert used == want_used, f"gate bit differs at context length {len(ctx)}"
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), len(ctx)
        return got, used


class TestIncrementalDecode:
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("wire_mode", ["final", "all_layers"])
    @pytest.mark.parametrize("policy", ["spa", "always_side", "lst", "base_only"])
    def test_cached_steps_match_full_recompute(self, policy, wire_mode, width, monkeypatch):
        model = seeded_side_model()
        model.gate["w"].data[:] = np.random.default_rng(3).standard_normal(model.gate["w"].shape)
        forwards = []
        real_forward = spa.decoding.base_forward

        def counting_forward(config, base, ids, past=None):
            forwards.append((len(ids), past is not None))
            return real_forward(config, base, ids, past)

        monkeypatch.setattr(spa.decoding, "base_forward", counting_forward)
        rng = np.random.default_rng(11)
        window = LADDER_CFG.max_seq_len
        # the long prompt slides past max_seq_len after 4 new tokens
        for prompt_len in (5, window - 3):
            prompt = [int(t) for t in rng.integers(0, LADDER_CFG.vocab_size, prompt_len)]

            def decode(step_model):
                if width == 1:
                    return greedy_decode(step_model, prompt, 8)
                return beam_decode(step_model, prompt, width, 8, LADDER_CFG.vocab_size)

            cached = spa.decoding.local_step_model(model, policy, wire_mode)
            got = decode(Lockstep(cached, FullRecompute(model, policy, wire_mode)))
            reference = FullRecompute(model, policy, wire_mode)
            want = decode(reference)
            assert got.tokens == want.tokens
            assert got.gate_trace == want.gate_trace
            assert cached.gate_log == reference.gate_log
        assert (1, True) in forwards, "no step was served from the cache"
        assert (window, False) in forwards, "no slid window was recomputed"


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
        side = side_forward(TINY, model.side, trace.hiddens)
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


def fused_loss_oracle(model, ids):
    """Recompute the fused teacher-forced loss from scratch with plain numpy."""
    ids = np.asarray(ids)
    inputs, targets = ids[:-1], ids[1:]
    trace = base_forward(TINY, model.base, inputs)
    side = side_forward(TINY, model.side, trace.hiddens).data
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


class TestCate:
    def test_zero_side_gives_zero_effect(self, tiny_model):
        for _, t in tiny_model.side.named():
            t.data[:] = 0.0
        delta = cate_estimate(tiny_model, [1, 2, 3, 4, 5])
        assert np.array_equal(delta, np.zeros(4))

    def test_deterministic(self, tiny_model):
        ids = [3, 8, 2, 6, 1]
        assert np.array_equal(cate_estimate(tiny_model, ids), cate_estimate(tiny_model, ids))


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

        report = grad_check(f, params, h=1e-5)
        assert report.passed(1e-4), report.summary()
