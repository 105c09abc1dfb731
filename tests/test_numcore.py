"""Tensor/tape behaviour and backward rules against finite differences."""

import math

import numpy as np
import pytest

from spa import numcore as nc
from spa.errors import ContractError, DimensionError
from spa.gradcheck import grad_check
from spa.numcore import Tape, Tensor


def rng_for(seed):
    return np.random.default_rng(seed)


class TestTensorBasics:
    def test_storage_is_contiguous_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 2)
        assert t.size == 4

    def test_no_grad_without_flag(self):
        w = Tensor([1.0, 2.0], requires_grad=False)
        with Tape() as tape:
            loss = nc.mul(w, w).sum()
        assert not loss.requires_grad
        assert w.grad is None

    def test_ops_outside_tape_do_not_track(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        out = nc.mul(w, w).sum()
        with pytest.raises(ContractError):
            nc.backward(out)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = Tensor([3.0, -1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = w.sum()
        tape.backward(loss)
        assert np.array_equal(w.grad, np.ones(3))

    def test_elementwise_square(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = nc.mul(w, w).sum()
        tape.backward(loss)
        assert np.allclose(w.grad, [2.0, 4.0, 6.0])

    def test_double_backward_without_reset_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = w.sum()
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)
        tape.reset()
        with tape:
            loss2 = w.sum()
        tape.backward(loss2)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = nc.mul(w, w)
        with pytest.raises(ContractError):
            tape.backward(out)

    def test_shared_input_accumulates(self):
        w = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = nc.add(nc.mul(w, w), w).sum()  # w^2 + w
        tape.backward(loss)
        assert np.allclose(w.grad, [5.0])

    def test_frozen_input_gets_no_grad_but_flow_continues(self):
        frozen = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=False)
        live = Tensor([[1.0], [1.0]], requires_grad=True)
        with Tape() as tape:
            loss = nc.matmul(frozen, live).sum()
        tape.backward(loss)
        assert frozen.grad is None
        assert live.grad is not None


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(nc.matmul(a, eye).data, a.data)

    def test_zero(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        z = Tensor([[0.0], [0.0]])
        assert np.array_equal(nc.matmul(a, z).data, np.zeros((2, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as e:
            nc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert "(2, 3)" in str(e.value)

    def test_gradient_vs_finite_differences(self):
        r = rng_for(7)
        a = Tensor(r.standard_normal((3, 4)))
        b = Tensor(r.standard_normal((4, 2)))
        report = grad_check(lambda x, y: nc.matmul(x, y).sum(), [a, b], h=1e-5)
        assert report.max_rel_err < 1e-6, report.summary()


class TestSoftmax:
    def test_symmetry(self):
        out = nc.softmax(Tensor([0.0, 0.0])).data
        assert np.allclose(out, [0.5, 0.5])

    def test_large_inputs_do_not_overflow(self):
        out = nc.softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] > 0.999999
        assert out[1] < 1e-6

    def test_argmax_and_shift_invariance(self):
        r = rng_for(3)
        z = r.standard_normal(5)
        p = nc.softmax(Tensor(z)).data
        assert np.argmax(p) == np.argmax(z)
        shifted = nc.softmax(Tensor(z + 17.3)).data
        assert np.allclose(p, shifted, atol=1e-12)

    def test_sums_to_one_even_for_huge_magnitudes(self):
        # outputs saturate to exactly 0/1 at double-precision extremes; the
        # open-interval claim is only checkable at moderate magnitudes
        for seed in range(10):
            z = rng_for(seed).uniform(-1e3, 1e3, size=(4, 7))
            p = nc.softmax(Tensor(z)).data
            assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
            assert ((p >= 0) & (p <= 1)).all()
        moderate = nc.softmax(Tensor(rng_for(0).standard_normal((3, 5)))).data
        assert ((moderate > 0) & (moderate < 1)).all()


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        g = Tensor(np.ones(4))
        b = Tensor(np.zeros(4))
        out = nc.layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]), g, b).data
        assert np.allclose(out, 0.0)

    def test_two_point_example_with_eps(self):
        g = Tensor(np.ones(2))
        b = Tensor(np.zeros(2))
        out = nc.layer_norm(Tensor([[1.0, 3.0]]), g, b).data
        assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)

    def test_gradient_vs_finite_differences(self):
        r = rng_for(11)
        x = Tensor(r.standard_normal((3, 5)))
        g = Tensor(r.standard_normal(5))
        b = Tensor(r.standard_normal(5))
        report = grad_check(
            lambda xx, gg, bb: nc.mul(nc.layer_norm(xx, gg, bb), nc.layer_norm(xx, gg, bb)).sum(),
            [x, g, b],
        )
        assert report.max_rel_err < 1e-5, report.summary()


def logsumexp_reference(row):
    """Independent oracle: direct log-sum-exp, no shared code with numcore."""
    m = max(row)
    return m + math.log(sum(math.exp(v - m) for v in row))


class TestCrossEntropy:
    def test_probability_one_gives_zero_loss(self):
        logits = np.full((1, 4), -1e3)
        logits[0, 2] = 1e3
        loss = nc.cross_entropy(Tensor(logits), [2])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_log_vocab(self):
        loss = nc.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 3])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_matches_independent_logsumexp_oracle(self):
        r = rng_for(23)
        logits = r.standard_normal((6, 10)) * 3.0
        targets = r.integers(0, 10, size=6)
        expected = 0.0
        for i in range(6):
            row = list(logits[i])
            expected += logsumexp_reference(row) - row[targets[i]]
        expected /= 6.0
        loss = nc.cross_entropy(Tensor(logits), targets)
        assert abs(loss.item() - expected) < 1e-10

    def test_out_of_range_target_raises_index_error(self):
        with pytest.raises(IndexError):
            nc.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_loss_is_non_negative(self):
        for seed in range(5):
            r = rng_for(seed)
            logits = r.standard_normal((4, 6))
            targets = r.integers(0, 6, size=4)
            assert nc.cross_entropy(Tensor(logits), targets).item() >= 0.0


class TestGradCheckHarness:
    def test_sum_has_near_zero_error(self):
        x = Tensor(rng_for(1).standard_normal(4))
        report = grad_check(lambda t: t.sum(), x)
        assert report.max_rel_err < 1e-9

    def test_cross_entropy_passes(self):
        r = rng_for(5)
        logits = Tensor(r.standard_normal((2, 3)))
        targets = [0, 2]
        report = grad_check(lambda t: nc.cross_entropy(t, targets), logits, h=1e-5)
        assert report.passed(1e-4), report.summary()

    def test_corrupted_backward_rule_is_caught(self, monkeypatch):
        from spa import numcore

        true_grad = numcore._gelu_grad
        monkeypatch.setattr(numcore, "_gelu_grad", lambda x: true_grad(x) * 1.05)
        x = Tensor(rng_for(9).standard_normal(6))
        report = grad_check(lambda t: nc.gelu(t).sum(), x)
        assert not report.passed(1e-4)


DIFFERENTIABLE_OPS = [
    ("add", lambda r: (lambda a, b: nc.add(a, b).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((3, 4)))])),
    ("add_bias", lambda r: (lambda a, b: nc.add(a, b).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal(4))])),
    ("mul", lambda r: (lambda a, b: nc.mul(a, b).sum(), [Tensor(r.standard_normal((2, 5))), Tensor(r.standard_normal((2, 5)))])),
    ("neg", lambda r: (lambda a: nc.mul(nc.neg(a), a).sum(), [Tensor(r.standard_normal(6))])),
    ("smul", lambda r: (lambda a: nc.smul(a, 2.5).mean(), [Tensor(r.standard_normal(5))])),
    ("tsmul", lambda r: (lambda a, s: nc.tsmul(a, s).sum(), [Tensor(r.standard_normal((2, 3))), Tensor(r.standard_normal(()))])),
    ("matmul", lambda r: (lambda a, b: nc.mul(nc.matmul(a, b), nc.matmul(a, b)).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((4, 2)))])),
    ("scale_rows", lambda r: (lambda m, w: nc.scale_rows(m, w).sum(), [Tensor(r.standard_normal((4, 3))), Tensor(r.standard_normal(4))])),
    ("column", lambda r: (lambda x: nc.mul(nc.column(x, 1), nc.column(x, 1)).sum(), [Tensor(r.standard_normal((5, 3)))])),
    ("softmax", lambda r: (lambda x: nc.mul(nc.softmax(x), nc.softmax(x)).sum(), [Tensor(r.standard_normal((3, 5)))])),
    ("layer_norm", lambda r: (lambda x, g, b: nc.mul(nc.layer_norm(x, g, b), nc.layer_norm(x, g, b)).sum(), [Tensor(r.standard_normal((2, 6))), Tensor(r.standard_normal(6)), Tensor(r.standard_normal(6))])),
    ("gelu", lambda r: (lambda x: nc.mul(nc.gelu(x), nc.gelu(x)).sum(), [Tensor(r.standard_normal(7))])),
    ("embedding", lambda r: (lambda w: nc.mul(nc.embedding(w, [0, 2, 2, 1]), nc.embedding(w, [0, 2, 2, 1])).sum(), [Tensor(r.standard_normal((4, 3)))])),
    ("attention", lambda r: (lambda q, k, v: nc.mul(nc.causal_attention(q, k, v, 2), nc.causal_attention(q, k, v, 2)).sum(), [Tensor(r.standard_normal((4, 6))), Tensor(r.standard_normal((4, 6))), Tensor(r.standard_normal((4, 6)))])),
    ("attention_cached", lambda r: (lambda q, k, v: nc.mul(nc.causal_attention(q, k, v, 2), nc.causal_attention(q, k, v, 2)).sum(), [Tensor(r.standard_normal((2, 6))), Tensor(r.standard_normal((5, 6))), Tensor(r.standard_normal((5, 6)))])),
    ("attention_batch", lambda r: (lambda q, k, v: nc.mul(nc.causal_attention(q, k, v, 2, 2), nc.causal_attention(q, k, v, 2, 2)).sum(), [Tensor(r.standard_normal((6, 6))), Tensor(r.standard_normal((6, 6))), Tensor(r.standard_normal((6, 6)))])),
    ("attention_batch_cached", lambda r: (lambda q, k, v: nc.mul(nc.causal_attention(q, k, v, 2, 2), nc.causal_attention(q, k, v, 2, 2)).sum(), [Tensor(r.standard_normal((4, 6))), Tensor(r.standard_normal((10, 6))), Tensor(r.standard_normal((10, 6)))])),
    ("cross_entropy", lambda r: ((lambda ids: lambda x: nc.cross_entropy(x, ids))(r.integers(0, 5, size=3)), [Tensor(r.standard_normal((3, 5)))])),
]


class TestCausalAttention:
    def test_key_prefix_equals_last_rows_of_full_call(self):
        r = rng_for(7)
        q, k, v = (r.standard_normal((9, 8)) for _ in range(3))
        full = nc.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2).data
        for n in range(1, 10):
            for m in range(1, n + 1):
                out = nc.causal_attention(Tensor(q[n - m : n]), Tensor(k[:n]), Tensor(v[:n]), 2)
                np.testing.assert_allclose(out.data, full[n - m : n], rtol=1e-12, atol=1e-15)

    def test_batch_rows_equal_per_sequence_calls(self):
        r = rng_for(10)
        for q_len, k_len in ((4, 4), (2, 5), (1, 7)):
            q = r.standard_normal((3 * q_len, 8))
            k, v = r.standard_normal((3 * k_len, 8)), r.standard_normal((3 * k_len, 8))
            out = nc.causal_attention(Tensor(q), Tensor(k), Tensor(v), 2, 3).data
            for b in range(3):
                qs, ks = slice(b * q_len, (b + 1) * q_len), slice(b * k_len, (b + 1) * k_len)
                one = nc.causal_attention(Tensor(q[qs]), Tensor(k[ks]), Tensor(v[ks]), 2).data
                np.testing.assert_allclose(out[qs], one, rtol=1e-12, atol=1e-15)

    def test_rows_that_do_not_split_into_the_batch_rejected(self):
        r = rng_for(11)
        q, kv = Tensor(r.standard_normal((4, 6))), Tensor(r.standard_normal((6, 6)))
        nc.causal_attention(q, kv, kv, 2, 2)
        for batch in (0, 3, 4):  # 6 keys into 4 sequences, 4 queries into 3
            with pytest.raises(DimensionError):
                nc.causal_attention(q, kv, kv, 2, batch)
        short = Tensor(r.standard_normal((2, 6)))
        with pytest.raises(DimensionError):  # 1 key per sequence for 2 queries
            nc.causal_attention(q, short, short, 2, 2)

    def test_fewer_keys_than_queries_rejected(self):
        r = rng_for(8)
        q, kv = Tensor(r.standard_normal((4, 6))), Tensor(r.standard_normal((3, 6)))
        with pytest.raises(DimensionError):
            nc.causal_attention(q, kv, kv, 2)

    def test_width_mismatch_rejected(self):
        r = rng_for(9)
        q, kv = Tensor(r.standard_normal((2, 6))), Tensor(r.standard_normal((3, 4)))
        with pytest.raises(DimensionError):
            nc.causal_attention(q, kv, kv, 2)
        k, v = Tensor(r.standard_normal((3, 6))), Tensor(r.standard_normal((4, 6)))
        with pytest.raises(DimensionError):
            nc.causal_attention(q, k, v, 2)


@pytest.mark.parametrize("name,builder", DIFFERENTIABLE_OPS, ids=[n for n, _ in DIFFERENTIABLE_OPS])
def test_every_op_passes_grad_check_over_20_seeds(name, builder):
    for seed in range(20):
        r = rng_for(1000 + seed)
        f, tensors = builder(r)
        report = grad_check(f, tensors, h=1e-5)
        assert report.passed(1e-4), f"{name} seed {seed}: {report.summary()}"


def test_forward_is_bitwise_deterministic():
    r = rng_for(42)
    x = r.standard_normal((4, 8))
    g = r.standard_normal(8)
    b = r.standard_normal(8)

    def run():
        h = nc.layer_norm(Tensor(x), Tensor(g), Tensor(b))
        return nc.softmax(nc.gelu(h)).data

    first, second = run(), run()
    assert np.array_equal(first, second)
