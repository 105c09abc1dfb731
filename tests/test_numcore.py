"""Tensor/tape behaviour and backward rules against finite differences."""

import gc
import math
import threading
import weakref

import numpy as np
import pytest

from spa import numcore as nc
from spa.errors import ContractError, DimensionError
from spa.gradcheck import grad_check
from spa.numcore import Tape, Tensor


def rng_for(seed):
    return np.random.default_rng(seed)


def add_bias(a, b):
    """a + b for a 1-D bias b over a's last axis: the composition that
    `nc.linear` fuses, kept here as its reference."""
    def bw(go):
        axes = tuple(range(go.ndim - 1))
        return go, go.sum(axis=axes) if axes else go
    return nc._apply(a.data + b.data, (a, b), bw)


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
        assert not out.requires_grad


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

    def test_double_backward_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = w.sum()
        tape.backward(loss)
        with pytest.raises(ContractError, match="backward already ran"):
            tape.backward(loss)

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

    def test_backward_frees_the_graph(self):
        # every output points at its tape and the tape at every output, so a
        # kept record would hold the activations until a cyclic collection
        r = rng_for(3)
        w = Tensor(r.standard_normal((6, 5)), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                hidden = nc.matmul(Tensor(r.standard_normal((4, 6))), w)
                loss = nc.gelu(hidden).sum()
            activation = weakref.ref(hidden.data)
            tape.backward(loss)
            assert len(tape) == 0
            with pytest.raises(ContractError):
                tape.backward(loss)
            del tape, hidden, loss
            assert activation() is None
        finally:
            gc.enable()
        assert w.grad is not None and np.any(w.grad)

    def test_only_leaves_keep_a_grad(self):
        r = rng_for(4)
        x = Tensor(r.standard_normal((3, 4)))
        w = Tensor(r.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(r.standard_normal(5), requires_grad=True)
        with Tape() as tape:
            product = nc.matmul(x, w)
            hidden = add_bias(product, b)
            loss = nc.mul(hidden, hidden).sum()
        tape.backward(loss)
        # the intermediates were recorded, but only the leaves keep a gradient
        assert product.requires_grad and hidden.requires_grad
        assert product.grad is None and hidden.grad is None and loss.grad is None
        h = x.data @ w.data + b.data
        assert np.allclose(w.grad, x.data.T @ (2.0 * h), rtol=1e-12, atol=0.0)
        assert np.allclose(b.grad, (2.0 * h).sum(axis=0), rtol=1e-12, atol=0.0)

    def test_frozen_input_gets_no_grad_but_flow_continues(self):
        frozen = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=False)
        live = Tensor([[1.0], [1.0]], requires_grad=True)
        with Tape() as tape:
            loss = nc.matmul(frozen, live).sum()
        tape.backward(loss)
        assert frozen.grad is None
        assert live.grad is not None


class TestTapeThreads:
    def test_a_tape_records_only_its_own_threads_ops(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        seen = {}

        def other_thread():
            seen["recording"] = nc.recording()
            out = nc.mul(w, w)
            seen["tracked"] = out.requires_grad
            with nc.no_grad():
                pass
            seen["recording_after"] = nc.recording()

        with Tape() as tape:
            first = nc.mul(w, w)
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert len(tape) == 1
            # the other thread's no_grad() left this thread's tape in place
            assert nc.recording()
            loss = nc.add(first, w).sum()
        assert seen == {"recording": False, "tracked": False, "recording_after": False}
        assert len(tape) == 3
        tape.backward(loss)
        assert np.allclose(w.grad, 2.0 * w.data + 1.0)


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
        report = grad_check(lambda x, y: nc.matmul(x, y).sum(), [a, b])
        assert report.max_rel_err < 1e-6, report.summary()


def grads_of(f, tensors, go):
    """Output of f(*tensors) and the gradient of every input when the
    output's upstream gradient is `go`."""
    for t in tensors:
        t.requires_grad, t.grad = True, None
    with Tape() as tape:
        out = f(*tensors)
        loss = nc.mul(out, Tensor(go)).sum()
    tape.backward(loss)
    return out.data, [t.grad for t in tensors]


def backward_rule(f, tensors):
    """The backward rule that one tape-recorded call f(*tensors) left on
    the tape, which records it as its only entry."""
    with Tape() as tape:
        f(*tensors)
    assert len(tape) == 1
    return tape._entries[0].backward


class TestFrozenInputs:
    """`matmul` and `linear` compute no gradient for an input that takes
    none, and the trainable inputs' gradients keep their bits."""

    @staticmethod
    def operands(rows=5):
        r = rng_for(rows)
        return (r.standard_normal((rows, 7)), r.standard_normal((7, 3)),
                r.standard_normal(3), r.standard_normal((rows, 3)))

    @staticmethod
    def assert_skipped(f, arrays, frozen, go, want):
        tensors = [Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
        grads = backward_rule(f, tensors)(go)
        assert len(grads) == len(want)
        for i, g in enumerate(grads):
            if i in frozen:
                assert g is None
            else:
                assert np.array_equal(g, want[i])

    @pytest.mark.parametrize("frozen", [(), (0,), (1,)])
    def test_matmul_skips_a_frozen_operand(self, frozen):
        x, w, _, go = self.operands()
        self.assert_skipped(nc.matmul, (x, w), frozen, go, (go @ w.T, x.T @ go))

    @pytest.mark.parametrize("frozen", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_linear_skips_every_frozen_input(self, frozen):
        x, w, b, go = self.operands()
        self.assert_skipped(nc.linear, (x, w, b), frozen, go,
                            (go @ w.T, x.T @ go, np.add.reduce(go, axis=0)))


class TestLinear:
    @pytest.mark.parametrize("rows", [1, 5])
    def test_equals_add_of_matmul_bit_for_bit(self, rows):
        r = rng_for(rows)
        x, w, b = r.standard_normal((rows, 7)), r.standard_normal((7, 3)), r.standard_normal(3)
        go = r.standard_normal((rows, 3))
        fused = grads_of(nc.linear, [Tensor(x), Tensor(w), Tensor(b)], go)
        pair = grads_of(lambda xx, ww, bb: add_bias(nc.matmul(xx, ww), bb),
                        [Tensor(x), Tensor(w), Tensor(b)], go)
        assert np.array_equal(fused[0], pair[0])
        for got, want in zip(fused[1], pair[1]):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_add_takes_no_bias(self):
        with pytest.raises(DimensionError, match="add"):
            nc.add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_shapes_are_checked(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        for bad in ((Tensor(np.ones(3)), w, Tensor(np.ones(4))),
                    (x, Tensor(np.ones((2, 4))), Tensor(np.ones(4))),
                    (x, w, Tensor(np.ones(3))),
                    (x, w, Tensor(np.ones((1, 4))))):
            with pytest.raises(DimensionError, match="linear"):
                nc.linear(*bad)


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


def layer_norm_oracle(x, g, b, go, eps=1e-5):
    """The `ndarray.mean` formulation layer_norm had before its reductions
    dropped numpy's Python wrappers: output and (dx, dgain, dbias)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    dxhat = go * g
    term2 = dxhat.mean(axis=-1, keepdims=True)
    term3 = xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - term2 - term3)
    axes = tuple(range(go.ndim - 1))
    dgain = (go * xhat).sum(axis=axes) if axes else go * xhat
    dbias = go.sum(axis=axes) if axes else go.copy()
    return xhat * g + b, [dx, dgain, dbias]


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(9,), (1, 9), (6, 9)])
    def test_equals_the_mean_formula_bit_for_bit(self, shape):
        r = rng_for(len(shape) * 10 + shape[0])
        x = r.standard_normal(shape) * 3.0 + 1.5
        g, b, go = r.standard_normal(9), r.standard_normal(9), r.standard_normal(shape)
        out, grads = grads_of(nc.layer_norm, [Tensor(x), Tensor(g), Tensor(b)], go)
        want_out, want_grads = layer_norm_oracle(x, g, b, go)
        assert np.array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape and np.array_equal(got, want)

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


class TestTargetLogSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_is_the_gather_of_the_full_log_softmax_bit_for_bit(self, scale):
        r = rng_for(11)
        logits = r.standard_normal((9, 50)) * scale
        targets = r.integers(0, 50, size=9)
        want = nc.log_softmax_rows(logits)[np.arange(9), targets]
        kept = logits.copy()
        assert nc.target_log_softmax(logits, targets).tobytes() == want.tobytes()
        assert np.array_equal(logits, kept)


class TestGradCheckHarness:
    def test_sum_has_near_zero_error(self):
        x = Tensor(rng_for(1).standard_normal(4))
        report = grad_check(lambda t: t.sum(), x)
        assert report.max_rel_err < 1e-9

    def test_cross_entropy_passes(self):
        r = rng_for(5)
        logits = Tensor(r.standard_normal((2, 3)))
        targets = [0, 2]
        report = grad_check(lambda t: nc.cross_entropy(t, targets), logits)
        assert report.passed(1e-4), report.summary()

    def test_corrupted_backward_rule_is_caught(self, monkeypatch):
        from spa import numcore

        true_grad = numcore._gelu_grad
        monkeypatch.setattr(numcore, "_gelu_grad", lambda x: true_grad(x) * 1.05)
        x = Tensor(rng_for(9).standard_normal(6))
        report = grad_check(lambda t: nc.gelu(t).sum(), x)
        assert not report.passed(1e-4)


class TestGelu:
    def test_matches_a_power_oracle(self):
        x = np.linspace(-8.0, 8.0, 2001)
        c = math.sqrt(2.0 / math.pi)
        u = c * (x + 0.044715 * np.power(x, 3))
        want = 0.5 * x * (1.0 + np.tanh(u))
        want_grad = (0.5 * (1.0 + np.tanh(u))
                     + 0.5 * x * (1.0 - np.tanh(u) ** 2) * c * (1.0 + 3 * 0.044715 * np.power(x, 2)))
        np.testing.assert_allclose(nc.gelu(Tensor(x)).data, want, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(nc._gelu_grad(x), want_grad, rtol=1e-12, atol=1e-300)


DIFFERENTIABLE_OPS = [
    ("add", lambda r: (lambda a, b: nc.add(a, b).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((3, 4)))])),
    ("add_bias", lambda r: (lambda a, b: add_bias(a, b).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal(4))])),
    ("mul", lambda r: (lambda a, b: nc.mul(a, b).sum(), [Tensor(r.standard_normal((2, 5))), Tensor(r.standard_normal((2, 5)))])),
    ("smul", lambda r: (lambda a: nc.smul(a, 2.5).mean(), [Tensor(r.standard_normal(5))])),
    ("tsmul", lambda r: (lambda a, s: nc.tsmul(a, s).sum(), [Tensor(r.standard_normal((2, 3))), Tensor(r.standard_normal(()))])),
    ("matmul", lambda r: (lambda a, b: nc.mul(nc.matmul(a, b), nc.matmul(a, b)).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((4, 2)))])),
    ("linear", lambda r: (lambda x, w, b: nc.mul(nc.linear(x, w, b), nc.linear(x, w, b)).sum(), [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((4, 2))), Tensor(r.standard_normal(2))])),
    ("linear_one_row", lambda r: (lambda x, w, b: nc.mul(nc.linear(x, w, b), nc.linear(x, w, b)).sum(), [Tensor(r.standard_normal((1, 5))), Tensor(r.standard_normal((5, 3))), Tensor(r.standard_normal(3))])),
    ("scale_rows", lambda r: (lambda m: nc.scale_rows(m, np.array([1.0, 0.0, -0.5, 2.0])).sum(), [Tensor(r.standard_normal((4, 3)))])),
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


def attention_oracle(q, k, v, n_heads, batch, go):
    """Out-of-place causal attention with a fresh `np.triu` mask per call,
    as before the mask cache and the in-place softmax: output and
    (dq, dk, dv)."""
    d_model = q.shape[1]
    q_len, k_len = q.shape[0] // batch, k.shape[0] // batch
    head = d_model // n_heads
    scale = 1.0 / math.sqrt(head)

    def heads(x):
        return x.reshape(batch, -1, n_heads, head).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(-1, d_model)

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
    if q_len > 1:
        scores = scores + np.triu(np.full((q_len, k_len), -np.inf), k=k_len - q_len + 1)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    weights = e / e.sum(axis=-1, keepdims=True)
    goh = heads(go)
    d_weights = np.matmul(goh, vh.swapaxes(-1, -2))
    d_scores = weights * (d_weights - (weights * d_weights).sum(axis=-1, keepdims=True))
    dq = scale * np.matmul(d_scores, kh)
    dk = scale * np.matmul(d_scores.swapaxes(-1, -2), qh)
    dv = np.matmul(weights.swapaxes(-1, -2), goh)
    return merge(np.matmul(weights, vh)), [merge(dq), merge(dk), merge(dv)]


class TestCausalAttention:
    @pytest.mark.parametrize("q_len,k_len,batch", [
        (6, 6, 1),   # square: causal self-attention
        (1, 7, 1),   # one cached decode step, no mask
        (3, 8, 1),   # cached block
        (5, 5, 3),   # batched square
        (1, 6, 4),   # batched cached step (beam)
        (2, 6, 2),
    ])
    def test_equals_an_out_of_place_reference_bit_for_bit(self, q_len, k_len, batch):
        r = rng_for(q_len * 100 + k_len * 10 + batch)
        q = r.standard_normal((batch * q_len, 8))
        k, v = r.standard_normal((batch * k_len, 8)), r.standard_normal((batch * k_len, 8))
        go = r.standard_normal(q.shape)
        for _ in range(2):  # the second call reads the cached mask
            out, grads = grads_of(lambda a, b_, c: nc.causal_attention(a, b_, c, 2, batch),
                                  [Tensor(q), Tensor(k), Tensor(v)], go)
            want_out, want_grads = attention_oracle(q, k, v, 2, batch, go)
            assert np.array_equal(out, want_out)
            for got, want in zip(grads, want_grads):
                assert np.array_equal(got, want)

    def test_cached_mask_is_shared_and_read_only(self):
        mask = nc._causal_mask(3, 5)
        assert nc._causal_mask(3, 5) is mask
        assert np.array_equal(mask, np.triu(np.full((3, 5), -np.inf), k=3))
        with pytest.raises(ValueError):
            mask[0, 4] = 0.0
        with pytest.raises(ValueError):
            mask += 1.0

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
        report = grad_check(f, tensors)
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
