"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Storage is row-major contiguous numpy arrays, double precision throughout.
Gradients are only recorded while a `Tape` is active (``with Tape() as t:``);
outside a tape, or inside `no_grad()`, every operation is a plain forward
computation. Each thread has its own stack of active tapes, so a tape opened
in one thread never records another thread's operations. Broadcasting is
deliberately limited to the cases the model needs: same-shape elementwise,
a 1-D bias over the last axis, python scalars, and per-row scaling.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "recording",
    "add",
    "mul",
    "smul",
    "tsmul",
    "matmul",
    "linear",
    "embedding",
    "scale_rows",
    "column",
    "softmax",
    "layer_norm",
    "gelu",
    "causal_attention",
    "cross_entropy",
    "cross_entropy_rows",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715
_LAYER_NORM_EPS = 1e-5


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return _reduce(self, "sum")

    def mean(self):
        return _reduce(self, "mean")

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


@dataclass
class _TapeEntry:
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class _TapeStack(threading.local):
    """The calling thread's stack of active tapes: `tape` is the innermost
    (None outside any tape or under `no_grad`), `outer` the ones it shadows.
    Every thread starts with an empty stack. The innermost is kept apart so
    that every op reads it with one attribute lookup."""

    def __init__(self):
        self.tape: Tape | None = None
        self.outer: list[Tape | None] = []

    def push(self, tape: "Tape | None") -> None:
        self.outer.append(self.tape)
        self.tape = tape

    def pop(self) -> None:
        self.tape = self.outer.pop()


_TAPE_STACK = _TapeStack()


class Tape:
    """Ordered record of operations; replayed in reverse by `backward`,
    which then drops the record."""

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.push(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, inputs, output, backward_fn) -> None:
        self._entries.append(_TapeEntry(tuple(inputs), output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape")
        if self._consumed:
            raise ContractError("backward already ran on this tape; open a new Tape")
        self._consumed = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        # only leaves, the tensors no entry of this tape produced, keep a
        # .grad; an intermediate's gradient lives in `grads` alone
        produced = {id(entry.output) for entry in self._entries}
        leaves: dict[int, Tensor] = {}
        for entry in reversed(self._entries):
            upstream = grads.get(id(entry.output))
            if upstream is None:
                continue
            downstream = entry.backward(upstream)
            for t, g in zip(entry.inputs, downstream):
                if g is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = np.asarray(g, dtype=np.float64)
                if key not in produced:
                    leaves[key] = t
        for key, t in leaves.items():
            t.accumulate_grad(grads[key])
        # every output points back at this tape, so the entries would keep the
        # whole graph (activations and closures) alive until a cyclic collection
        self._entries.clear()


@contextlib.contextmanager
def no_grad():
    """Disable recording inside the block, even if a tape is active."""
    _TAPE_STACK.push(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def recording() -> bool:
    """True when operations are being recorded on a tape."""
    return _TAPE_STACK.tape is not None


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _TAPE_STACK.tape
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        out._tape = tape
        tape.record(inputs, out, backward_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise / scalar ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, same shapes only."""
    ad, bd = a.data, b.data
    if ad.shape != bd.shape:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def bw(go):
        return go, go

    return _apply(ad + bd, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same shapes only."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bw(go):
        return go * bd, go * ad

    return _apply(ad * bd, (a, b), bw)


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(go):
        return (go * c,)

    return _apply(a.data * c, (a,), bw)


def tsmul(a: Tensor, s: Tensor) -> Tensor:
    """Scale a whole tensor by a scalar tensor (the scalar gets a gradient)."""
    if s.data.size != 1:
        raise DimensionError(f"tsmul: scale must be scalar, got shape {s.shape}")
    ad = a.data
    sval = float(s.data.reshape(()))

    def bw(go):
        return go * sval, np.sum(go * ad).reshape(s.shape)

    return _apply(ad * sval, (a, s), bw)


def _reduce(a: Tensor, kind: str) -> Tensor:
    n = a.data.size

    def bw(go):
        g = np.broadcast_to(go, a.shape).astype(np.float64)
        return (g / n if kind == "mean" else g.copy(),)

    out = a.data.sum() if kind == "sum" else a.data.mean()
    return _apply(np.asarray(out), (a,), bw)


def scale_rows(mat: Tensor, weights: np.ndarray) -> Tensor:
    """out[t, :] = mat[t, :] * weights[t]; the per-row weights are constants."""
    if mat.data.ndim != 2 or weights.ndim != 1 or mat.shape[0] != weights.shape[0]:
        raise DimensionError(
            f"scale_rows: need (T, d) and (T,), got {mat.shape} and {weights.shape}"
        )
    col = weights[:, None]

    def bw(go):
        return (go * col,)

    return _apply(mat.data * col, (mat,), bw)


def column(x: Tensor, idx: int) -> Tensor:
    """Select one column of a 2-D tensor as a vector."""
    if x.data.ndim != 2:
        raise DimensionError(f"column: need a 2-D tensor, got shape {x.shape}")

    def bw(go):
        g = np.zeros_like(x.data)
        g[:, idx] = go
        return (g,)

    return _apply(x.data[:, idx].copy(), (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra and network layers
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for 2-D operands. The backward skips the product of an operand
    whose `requires_grad` is False (`Tape.backward` would drop it), so a
    frozen projection costs no weight-gradient product."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise DimensionError(f"matmul: need 2-D operands, got {a.shape} and {b.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")

    def bw(go):
        return (go @ bd.T if a.requires_grad else None,
                ad.T @ go if b.requires_grad else None)

    return _apply(ad @ bd, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for (T, n) rows, an (n, m) weight and an (m,) bias, as one op.

    The same IEEE operations as `matmul(x, w)` followed by a broadcast add
    of `b`, forward and backward, bit for bit. Like `matmul`, its backward
    computes no gradient for an input that takes none (a frozen weight, a
    constant input row)."""
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
        raise DimensionError(
            f"linear: need (T, n) rows, an (n, m) weight and an (m,) bias, "
            f"got {x.shape}, {w.shape} and {b.shape}"
        )
    out = xd @ wd
    out += bd

    def bw(go):
        return (go @ wd.T if x.requires_grad else None,
                xd.T @ go if w.requires_grad else None,
                np.add.reduce(go, axis=0) if b.requires_grad else None)

    return _apply(out, (x, w, b), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table (V, d), ids any int sequence; out (len(ids), d)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"embedding: ids must be 1-D, got shape {idx.shape}")
    vocab = table.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = int(idx[(idx < 0) | (idx >= vocab)][0])
        raise IndexError(f"embedding: id {bad} out of range for table of {vocab} rows")

    def bw(go):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, go)
        return (g,)

    return _apply(table.data[idx], (table,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / np.add.reduce(e, axis=axis, keepdims=True)

    def bw(go):
        inner = np.add.reduce(go * p, axis=axis, keepdims=True)
        return (p * (go - inner),)

    return _apply(p, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine.

    Means are `np.add.reduce` then a division by d: the IEEE operations of
    `ndarray.mean`, without its Python wrapper."""
    xd, gd, bd = x.data, gain.data, bias.data
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= d
    centered = xd - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= d
    inv_std = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = centered * inv_std
    out = xhat * gd
    out += bd

    def bw(go):
        dxhat = go * gd
        term2 = np.add.reduce(dxhat, axis=-1, keepdims=True)
        term2 /= d
        term3 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
        term3 /= d
        dx = inv_std * (dxhat - term2 - xhat * term3)
        axes = tuple(range(go.ndim - 1))
        dgain = np.add.reduce(go * xhat, axis=axes) if axes else go * xhat
        dbias = np.add.reduce(go, axis=axes) if axes else go.copy()
        return dx, dgain, dbias

    return _apply(out, (x, gain, bias), bw)


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * (x * x * x))
    t = np.tanh(u)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    xd = x.data
    # x * x * x, not x**3: numpy's pow has no fast path for an exponent of 3
    t = np.tanh(_SQRT_2_OVER_PI * (xd + _GELU_CUBIC * (xd * xd * xd)))
    out = 0.5 * xd * (1.0 + t)

    def bw(go):
        return (go * _gelu_grad(xd),)

    return _apply(out, (x,), bw)


@functools.lru_cache(maxsize=16)
def _causal_mask(q_len: int, k_len: int) -> np.ndarray:
    """The additive (q_len, k_len) mask: -inf where query i may not see key
    j, 0 elsewhere. Cached and shared between calls, so read-only."""
    mask = np.triu(np.full((q_len, k_len), -np.inf), k=k_len - q_len + 1)
    mask.flags.writeable = False
    return mask


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, batch: int = 1) -> Tensor:
    """Multi-head causal attention of (Tq, d) queries over (Tk, d) keys/values.

    Tk >= Tq: the queries are the last Tq of the Tk positions, so query i
    sees keys 0..Tk-Tq+i (the square case is ordinary causal self-attention;
    Tq < Tk is a cached decode step). With `batch` B the rows hold B
    independent sequences stacked in order: q is (B*Tq, d), k and v are
    (B*Tk, d), and no sequence attends to another. Heads and sequences are
    batched through `np.matmul` on (B, heads, T, head_dim) views. Fused into
    one tape op with a hand-written backward so the graph stays small;
    verified against finite differences like every other op.
    """
    qs, ks = q.data.shape, k.data.shape
    if len(qs) != 2 or ks != v.data.shape or len(ks) != 2 or ks[1] != qs[1]:
        raise DimensionError(
            f"causal_attention: need (Tq, d) queries and (Tk, d) keys/values, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    if batch < 1 or qs[0] % batch or ks[0] % batch:
        raise DimensionError(
            f"causal_attention: {qs[0]} query and {ks[0]} key rows "
            f"do not split into {batch} sequences"
        )
    d_model = qs[1]
    q_len, k_len = qs[0] // batch, ks[0] // batch
    if k_len < q_len:
        raise DimensionError(f"causal_attention: {k_len} keys for {q_len} queries")
    if d_model % n_heads:
        raise DimensionError(f"causal_attention: d={d_model} not divisible by {n_heads} heads")
    head = d_model // n_heads
    scale = 1.0 / math.sqrt(head)

    def heads(x: np.ndarray) -> np.ndarray:  # (B*T, d) -> (B, heads, T, head)
        return x.reshape(batch, -1, n_heads, head).transpose(0, 2, 1, 3)

    def merge(x: np.ndarray) -> np.ndarray:  # (B, heads, T, head) -> (B*T, d)
        return x.transpose(0, 2, 1, 3).reshape(-1, d_model)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    # the softmax runs in place on the one score array, which becomes the weights
    weights = np.matmul(qh, kh.swapaxes(-1, -2))
    weights *= scale
    if q_len > 1:  # a single query (a cached decode step) sees every key
        weights += _causal_mask(q_len, k_len)
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    out = merge(np.matmul(weights, vh))

    def bw(go):
        goh = heads(go)
        d_weights = np.matmul(goh, vh.swapaxes(-1, -2))
        d_scores = weights * (d_weights - np.add.reduce(weights * d_weights, axis=-1, keepdims=True))
        dq = scale * np.matmul(d_scores, kh)
        dk = scale * np.matmul(d_scores.swapaxes(-1, -2), qh)
        dv = np.matmul(weights.swapaxes(-1, -2), goh)
        return merge(dq), merge(dk), merge(dv)

    return _apply(out, (q, k, v), bw)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Plain-array row-wise log softmax (no tape); used by evaluation paths."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def target_log_softmax(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """log_softmax_rows(logits)[t, targets[t]] for every row t, bit for bit:
    the target entries are gathered before the log-sum-exp is subtracted,
    through the same IEEE operations, so only one entry per row pays it."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    picked = shifted[np.arange(targets.shape[0]), targets]
    np.exp(shifted, out=shifted)
    return picked - np.log(np.add.reduce(shifted, axis=-1))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over positions of -log softmax(logits)[target]."""
    return cross_entropy_rows(logits, targets)[0]


def cross_entropy_rows(logits: Tensor, targets) -> tuple[Tensor, np.ndarray]:
    """`cross_entropy` and the per-row target log-probs it averaged, bit for
    bit `target_log_softmax(logits.data, targets)`, from one log softmax."""
    ids = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or ids.ndim != 1 or ids.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"cross_entropy: need (T, V) logits and (T,) targets, got {logits.shape} and {ids.shape}"
        )
    t_len, vocab = logits.shape
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids[(ids < 0) | (ids >= vocab)][0])
        raise IndexError(f"cross_entropy: target id {bad} out of range for vocab {vocab}")
    lp = log_softmax_rows(logits.data)
    rows = lp[np.arange(t_len), ids]
    loss = -rows.mean()

    def bw(go):
        g = np.exp(lp)
        g[np.arange(t_len), ids] -= 1.0
        return (g * (float(np.asarray(go).reshape(())) / t_len),)

    return _apply(np.asarray(loss), (logits,), bw), rows
