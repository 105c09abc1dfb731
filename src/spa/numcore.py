"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Storage is row-major contiguous numpy arrays, double precision throughout.
Gradients are only recorded while a `Tape` is active (``with Tape() as t:``);
outside a tape, or inside `no_grad()`, every operation is a plain forward
computation. Broadcasting is deliberately limited to the cases the model
needs: same-shape elementwise, a 1-D bias over the last axis, python
scalars, and per-row scaling.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "recording",
    "backward",
    "zero_grad",
    "add",
    "mul",
    "neg",
    "smul",
    "sadd",
    "tsmul",
    "matmul",
    "embedding",
    "scale_rows",
    "column",
    "softmax",
    "layer_norm",
    "gelu",
    "causal_attention",
    "cross_entropy",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_CUBIC = 0.044715


class Tensor:
    """A dense float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = np.ascontiguousarray(arr)
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

    # small amount of operator sugar; everything routes through the named ops
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return sadd(self, float(other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return smul(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, neg(other))
        return sadd(self, -float(other))

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


_TAPE_STACK: list["Tape | None"] = []


def _current_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of operations; replayed in reverse by `backward`."""

    def __init__(self):
        self._entries: list[_TapeEntry] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def consumed(self) -> bool:
        return self._consumed

    def record(self, inputs, output, backward_fn) -> None:
        self._entries.append(_TapeEntry(tuple(inputs), output, backward_fn))

    def reset(self) -> None:
        self._entries.clear()
        self._consumed = False

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self:
            raise ContractError("loss was not recorded on this tape")
        if self._consumed:
            raise ContractError("backward already ran on this tape; call reset() first")
        self._consumed = True

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        seen: dict[int, Tensor] = {id(loss): loss}
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
                seen[key] = t
        for key, t in seen.items():
            t.accumulate_grad(grads[key])


@contextlib.contextmanager
def no_grad():
    """Disable recording inside the block, even if a tape is active."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def recording() -> bool:
    """True when operations are being recorded on a tape."""
    return _current_tape() is not None


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation for the tape that produced `loss`."""
    if loss._tape is None:
        raise ContractError("loss is not on a tape (was it computed under no_grad?)")
    loss._tape.backward(loss)


def zero_grad(tensors) -> None:
    for t in tensors:
        t.grad = None


def _apply(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _current_tape()
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
    """a + b (same shape, or b a 1-D bias over a's last axis)."""
    if a.shape == b.shape:
        def bw(go):
            return go, go
        return _apply(a.data + b.data, (a, b), bw)
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def bw(go):
            axes = tuple(range(go.ndim - 1))
            return go, go.sum(axis=axes) if axes else go
        return _apply(a.data + b.data, (a, b), bw)
    raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, same shapes only."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bw(go):
        return go * bd, go * ad

    return _apply(ad * bd, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(go):
        return (-go,)

    return _apply(-a.data, (a,), bw)


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(go):
        return (go * c,)

    return _apply(a.data * c, (a,), bw)


def sadd(a: Tensor, c: float) -> Tensor:
    def bw(go):
        return (go,)

    return _apply(a.data + float(c), (a,), bw)


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


def scale_rows(mat: Tensor, weights: Tensor) -> Tensor:
    """out[t, :] = mat[t, :] * weights[t]; the per-row weights get gradients."""
    if mat.data.ndim != 2 or weights.data.ndim != 1 or mat.shape[0] != weights.shape[0]:
        raise DimensionError(
            f"scale_rows: need (T, d) and (T,), got {mat.shape} and {weights.shape}"
        )
    md, wd = mat.data, weights.data

    def bw(go):
        return go * wd[:, None], np.sum(go * md, axis=1)

    return _apply(md * wd[:, None], (mat, weights), bw)


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
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: need 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def bw(go):
        return go @ bd.T, ad.T @ go

    return _apply(ad @ bd, (a, b), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table (V, d), ids any int sequence; out (len(ids), d)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"embedding: ids must be 1-D, got shape {idx.shape}")
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = int(idx[(idx < 0) | (idx >= vocab)][0])
        raise IndexError(f"embedding: id {bad} out of range for table of {vocab} rows")

    def bw(go):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, go)
        return (g,)

    return _apply(table.data[idx], (table,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(go):
        inner = (go * p).sum(axis=axis, keepdims=True)
        return (p * (go - inner),)

    return _apply(p, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gd = gain.data

    def bw(go):
        dxhat = go * gd
        term1 = dxhat
        term2 = dxhat.mean(axis=-1, keepdims=True)
        term3 = xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv_std * (term1 - term2 - term3)
        axes = tuple(range(go.ndim - 1))
        dgain = (go * xhat).sum(axis=axes) if axes else go * xhat
        dbias = go.sum(axis=axes) if axes else go.copy()
        return dx, dgain, dbias

    return _apply(xhat * gd + bias.data, (x, gain, bias), bw)


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x**3)
    t = np.tanh(u)
    du = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    xd = x.data
    t = np.tanh(_SQRT_2_OVER_PI * (xd + _GELU_CUBIC * xd**3))
    out = 0.5 * xd * (1.0 + t)

    def bw(go):
        return (go * _gelu_grad(xd),)

    return _apply(out, (x,), bw)


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
    if q.data.ndim != 2 or k.shape != v.shape or k.data.ndim != 2 or k.shape[1] != q.shape[1]:
        raise DimensionError(
            f"causal_attention: need (Tq, d) queries and (Tk, d) keys/values, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    if batch < 1 or q.shape[0] % batch or k.shape[0] % batch:
        raise DimensionError(
            f"causal_attention: {q.shape[0]} query and {k.shape[0]} key rows "
            f"do not split into {batch} sequences"
        )
    d_model = q.shape[1]
    q_len, k_len = q.shape[0] // batch, k.shape[0] // batch
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
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
    if q_len > 1:  # a single query (a cached decode step) sees every key
        scores += np.triu(np.full((q_len, k_len), -np.inf), k=k_len - q_len + 1)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(weights, vh))

    def bw(go):
        goh = heads(go)
        d_weights = np.matmul(goh, vh.swapaxes(-1, -2))
        d_scores = weights * (d_weights - (weights * d_weights).sum(axis=-1, keepdims=True))
        dq = scale * np.matmul(d_scores, kh)
        dk = scale * np.matmul(d_scores.swapaxes(-1, -2), qh)
        dv = np.matmul(weights.swapaxes(-1, -2), goh)
        return merge(dq), merge(dk), merge(dv)

    return _apply(out, (q, k, v), bw)


def log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Plain-array row-wise log softmax (no tape); used by evaluation paths."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over positions of -log softmax(logits)[target]."""
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
    loss = -lp[np.arange(t_len), ids].mean()

    def bw(go):
        g = np.exp(lp)
        g[np.arange(t_len), ids] -= 1.0
        return (g * (float(np.asarray(go).reshape(())) / t_len),)

    return _apply(np.asarray(loss), (logits,), bw)
