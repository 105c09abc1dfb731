"""Span tracing for the traced benchmark run, done from outside the package.

`install` replaces module and class attributes of `spa` with wrappers that
record one span per call. Nothing under `src/spa` is edited. A function
that a module imports by name is wrapped where it is looked up, so
`spa.decoding.base_forward` is wrapped as well as `spa.model.base_forward`.

A span carries a name, start and end (`time.perf_counter`, which is
CLOCK_MONOTONIC on Linux and so comparable between the client and the
cloud process), its parent span, a session id and an optional `info`
value. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

WIRE_TYPES = {
    "Hello": "HELLO",
    "Prompt": "PROMPT",
    "BaseHiddens": "BASE_HIDDENS",
    "GateDecision": "GATE_DECISION",
    "SideOutput": "SIDE_OUTPUT",
    "Token": "TOKEN",
    "Eos": "EOS",
    "ErrorFrame": "ERROR",
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent record or None, session, info]
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._sessions = 0
        self._lock = threading.Lock()

    @property
    def session(self) -> int:
        return getattr(self._local, "session", 0)

    @session.setter
    def session(self, value: int) -> None:
        self._local.session = value

    def next_session(self) -> int:
        with self._lock:
            self._sessions += 1
            return self._sessions

    def wrapped(self, fn, name: str, info=None, new_session: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if new_session:
                tracer.session = tracer.next_session()
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, tracer.session, None]
            tracer.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, info=None, new_session: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(original, name, info, new_session))

    def wrap_factory(self, owner, attr: str, name: str, info=None) -> None:
        """Wrap a function that returns a callable; spans time the callable."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return self.wrapped(original(*args, **kwargs), name, info)

        setattr(owner, attr, factory)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def export(self) -> list[dict]:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": -1 if parent is None else index[id(parent)],
                "session": session,
                "info": info,
            }
            for name, start, end, parent, session, info in self.spans
        ]


def _wire_info(args, result):
    msg = args[1]
    return [WIRE_TYPES.get(type(msg).__name__, "?"), getattr(msg, "step", None)]


def _recv_info(args, result):
    return [WIRE_TYPES.get(type(result).__name__, "?"), getattr(result, "step", None)]


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every layer the benchmark reports on."""
    import spa.checkpoint
    import spa.cloud
    import spa.decoding
    import spa.device
    import spa.model
    import spa.numcore
    import spa.training
    import spa.transport
    from spa.wire import HEADER_LEN, MsgType

    def positions(args, result):
        return len(args[2])

    def attention_flops(args, result):
        t_len, d_model = args[0].shape
        # QK^T and weights @ V, 2 flops per multiply-add, full T x T
        # (the causal mask is applied after the product); computed from
        # shapes, not counted by hardware
        return 4 * t_len * t_len * d_model

    w = tracer.wrap
    w(spa.transport.SocketTransport, "send", "transport.send", _wire_info)
    w(spa.transport.SocketTransport, "recv", "transport.recv", _recv_info)
    w(spa.transport, "encode_frame", "wire.encode",
      lambda a, r: [WIRE_TYPES.get(type(a[0]).__name__, "?"), len(r)])
    w(spa.transport, "decode_payload", "wire.decode",
      lambda a, r: [MsgType(a[0]).name, len(a[1]) + HEADER_LEN])
    w(spa.cloud.CloudEndpoint, "handle_session", "cloud.session", new_session=True)
    w(spa.decoding.CloudStepModel, "logits_for", "decoding.logits_for")
    w(spa.decoding, "beam_decode", "decoding.beam_decode")
    w(spa.decoding, "greedy_decode", "decoding.greedy_decode")
    for module in (spa.model, spa.decoding, spa.training):
        w(module, "base_forward", "model.base_forward", positions)
    w(spa.decoding, "side_step_rolled", "model.side_step")
    w(spa.decoding, "side_step_layers", "model.side_step")
    for op in ("matmul", "gelu", "layer_norm"):
        w(spa.numcore, op, f"numcore.{op}")
    w(spa.numcore, "causal_attention", "numcore.causal_attention", attention_flops)
    tracer.wrap_factory(spa.device, "local_side_provider", "device.side_provider",
                        lambda a, r: a[0])
    for module in (spa.checkpoint, spa.cloud):
        w(module, "load_checkpoint", "checkpoint.load")
    w(spa.device, "load_checkpoint", "device.checkpoint_load")
    w(spa.checkpoint, "save_model", "checkpoint.save")
    w(spa.training, "gate_labels", "training.gate_labels")
    w(spa.training, "token_loss", "training.token_loss")
    w(spa.numcore.Tape, "backward", "training.backward")
    w(spa.training.Adam, "step", "training.adam")
    w(spa.training, "_fused_val_perplexity", "training.val_eval")
    return tracer


def write_spans(spans: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(s, span["start"]), min(e, span["end"])) for s, e in children.get(i, ())
        ]
        out.append(span["end"] - span["start"] - union_length(clipped))
    return out


class SpanIndex:
    """Query helpers over one process's exported spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.self_time = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span["name"]].append(i)
            if span["parent"] >= 0:
                self.children[span["parent"]].append(i)

    def dur(self, i: int) -> float:
        return self.spans[i]["end"] - self.spans[i]["start"]

    def total(self, name: str, where=None) -> float:
        return sum(self.dur(i) for i in self.by_name.get(name, ()) if where is None or where(i))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.by_name.get(name, ()))

    def info_sum(self, name: str) -> float:
        return sum(self.spans[i]["info"] or 0 for i in self.by_name.get(name, ()))

    def under(self, i: int, name: str) -> bool:
        parent = self.spans[i]["parent"]
        while parent >= 0:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def child_total(self, i: int, prefix: str) -> float:
        return sum(
            self.dur(j) for j in self.children.get(i, ()) if self.spans[j]["name"].startswith(prefix)
        )
