"""The greedy overlap: while a side reply is on its way, the cloud runs the
next step's base forward for the context extended by the base argmax.

Every split session here must equal `decode_monolithic` bit for bit (tokens,
gate bits, gate_log, both ends' counters), whether the prefetched forward is
used (a hit) or thrown away because the side moved the argmax (a miss), and
beam search and in-process decodes must run exactly the forwards they ran
before: one per step, none ahead.
"""

import itertools
import threading
from collections import deque

import numpy as np
import pytest

import spa.decoding
from spa.checkpoint import compat_digest
from spa.cloud import CloudEndpoint
from spa.decoding import (
    CloudStepModel,
    DecodeConfig,
    decode_monolithic,
    greedy_decode,
    local_side_provider,
    local_step_model,
    run_decode,
)
from spa.device import SideBundle, run_device
from spa.errors import ContractError, DimensionError, DomainError
from spa.model import ModelConfig, SpaModel
from spa.transport import TransportClosed
from spa.wire import (
    PROTOCOL_VERSION,
    BaseHiddens,
    ErrorCode,
    ErrorFrame,
    Hello,
    Prompt,
    SideOutput,
    decode_frame,
    encode_frame,
)

from conftest import tcp_pair

CFG = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=12, max_seq_len=24, side_reduction=8
)
POLICIES = ("spa", "always_side", "base_only")
# every side weight matrix scaled by this moves the fused argmax off the base
# argmax on some steps, so the prefetched forward misses there
LOUD_SIDE = 40.0


def make_model(seed=0, side_scale=1.0) -> SpaModel:
    model = SpaModel.create(CFG, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    # a random gate so spa sessions mix both paths
    model.gate["w"].data[:] = rng.standard_normal((CFG.d_model, 2)) * 0.8
    for name, tensor in model.side.named():
        if name.split(".")[-1] in ("w", "w1", "w2"):
            tensor.data *= side_scale
    model.base.freeze()
    return model


def make_bundle(model: SpaModel) -> SideBundle:
    return SideBundle(model.config, model.side, compat_digest(model.config, model.base_digest()))


def prompts(seed, count, lo=1, hi=5):
    rng = np.random.default_rng(seed)
    return [[int(t) for t in rng.integers(0, CFG.vocab_size, size=rng.integers(lo, hi))]
            for _ in range(count)]


def tcp_session(model, prompt, dcfg):
    """One session over loopback TCP: (device result, cloud record)."""
    endpoint = CloudEndpoint.from_model(model, wire_mode=dcfg.wire_mode, frame_timeout=5.0)
    dev_end, cloud_end = tcp_pair()
    box = {}
    t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
    t.start()
    result = run_device(make_bundle(model), dcfg, prompt_ids=prompt, transport=dev_end,
                        frame_timeout=5.0)
    t.join(timeout=10)
    assert not t.is_alive()
    return result, box["record"]


class ScriptedTransport:
    """The cloud's end of a session whose device is a script: `opening` is
    read first, and every BASE_HIDDENS the cloud sends queues `answer(msg)`
    (frames, or an exception to raise) for its next reads. Every frame is
    encoded and decoded, and counted as `SocketTransport` counts it."""

    def __init__(self, opening, answer):
        self.inbox = deque(opening)
        self.answer = answer
        self.sent: list = []
        self.frames_sent = self.frames_received = 0
        self.bytes_sent = self.bytes_received = 0

    def send(self, msg) -> None:
        frame = encode_frame(msg)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        self.sent.append(msg)
        if isinstance(msg, BaseHiddens):
            self.inbox.extend(self.answer(msg))

    def recv(self, timeout=None):
        if not self.inbox:
            raise TransportClosed("script ended")
        item = self.inbox.popleft()
        if isinstance(item, Exception):
            raise item
        frame = encode_frame(item)
        self.frames_received += 1
        self.bytes_received += len(frame)
        return decode_frame(frame)[0]

    def close(self) -> None:
        pass


def scripted_session(model, prompt, dcfg, answer=None):
    """One session against a scripted device that answers every BASE_HIDDENS
    with the local side provider (or with `answer`): (cloud record, transport)."""
    endpoint = CloudEndpoint.from_model(model, wire_mode=dcfg.wire_mode)
    provide = local_side_provider(model.config, model.side)
    if answer is None:
        def answer(msg):
            return [SideOutput(msg.step, provide(msg.step, msg.hiddens.transpose(1, 0, 2)))]

    opening = [
        Hello(PROTOCOL_VERSION, dcfg.wire_mode, endpoint.digest),
        Prompt(tuple(prompt), dcfg.policy, dcfg.strategy, dcfg.beam_width, dcfg.max_new_tokens),
    ]
    transport = ScriptedTransport(opening, answer)
    return endpoint.handle_session(transport), transport


def assert_session_frames(counter, rounds: int, tokens: int) -> None:
    """The cloud's frames: HELLO, one BASE_HIDDENS per round trip, one TOKEN
    per token and EOS out; HELLO, PROMPT and one SIDE_OUTPUT per round trip in."""
    assert counter.frames_sent == 1 + rounds + tokens + 1
    assert counter.frames_received == 2 + rounds
    assert counter.hidden_round_trips == rounds
    assert counter.tokens_generated == tokens


def assert_prefetch_bounds(record, dcfg) -> None:
    """hits <= prefetches <= gated greedy steps; beam never prefetches."""
    gated = sum(record.emitted_trace) if dcfg.strategy == "greedy" else 0
    assert 0 <= record.prefetch_hits <= record.prefetches <= gated


class TestSplitEqualsMonolithic:
    @pytest.mark.parametrize("side_scale", [1.0, LOUD_SIDE])
    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_tcp_and_scripted_sessions_equal_decode_monolithic(self, policy, strategy, side_scale):
        model = make_model(2, side_scale)
        # the long prompts slide past max_seq_len = 24 within 8 new tokens
        for prompt in prompts(7, 2) + prompts(8, 2, lo=18, hi=24):
            dcfg = DecodeConfig(max_new_tokens=8, strategy=strategy, beam_width=3,
                                policy=policy, wire_mode="all_layers")
            mono = decode_monolithic(model, prompt, dcfg)
            split, tcp = tcp_session(model, prompt, dcfg)
            scripted, transport = scripted_session(model, prompt, dcfg)
            assert split.completed and split.error is None
            assert tcp.error is None and scripted.error is None
            for record in (tcp, scripted):
                assert record.emitted_tokens == split.tokens == mono.tokens
                assert record.emitted_trace == split.gate_trace == mono.gate_trace
                assert record.gate_log == mono.gate_log
                assert record.counter.hidden_round_trips == mono.counter.hidden_round_trips
                assert_session_frames(record.counter, mono.counter.hidden_round_trips,
                                    len(mono.tokens))
                assert_prefetch_bounds(record, dcfg)
            # the two ends agree frame for frame and byte for byte
            dev, cloud = split.counter, tcp.counter
            assert (dev.frames_sent, dev.bytes_sent) == (cloud.frames_received, cloud.bytes_received)
            assert (dev.frames_received, dev.bytes_received) == (cloud.frames_sent, cloud.bytes_sent)
            assert dev.hidden_round_trips == cloud.hidden_round_trips
            assert scripted.counter == tcp.counter
            assert (scripted.prefetches, scripted.prefetch_hits) == (tcp.prefetches,
                                                                     tcp.prefetch_hits)

    def test_always_side_greedy_prefetches_every_step_but_the_last(self):
        model = make_model(2)
        dcfg = DecodeConfig(max_new_tokens=9, policy="always_side", wire_mode="final")
        record, _ = scripted_session(model, [3, 1, 4], dcfg)
        assert record.prefetches == 8
        assert record.prefetch_hits == 8  # the untrained side never moves this argmax


class ForwardCount:
    """Counts `spa.decoding.base_forward` calls, with the positions each
    forwards, and `logits_for` steps."""

    def __init__(self, monkeypatch):
        self.positions: list[int] = []
        self.steps = 0
        real_forward = spa.decoding.base_forward
        real_logits_for = CloudStepModel.logits_for

        def forward(config, base, ids, *args, **kwargs):
            self.positions.append(np.shape(ids)[-1])
            return real_forward(config, base, ids, *args, **kwargs)

        def logits_for(step_model, contexts, prefetch=False):
            self.steps += 1
            return real_logits_for(step_model, contexts, prefetch)

        monkeypatch.setattr(spa.decoding, "base_forward", forward)
        monkeypatch.setattr(CloudStepModel, "logits_for", logits_for)

    @property
    def forwards(self) -> int:
        return len(self.positions)


class TestForwards:
    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_in_process_decodes_run_one_forward_per_step(self, policy, strategy, monkeypatch):
        count = ForwardCount(monkeypatch)
        model = make_model(5, LOUD_SIDE)
        step_model = local_step_model(model, policy)
        dcfg = DecodeConfig(max_new_tokens=30, strategy=strategy, beam_width=3, policy=policy)
        run_decode(step_model, [2, 7, 1], dcfg, CFG.vocab_size)
        assert count.forwards == count.steps == 30
        assert step_model.prefetches == step_model.prefetch_hits == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_split_beam_runs_one_forward_per_step(self, policy, monkeypatch):
        count = ForwardCount(monkeypatch)
        dcfg = DecodeConfig(max_new_tokens=30, strategy="beam", beam_width=3, policy=policy)
        record, _ = scripted_session(make_model(5), [2, 7, 1], dcfg)
        assert count.forwards == count.steps == 30
        assert record.prefetches == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_split_greedy_adds_one_forward_per_miss(self, policy, monkeypatch):
        count = ForwardCount(monkeypatch)
        # 3 + 20 tokens stay inside max_seq_len = 24
        dcfg = DecodeConfig(max_new_tokens=20, policy=policy)
        record, _ = scripted_session(make_model(5, LOUD_SIDE), [2, 7, 1], dcfg)
        assert count.steps == 20
        assert count.forwards == count.steps + record.prefetches - record.prefetch_hits
        assert_prefetch_bounds(record, dcfg)
        if policy == "always_side":
            assert record.prefetch_hits < record.prefetches
        # a miss forwards one token over this step's kept K/V, as a hit would
        # have: the prefetch left them in place
        assert count.positions == [3] + [1] * (count.forwards - 1)

    def test_only_a_step_of_one_context_prefetches(self):
        step_model = local_step_model(make_model(5), "always_side")
        with pytest.raises(ContractError, match="one context"):
            step_model.logits_for([[1, 2], [3, 4]], prefetch=True)


class TestPendingReplies:
    """A provider that returns a pending reply is checked as one that
    answers at once, and `greedy_decode` gives the same output either way."""

    @staticmethod
    def step_model(model, provide):
        return CloudStepModel(CFG, model.base, model.gate, "always_side", "all_layers",
                              provide, itertools.count())

    def test_pending_replies_decode_as_immediate_ones(self):
        model = make_model(6, LOUD_SIDE)
        provide = local_side_provider(CFG, model.side)
        pending = self.step_model(model, lambda step, payload: lambda: provide(step, payload))
        at_once = self.step_model(model, provide)
        for prompt in prompts(10, 3) + prompts(11, 2, lo=20, hi=24):
            got = greedy_decode(pending, prompt, 12)
            want = greedy_decode(at_once, prompt, 12)
            assert (got.tokens, got.gate_trace) == (want.tokens, want.gate_trace)
        assert pending.gate_log == at_once.gate_log
        assert at_once.prefetches == 0
        assert 0 < pending.prefetch_hits < pending.prefetches == 5 * 11

    @pytest.mark.parametrize("bad", ["nan", "shape"])
    def test_a_pending_reply_is_checked(self, bad):
        def provide(step, payload):
            out = np.zeros((len(payload), CFG.d_model + (bad == "shape")))
            out[-1, 0] = np.nan if bad == "nan" else 0.0
            return lambda: out

        error = DomainError if bad == "nan" else DimensionError
        with pytest.raises(error):
            greedy_decode(self.step_model(make_model(6), provide), [1, 2], 4)


class TestFailureDuringPrefetch:
    """A device that sends ERROR or closes while the cloud runs the next
    step's forward ends the session as it would have in `recv`, and the
    cloud sends nothing after the step's BASE_HIDDENS."""

    DCFG = DecodeConfig(max_new_tokens=5, policy="always_side", wire_mode="final")

    @pytest.mark.parametrize("how", ["error", "close"])
    def test_scripted(self, how):
        def answer(msg):
            if how == "error":
                return [ErrorFrame(ErrorCode.PROTOCOL_VIOLATION, "side failed")]
            return [TransportClosed("connection closed")]

        record, transport = scripted_session(make_model(7), [1, 2], self.DCFG, answer)
        want = "device error 3: side failed" if how == "error" else "connection closed"
        assert record.error == want
        assert record.prefetches == 1 and record.prefetch_hits == 0
        assert [type(m) for m in transport.sent] == [Hello, BaseHiddens]

    @pytest.mark.parametrize("how", ["error", "close"])
    def test_over_tcp(self, how, monkeypatch):
        acted = threading.Event()
        real_forward = CloudStepModel._forward

        def forward(step_model, windows):
            if step_model.hidden_calls:  # a prefetch: the step's BASE_HIDDENS is out
                assert acted.wait(5)
            return real_forward(step_model, windows)

        monkeypatch.setattr(CloudStepModel, "_forward", forward)
        endpoint = CloudEndpoint.from_model(make_model(7), wire_mode="final", frame_timeout=5.0)
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1, 2), "always_side", "greedy", 1, 5))
        assert isinstance(dev_end.recv(timeout=5), BaseHiddens)
        after = []
        if how == "error":
            dev_end.send(ErrorFrame(ErrorCode.PROTOCOL_VIOLATION, "side failed"))
            acted.set()
            with pytest.raises(TransportClosed):
                while True:
                    after.append(dev_end.recv(timeout=5))
        else:
            dev_end.close()
            acted.set()
        t.join(timeout=10)
        assert not t.is_alive()
        record = box["record"]
        assert after == []
        assert record.prefetches == 1
        assert record.counter.frames_sent == 2  # HELLO and BASE_HIDDENS
        if how == "error":
            assert record.error == "device error 3: side failed"
        else:
            assert "closed" in record.error or "recv failed" in record.error

