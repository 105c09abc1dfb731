"""Split sessions: loopback equivalence with the monolithic decoder,
handshake rejection, accounting agreement, timeouts, TCP robustness."""

import itertools
import socket
import struct
import threading
import time

import numpy as np
import pytest

from spa.cloud import (
    MAX_BEAM_WIDTH,
    MAX_NEW_TOKENS,
    MAX_PROMPT_TOKENS,
    CloudEndpoint,
    CloudServer,
)
from spa.decoding import (
    CloudStepModel,
    DecodeConfig,
    decode_monolithic,
    local_side_provider,
    local_step_model,
    run_decode,
)
from spa.device import GenerationResult, SideBundle, run_device
from spa.checkpoint import compat_digest
from spa.model import ModelConfig, SpaModel
from spa.errors import DimensionError, DomainError, SpaError
from spa.transport import SocketTransport, TransportClosed, TransportTimeout
from spa.wire import (
    HEADER_LEN,
    POLICIES,
    PROTOCOL_VERSION,
    BaseHiddens,
    ErrorCode,
    ErrorFrame,
    Hello,
    Prompt,
    SideOutput,
    Token,
    TruncatedFrameError,
    encode_frame,
)

from conftest import tcp_pair

CFG = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=12, max_seq_len=24, side_reduction=8
)


def make_model(seed=0) -> SpaModel:
    model = SpaModel.create(CFG, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    # a random gate so spa sessions mix both paths
    model.gate["w"].data[:] = rng.standard_normal((CFG.d_model, 2)) * 0.8
    model.base.freeze()
    return model


def make_bundle(model: SpaModel) -> SideBundle:
    return SideBundle(
        config=model.config,
        side=model.side,
        digest=compat_digest(model.config, model.base_digest()),
    )


def loopback_session(model, bundle, prompt_ids, dcfg, wire_mode="final", wrap=None):
    """One session over a loopback TCP pair; `wrap`, if given, wraps the device end."""
    endpoint = CloudEndpoint.from_model(model, wire_mode=wire_mode, frame_timeout=5.0)
    dev_end, cloud_end = tcp_pair()
    record_box = {}

    def serve():
        record_box["record"] = endpoint.handle_session(cloud_end)

    t = threading.Thread(target=serve)
    t.start()
    if wrap is not None:
        dev_end = wrap(dev_end)
    result = run_device(bundle, dcfg, prompt_ids=prompt_ids, transport=dev_end, frame_timeout=5.0)
    t.join(timeout=10)
    return result, record_box["record"], endpoint


def send_raw_nan(end: SocketTransport, msg) -> None:
    """Put `msg` on the wire with its last float set to NaN, as a peer that
    skips `encode_frame`'s finiteness check would."""
    frame = bytearray(encode_frame(msg))
    struct.pack_into(">d", frame, len(frame) - 8, np.nan)
    end._sock.sendall(frame)


class FrameSpy:
    """A transport that records the chunk (gated rows) of every BASE_HIDDENS
    frame the device receives."""

    def __init__(self, inner):
        self.inner = inner
        self.chunks: list[int] = []

    @property
    def base_hiddens(self) -> int:
        return len(self.chunks)

    def recv(self, timeout=None):
        msg = self.inner.recv(timeout)
        if isinstance(msg, BaseHiddens):
            self.chunks.append(msg.hiddens.shape[1])
        return msg

    def __getattr__(self, name):
        return getattr(self.inner, name)


class StepSpy:
    """A step model that records the gate bits of every decode step."""

    def __init__(self, inner):
        self.inner = inner
        self.bits: list[list[int]] = []

    @property
    def hidden_calls(self) -> int:
        return self.inner.hidden_calls

    def logits_for(self, contexts, prefetch=False):
        logits, bits = self.inner.logits_for(contexts, prefetch)
        self.bits.append(list(bits))
        return logits, bits


class TestSplitMonolithicEquivalence:
    @pytest.mark.parametrize("wire_mode", ["final", "all_layers"])
    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 3)])
    def test_tokens_and_gate_trace_identical(self, wire_mode, strategy, width):
        model = make_model(2)
        bundle = make_bundle(model)
        rng = np.random.default_rng(7)
        for trial in range(6):
            prompt = [int(t) for t in rng.integers(0, CFG.vocab_size, size=rng.integers(1, 5))]
            dcfg = DecodeConfig(
                max_new_tokens=6, strategy=strategy, beam_width=width,
                policy="spa", wire_mode=wire_mode,
            )
            mono = decode_monolithic(model, prompt, dcfg)
            split, record, _ = loopback_session(model, bundle, prompt, dcfg, wire_mode)
            assert split.completed and split.error is None
            assert split.tokens == mono.tokens, f"trial {trial}"
            assert split.gate_trace == mono.gate_trace

    def test_base_only_policy_equals_plain_base_decoding(self):
        model = make_model(3)
        dcfg = DecodeConfig(max_new_tokens=5, policy="base_only")
        mono = decode_monolithic(model, [1, 2], dcfg)
        # independent: greedy over raw base logits
        from spa import numcore as nc
        from spa.model import base_forward

        seq = [1, 2]
        expected = []
        for _ in range(5):
            with nc.no_grad():
                trace = base_forward(CFG, model.base, seq)
            tok = int(np.argmax(trace.logits.data[-1]))
            expected.append(tok)
            seq.append(tok)
        assert mono.tokens == expected
        assert mono.gate_trace == [0] * 5


class TestHandshake:
    def test_wrong_digest_rejected_with_digest_mismatch(self):
        model = make_model(4)
        bundle = make_bundle(model)
        bad = SideBundle(bundle.config, bundle.side, "ab" * 32)
        result, record, _ = loopback_session(
            model, bad, [1], DecodeConfig(max_new_tokens=2, policy="spa")
        )
        assert not result.completed
        assert "rejected" in result.error
        assert str(ErrorCode.DIGEST_MISMATCH.value) in result.error

    def test_wrong_version_rejected(self):
        # version 1 sent one round trip per gated row with a 1-D SIDE_OUTPUT;
        # version 2 numbered the PROMPT policy byte over five policies;
        # version 3 sent each token's gate bit in a frame of its own
        model = make_model(4)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        for version in (1, 2, 3, PROTOCOL_VERSION + 5):
            dev_end, cloud_end = tcp_pair()
            t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
            t.start()
            dev_end.send(Hello(version, "final", endpoint.digest))
            reply = dev_end.recv(timeout=5)
            t.join(timeout=5)
            assert not t.is_alive()
            assert isinstance(reply, ErrorFrame), version
            assert reply.code == ErrorCode.VERSION_MISMATCH, version
            assert f"version {version} unsupported" in reply.message
            assert endpoint.sessions[-1].base_hiddens_sent == 0

    def test_prompt_before_hello_is_protocol_violation(self):
        model = make_model(4)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Prompt((1,), "spa"))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION


class TestAccounting:
    def test_base_only_session_has_no_hidden_frames(self):
        model = make_model(5)
        bundle = make_bundle(model)
        result, record, _ = loopback_session(
            model, bundle, [1, 2], DecodeConfig(max_new_tokens=10, policy="base_only")
        )
        assert result.completed
        assert record.base_hiddens_sent == 0
        assert result.counter.hidden_round_trips == 0
        assert result.counter.transmissions_per_token == 0.0

    def test_spa_hidden_frames_match_gate_log(self):
        model = make_model(6)
        bundle = make_bundle(model)
        result, record, _ = loopback_session(
            model, bundle, [3, 4], DecodeConfig(max_new_tokens=8, policy="spa")
        )
        assert result.completed
        assert record.base_hiddens_sent == sum(record.gate_log)

    def test_beam_hidden_frames_match_gate_log_including_hypothesis_steps(self):
        model = make_model(6)
        bundle = make_bundle(model)
        dcfg = DecodeConfig(max_new_tokens=5, strategy="beam", beam_width=3, policy="spa")
        spies = []

        def spy(transport):
            spies.append(FrameSpy(transport))
            return spies[-1]

        result, record, _ = loopback_session(model, bundle, [3], dcfg, wrap=spy)
        assert result.completed
        chunks = spies[0].chunks
        # every gated decision, hypothesis steps included, rides in exactly
        # one frame, and a frame carries at most one step's live hypotheses
        assert sum(chunks) == sum(record.gate_log)
        assert all(1 <= c <= 3 for c in chunks)
        assert record.base_hiddens_sent == len(chunks) == result.counter.hidden_round_trips
        assert len(chunks) <= dcfg.max_new_tokens
        assert max(chunks) > 1, "no step batched more than one gated row"
        # hypothesis expansions mean the log can be longer than the emission trace
        assert len(record.gate_log) >= len(record.emitted_trace)

    def test_two_sided_counters_agree_exactly(self):
        model = make_model(7)
        bundle = make_bundle(model)
        for policy in POLICIES:
            result, record, _ = loopback_session(
                model, bundle, [5], DecodeConfig(max_new_tokens=6, policy=policy)
            )
            assert result.completed, policy
            cloud, dev = record.counter, result.counter
            assert cloud.frames_sent == dev.frames_received
            assert cloud.frames_received == dev.frames_sent
            assert cloud.bytes_sent == dev.bytes_received
            assert cloud.bytes_received == dev.bytes_sent
            assert cloud.gate_trace == dev.gate_trace
            assert cloud.transmissions_per_token == dev.transmissions_per_token

    def test_always_side_policy_is_one_round_trip_per_token(self):
        model = make_model(8)
        bundle = make_bundle(model)
        result, record, _ = loopback_session(
            model, bundle, [2], DecodeConfig(max_new_tokens=7, policy="always_side")
        )
        assert result.counter.transmissions_per_token == 1.0
        assert record.base_hiddens_sent == len(result.tokens)


class TestProtocolViolations:
    def test_out_of_order_side_output_rejected(self):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1,), "always_side", "greedy", 1, 3))
        msg = dev_end.recv(timeout=5)
        assert isinstance(msg, BaseHiddens)
        dev_end.send(SideOutput(msg.step + 17, np.zeros((1, CFG.d_model))))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 4)])
    @pytest.mark.parametrize("extra_rows", [-1, 1])
    def test_side_output_rows_must_match_chunk(self, strategy, width, extra_rows):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1, 2), "always_side", strategy, width, 3))
        msg = dev_end.recv(timeout=5)
        assert isinstance(msg, BaseHiddens)
        chunk = msg.hiddens.shape[1]
        assert chunk == 1  # the first step has one context
        dev_end.send(SideOutput(msg.step, np.zeros((chunk + extra_rows, CFG.d_model))))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert not t.is_alive()
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION
        assert "SIDE_OUTPUT block" in reply.message
        record = box["record"]
        assert record.error and record.emitted_tokens == []

    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 4)])
    def test_non_finite_side_output_is_a_bad_frame(self, strategy, width):
        # decoding a NaN side vector would emit token 0 at every step
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "all_layers", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1, 2), "always_side", strategy, width, 3))
        msg = dev_end.recv(timeout=5)
        assert isinstance(msg, BaseHiddens)
        send_raw_nan(dev_end, SideOutput(msg.step, np.zeros((msg.hiddens.shape[1], CFG.d_model))))
        after = []
        with pytest.raises(TransportClosed):
            while True:
                after.append(dev_end.recv(timeout=5))
        t.join(timeout=5)
        assert not t.is_alive()
        assert [type(m) for m in after] == [ErrorFrame]
        assert after[0].code == ErrorCode.BAD_FRAME
        assert "NaN or infinity" in after[0].message
        record = box["record"]
        assert record.error and "NaN or infinity" in record.error
        assert record.emitted_tokens == []

    def test_out_of_vocab_prompt_rejected(self):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1, CFG.vocab_size + 3), "spa"))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION

    @staticmethod
    def refused(endpoint, prompt):
        """Send `prompt` after a good handshake; return the cloud's reply and record."""
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(prompt)
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert not t.is_alive()
        return reply, box["record"]

    def test_beam_width_outside_cap_rejected_before_any_forward(self):
        model = make_model(9)
        bundle = make_bundle(model)
        dcfg = DecodeConfig(
            max_new_tokens=2, strategy="beam", beam_width=MAX_BEAM_WIDTH, policy="base_only"
        )
        result, _, _ = loopback_session(model, bundle, [1], dcfg)
        assert result.completed and result.error is None
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        for width in (MAX_BEAM_WIDTH + 1, 0):
            reply, record = self.refused(endpoint, Prompt((1,), "always_side", "beam", width, 3))
            assert isinstance(reply, ErrorFrame), width
            assert reply.code == ErrorCode.PROTOCOL_VIOLATION, width
            assert record.gate_log == []

    def test_prompt_outside_caps_rejected_before_any_forward(self):
        model = make_model(9)
        bundle = make_bundle(model)
        at_cap = [1 + i % (CFG.vocab_size - 1) for i in range(MAX_PROMPT_TOKENS)]
        dcfg = DecodeConfig(max_new_tokens=MAX_NEW_TOKENS, policy="base_only")
        result, record, _ = loopback_session(model, bundle, at_cap, dcfg)
        assert result.completed and result.error is None
        assert record.prompt_len == MAX_PROMPT_TOKENS
        assert len(result.tokens) == MAX_NEW_TOKENS
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        for ids, max_new in (((1,) * (MAX_PROMPT_TOKENS + 1), 3), ((1,), MAX_NEW_TOKENS + 1)):
            reply, record = self.refused(endpoint, Prompt(ids, "always_side", "greedy", 1, max_new))
            assert isinstance(reply, ErrorFrame), (len(ids), max_new)
            assert reply.code == ErrorCode.PROTOCOL_VIOLATION, (len(ids), max_new)
            assert record.gate_log == [] and record.emitted_tokens == []

    def test_policy_byte_past_the_table_is_bad_frame(self):
        # byte len(POLICIES) named base_only in version 3 and names nothing now
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        server = CloudServer(endpoint).start()
        try:
            raw = socket.create_connection(server.address, timeout=5)
            dev_end = SocketTransport(raw)
            try:
                dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
                assert isinstance(dev_end.recv(timeout=5), Hello)
                frame = bytearray(encode_frame(Prompt((1,), "spa")))
                policy_at = HEADER_LEN + 4 + 4  # after the id count and the one id
                assert frame[policy_at] == POLICIES.index("spa")
                frame[policy_at] = len(POLICIES)
                raw.sendall(bytes(frame))
                reply = dev_end.recv(timeout=5)
            finally:
                dev_end.close()
        finally:
            server.shutdown()
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.BAD_FRAME
        assert "policy" in reply.message
        (record,) = endpoint.sessions
        assert record.gate_log == [] and record.emitted_trace == []

    @staticmethod
    def frames_until_close(dev_end):
        after = []
        with pytest.raises(TransportClosed):
            while True:
                after.append(dev_end.recv(timeout=5))
        return after

    def test_unexpected_error_in_a_session_is_answered_with_internal(self, monkeypatch):
        def broken(self, contexts, prefetch=False):
            raise DomainError("logits out of range")

        monkeypatch.setattr(CloudStepModel, "logits_for", broken)
        endpoint = CloudEndpoint.from_model(make_model(9), frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1, 2), "spa", "greedy", 1, 3))
        after = self.frames_until_close(dev_end)
        t.join(timeout=5)
        assert not t.is_alive()
        assert after == [ErrorFrame(ErrorCode.INTERNAL, "logits out of range")]
        assert box["record"].error == "logits out of range"

    @pytest.mark.parametrize("stage", ["HELLO", "PROMPT", "SIDE_OUTPUT"])
    def test_error_from_the_device_is_not_answered(self, stage):
        endpoint = CloudEndpoint.from_model(make_model(9), frame_timeout=2.0)
        dev_end, cloud_end = tcp_pair()
        box = {}
        t = threading.Thread(target=lambda: box.update(record=endpoint.handle_session(cloud_end)))
        t.start()
        if stage != "HELLO":
            dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
            assert isinstance(dev_end.recv(timeout=5), Hello)
        if stage == "SIDE_OUTPUT":
            dev_end.send(Prompt((1, 2), "always_side", "greedy", 1, 3))
            assert isinstance(dev_end.recv(timeout=5), BaseHiddens)
        # the frame in place of `stage`
        dev_end.send(ErrorFrame(ErrorCode.PROTOCOL_VIOLATION, "no side network here"))
        after = self.frames_until_close(dev_end)
        t.join(timeout=5)
        assert not t.is_alive()
        assert after == []
        record = box["record"]
        assert record.error == (
            f"device error {ErrorCode.PROTOCOL_VIOLATION.value}: no side network here"
        )
        assert record.emitted_tokens == []
        assert record.counter.frames_received == dev_end.frames_sent


class TestDeviceSideValidation:
    def test_device_rejects_regressed_step_index(self):
        model = make_model(16)
        bundle = make_bundle(model)
        dev_end, fake_cloud = tcp_pair()

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, "final", bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            fake_cloud.send(Token(5, 1, 1))
            fake_cloud.send(Token(3, 1, 0))  # step goes backwards

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="spa"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=5.0,
        )
        t.join(timeout=10)
        assert not result.completed
        assert "out-of-order" in result.error
        assert (result.tokens, result.gate_trace) == ([1], [1])

    @pytest.mark.parametrize("stage", ["handshake", "mid-session"])
    def test_unexpected_frame_is_answered_with_protocol_violation(self, stage):
        bundle = make_bundle(make_model(16))
        dev_end, fake_cloud = tcp_pair()
        replies = []

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            if stage == "mid-session":
                fake_cloud.send(Hello(PROTOCOL_VERSION, "final", bundle.digest))
                assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            fake_cloud.send(Prompt((1,), "spa"))  # a frame no cloud sends
            replies.append(fake_cloud.recv(timeout=5))

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="spa"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=5.0,
        )
        t.join(timeout=10)
        assert not t.is_alive()
        assert not result.completed
        (refusal,) = replies
        assert refusal == ErrorFrame(ErrorCode.PROTOCOL_VIOLATION, result.error)
        want = "expected HELLO" if stage == "handshake" else "unexpected frame Prompt"
        assert want in result.error

    def test_cloud_error_after_tokens_leaves_each_token_with_its_gate_bit(self):
        # version 3 sent a gate bit and its token in two frames, so a session
        # that ended between them left one more bit than tokens, and reading
        # M raised ContractError
        bundle = make_bundle(make_model(16))
        dev_end, fake_cloud = tcp_pair()

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, "final", bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            fake_cloud.send(Token(0, 3, 1))
            fake_cloud.send(Token(1, 5, 0))
            fake_cloud.send(ErrorFrame(ErrorCode.INTERNAL, "boom"))

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="spa"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=5.0,
        )
        t.join(timeout=10)
        assert not t.is_alive()
        assert not result.completed
        assert result.error == f"cloud error {ErrorCode.INTERNAL.value}: boom"
        assert (result.tokens, result.gate_trace) == ([3, 5], [1, 0])
        assert len(result.gate_trace) == len(result.tokens)
        assert result.counter.transmissions_per_token == 0.5

    @pytest.mark.parametrize("chunk", [0, 3])
    def test_base_hiddens_chunk_other_than_one_is_protocol_violation(self, chunk):
        model = make_model(17)
        bundle = make_bundle(model)
        dev_end, fake_cloud = tcp_pair()
        replies = []

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, "all_layers", bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            rows = np.ones((CFG.n_layers, chunk, CFG.d_model))
            fake_cloud.send(BaseHiddens(0, rows))
            replies.append(fake_cloud.recv(timeout=5))

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="always_side"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=2.0,
        )
        t.join(timeout=10)
        assert not result.completed
        assert f"chunk {chunk}" in result.error
        assert result.counter.hidden_round_trips == 0
        assert isinstance(replies[0], ErrorFrame)
        assert replies[0].code == ErrorCode.PROTOCOL_VIOLATION

    @pytest.mark.parametrize("wire_mode", ["final", "all_layers"])
    def test_base_hiddens_chunk_is_bounded_by_the_prompted_beam_width(self, wire_mode):
        model = make_model(17)
        bundle = make_bundle(model)
        dev_end, fake_cloud = tcp_pair()
        width, rows = 4, 1 if wire_mode == "final" else CFG.n_layers
        block = np.random.default_rng(2).standard_normal((rows, width + 1, CFG.d_model))
        replies = []

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, wire_mode, bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            fake_cloud.send(BaseHiddens(0, block[:, :width]))  # at the bound: answered
            replies.append(fake_cloud.recv(timeout=5))
            fake_cloud.send(BaseHiddens(1, block))  # one row past it
            replies.append(fake_cloud.recv(timeout=5))

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, strategy="beam", beam_width=width, policy="always_side"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=2.0,
        )
        t.join(timeout=10)
        assert not t.is_alive()
        answer, refusal = replies
        assert isinstance(answer, SideOutput) and answer.step == 0
        want = local_side_provider(CFG, bundle.side)(0, block[:, :width].transpose(1, 0, 2))
        assert answer.vectors.shape == (width, CFG.d_model)
        assert answer.vectors.tobytes() == want.tobytes()
        assert isinstance(refusal, ErrorFrame)
        assert refusal.code == ErrorCode.PROTOCOL_VIOLATION
        assert not result.completed
        assert f"chunk {width + 1} outside 1..{width}" in result.error
        assert result.counter.hidden_round_trips == 1

    @pytest.mark.parametrize("wire_mode, shape", [
        ("all_layers", (1, 1, CFG.d_model + 1)),
        ("final", (1, 1, CFG.d_model + 1)),
        ("all_layers", (CFG.n_layers, 1, CFG.d_model + 1)),
        ("all_layers", (1, 1, CFG.d_model)),
        ("all_layers", (CFG.n_layers + 1, 1, CFG.d_model)),
        ("final", (CFG.n_layers, 1, CFG.d_model)),
    ])
    def test_base_hiddens_of_the_wrong_shape_is_protocol_violation(self, wire_mode, shape):
        bundle = make_bundle(make_model(17))
        dev_end, fake_cloud = tcp_pair()
        replies = []

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, wire_mode, bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            fake_cloud.send(BaseHiddens(0, np.ones(shape)))
            replies.append(fake_cloud.recv(timeout=5))
            try:
                fake_cloud.recv(timeout=5)
            except TransportClosed:
                replies.append("closed")

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="always_side"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=2.0,
        )
        t.join(timeout=10)
        assert not t.is_alive()
        refusal, closed = replies
        assert isinstance(refusal, ErrorFrame)
        assert refusal.code == ErrorCode.PROTOCOL_VIOLATION
        assert f"BASE_HIDDENS of shape {shape}" in refusal.message
        assert closed == "closed"
        assert not result.completed
        assert f"BASE_HIDDENS of shape {shape}" in result.error
        assert result.counter.hidden_round_trips == 0

    def test_non_finite_base_hiddens_get_no_side_output(self):
        bundle = make_bundle(make_model(17))
        dev_end, fake_cloud = tcp_pair()
        replies = []

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, "all_layers", bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            send_raw_nan(fake_cloud, BaseHiddens(0, np.ones((CFG.n_layers, 1, CFG.d_model))))
            try:
                replies.append(fake_cloud.recv(timeout=5))
            except TransportClosed:
                replies.append("closed")

        t = threading.Thread(target=impostor)
        t.start()
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=4, policy="always_side"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=2.0,
        )
        t.join(timeout=10)
        assert not t.is_alive()
        assert replies == ["closed"]
        assert not result.completed
        assert "NaN or infinity" in result.error
        assert result.counter.hidden_round_trips == 0


class TestStepModelChecksSideBlocks:
    """An in-process provider's block is checked as the wire checks a
    SIDE_OUTPUT: a non-finite or misshapen block raises, where it used to
    decode token 0 at every step."""

    @staticmethod
    def _decode(provide, strategy):
        model = make_model(22)
        step_model = CloudStepModel(
            CFG, model.base, model.gate, "always_side", "all_layers", provide, itertools.count()
        )
        dcfg = DecodeConfig(max_new_tokens=5, strategy=strategy, beam_width=2, policy="always_side")
        return run_decode(step_model, [1, 2, 3], dcfg, CFG.vocab_size)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_raises(self, strategy, bad):
        def provide(step, payload):
            out = np.zeros((len(payload), CFG.d_model))
            out[-1, 3] = bad
            return out

        with pytest.raises(DomainError, match="non-finite"):
            self._decode(provide, strategy)

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    @pytest.mark.parametrize("shape", ["wide", "flat", "extra_row"])
    def test_misshapen_block_raises(self, strategy, shape):
        def provide(step, payload):
            g, d = len(payload), CFG.d_model
            return np.zeros({"wide": (g, d + 1), "flat": (g * d,), "extra_row": (g + 1, d)}[shape])

        with pytest.raises(DimensionError, match="side provider returned a block of shape"):
            self._decode(provide, strategy)

    def test_finite_block_of_the_right_shape_decodes(self):
        outcome = self._decode(lambda step, payload: np.zeros((len(payload), CFG.d_model)), "greedy")
        assert len(outcome.tokens) == 5 and outcome.hidden_calls == 5

    @pytest.mark.parametrize("strategy", ["greedy", "beam"])
    def test_decode_monolithic_with_a_nan_side_network_raises(self, strategy):
        model = make_model(23)
        model.side["up.b"].data[:] = np.nan
        dcfg = DecodeConfig(max_new_tokens=5, strategy=strategy, beam_width=2, policy="always_side")
        with pytest.raises(DomainError):
            decode_monolithic(model, [1, 2, 3], dcfg)
        # base_only never consults the side network, so it still decodes
        base_only = DecodeConfig(max_new_tokens=5, strategy=strategy, beam_width=2, policy="base_only")
        assert len(decode_monolithic(model, [1, 2, 3], base_only).tokens) == 5


class TestDeviceClosesItsTransport:
    @pytest.mark.parametrize("case", ["text_prompt", "prompt_out_of_range"])
    def test_cloud_end_sees_the_close_at_once(self, case):
        bundle = make_bundle(make_model(21))  # a 12-token vocabulary, not bytes
        dev_end, cloud_end = tcp_pair()
        prompt = {"prompt_text": "hi"} if case == "text_prompt" else {"prompt_ids": [1]}
        dcfg = DecodeConfig(max_new_tokens=70000 if case == "prompt_out_of_range" else 2)
        with pytest.raises(SpaError):
            run_device(bundle, dcfg, transport=dev_end, **prompt)
        start = time.perf_counter()
        with pytest.raises(TransportClosed):
            cloud_end.recv(timeout=5.0)
        assert time.perf_counter() - start < 1.0


class TestTimeout:
    def test_device_reports_partial_output_on_timeout(self):
        model = make_model(12)
        bundle = make_bundle(model)
        dev_end, _cloud_end = tcp_pair()  # nobody serves
        result = run_device(
            bundle,
            DecodeConfig(max_new_tokens=3, policy="spa"),
            prompt_ids=[1],
            transport=dev_end,
            frame_timeout=0.2,
        )
        assert not result.completed
        assert "timeout" in result.error
        assert result.tokens == []


class TestBufferedReader:
    """`SocketTransport.recv` parses frames out of what it has read, however
    the bytes were cut on the way."""

    def test_frame_written_one_byte_at_a_time_is_returned_whole(self):
        near, far = tcp_pair()
        msg = Hello(PROTOCOL_VERSION, "final", "ab" * 32)
        frame = encode_frame(msg)

        def trickle():
            for i in range(len(frame)):
                near._sock.sendall(frame[i:i + 1])
                time.sleep(0.001)

        t = threading.Thread(target=trickle)
        t.start()
        assert far.recv(timeout=5) == msg
        t.join(timeout=5)
        assert (far.frames_received, far.bytes_received) == (1, len(frame))

    def test_two_frames_in_one_write_come_back_from_two_recv_calls(self):
        near, far = tcp_pair()
        first, second = Token(0, 5, 1), SideOutput(1, np.arange(6.0).reshape(2, 3))
        frames = encode_frame(first), encode_frame(second)
        near._sock.sendall(b"".join(frames))
        near.close()
        assert far.recv(timeout=5) == first
        assert (far.frames_received, far.bytes_received) == (1, len(frames[0]))
        assert far.recv(timeout=5) == second
        assert (far.frames_received, far.bytes_received) == (2, len(frames[0]) + len(frames[1]))
        with pytest.raises(TransportClosed):
            far.recv(timeout=5)

    @pytest.mark.parametrize("cut", [2, 7])
    def test_timeout_mid_frame_keeps_the_bytes_read(self, cut):
        near, far = tcp_pair()
        msg = SideOutput(4, np.arange(6.0).reshape(2, 3))
        frame = encode_frame(msg)
        near._sock.sendall(frame[:cut])
        with pytest.raises(TransportTimeout):
            far.recv(timeout=0.2)
        near._sock.sendall(frame[cut:])
        assert far.recv(timeout=5) == msg
        assert (far.frames_received, far.bytes_received) == (1, len(frame))

    @pytest.mark.parametrize("cut", [2, 7])
    def test_close_mid_frame_is_a_truncated_frame(self, cut):
        near, far = tcp_pair()
        near._sock.sendall(encode_frame(Token(0, 5, 1))[:cut])
        near.close()
        with pytest.raises(TruncatedFrameError):
            far.recv(timeout=5)
        assert far.frames_received == 0


class TestOverTcp:
    def test_full_session_and_concurrent_clients(self):
        model = make_model(13)
        bundle = make_bundle(model)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=5.0)
        server = CloudServer(endpoint).start()
        try:
            host, port = server.address
            dcfg = DecodeConfig(max_new_tokens=5, policy="spa")
            expected = decode_monolithic(model, [1, 2], dcfg)
            results: list[GenerationResult] = []

            def client():
                results.append(
                    run_device(bundle, dcfg, prompt_ids=[1, 2], connect=(host, port))
                )

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert len(results) == 3
            for r in results:
                assert r.completed and r.error is None
                assert r.tokens == expected.tokens
                assert r.gate_trace == expected.gate_trace
        finally:
            server.shutdown()

    def test_garbage_bytes_get_error_frame_not_crash(self):
        model = make_model(14)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        server = CloudServer(endpoint).start()
        try:
            host, port = server.address
            raw = socket.create_connection((host, port), timeout=5)
            raw.sendall(b"\x00\x00\x00\x05\x63hello")  # unknown type 0x63
            tr = SocketTransport(raw)
            reply = tr.recv(timeout=5)
            assert isinstance(reply, ErrorFrame)
            assert reply.code in (ErrorCode.BAD_FRAME, ErrorCode.PROTOCOL_VIOLATION)
            tr.close()
            # server stays alive for the next client
            result = run_device(
                make_bundle(model),
                DecodeConfig(max_new_tokens=2, policy="base_only"),
                prompt_ids=[1],
                connect=(host, port),
            )
            assert result.completed
        finally:
            server.shutdown()

    def test_oversize_header_gets_oversize_error(self):
        import struct

        model = make_model(15)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        server = CloudServer(endpoint).start()
        try:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5) as raw:
                raw.sendall(struct.pack(">I", 2**31) + b"\x01")
                reply = SocketTransport(raw).recv(timeout=5)
            assert isinstance(reply, ErrorFrame)
            assert reply.code == ErrorCode.OVERSIZE
        finally:
            server.shutdown()

    def test_random_byte_fuzzing_never_kills_the_server(self):
        model = make_model(17)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=0.5)
        server = CloudServer(endpoint).start()
        rng = np.random.default_rng(99)
        try:
            host, port = server.address
            for _ in range(20):
                raw = socket.create_connection((host, port), timeout=5)
                raw.sendall(rng.bytes(int(rng.integers(1, 200))))
                raw.close()
            result = run_device(
                make_bundle(model),
                DecodeConfig(max_new_tokens=3, policy="spa"),
                prompt_ids=[1],
                connect=(host, port),
            )
            assert result.completed and result.error is None
        finally:
            server.shutdown()

    def test_truncated_frame_then_disconnect_keeps_server_alive(self):
        import struct

        model = make_model(16)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=1.0)
        server = CloudServer(endpoint).start()
        try:
            host, port = server.address
            raw = socket.create_connection((host, port), timeout=5)
            raw.sendall(struct.pack(">I", 400) + b"\x01" + b"only-a-few-bytes")
            raw.close()  # peer vanishes mid-frame
            result = run_device(
                make_bundle(model),
                DecodeConfig(max_new_tokens=3, policy="base_only"),
                prompt_ids=[2],
                connect=(host, port),
            )
            assert result.completed and result.error is None
            truncated = [s for s in server.sessions if s.error]
            assert truncated, "mid-frame disconnect must be recorded, not crash"
        finally:
            server.shutdown()

    def test_both_ends_set_tcp_nodelay(self):
        model = make_model(18)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        seen = []
        handle = endpoint.handle_session

        def spy(transport):
            seen.append(transport._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            return handle(transport)

        endpoint.handle_session = spy
        server = CloudServer(endpoint).start()
        try:
            host, port = server.address
            client = SocketTransport.connect(host, port, timeout=5)
            try:
                assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                client.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
                assert isinstance(client.recv(timeout=5), Hello)
            finally:
                client.close()
            assert len(seen) == 1 and seen[0]
        finally:
            server.shutdown()

    @pytest.mark.parametrize("policy", ["always_side", "spa"])
    @pytest.mark.parametrize("strategy,width", [("greedy", 1), ("beam", 3)])
    def test_round_trips_per_token_counts_base_hiddens_frames(self, policy, strategy, width):
        model = make_model(20)
        bundle = make_bundle(model)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=5.0)
        server = CloudServer(endpoint).start()
        try:
            spy = FrameSpy(SocketTransport.connect(*server.address, timeout=5))
            dcfg = DecodeConfig(max_new_tokens=8, strategy=strategy, beam_width=width, policy=policy)
            result = run_device(bundle, dcfg, prompt_ids=[1, 2], transport=spy, frame_timeout=5.0)
            assert result.completed and result.error is None
            assert spy.base_hiddens > 0
            per_token = spy.base_hiddens / len(result.tokens)
            assert result.counter.round_trips_per_token == per_token
            deadline = time.monotonic() + 5
            while server.sessions[-1].counter is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.sessions[-1].counter.round_trips_per_token == per_token
            if strategy == "greedy":
                assert per_token == result.counter.transmissions_per_token
            else:
                # one frame per gated step carries every gated live hypothesis,
                # so a step costs at most one round trip; the emitted
                # hypothesis is one of them, so M cannot exceed the count
                assert result.counter.transmissions_per_token <= per_token <= 1.0
                assert sum(spy.chunks) == sum(server.sessions[-1].gate_log)
                if policy == "always_side":
                    assert per_token == result.counter.transmissions_per_token == 1.0
                    assert max(spy.chunks) == width
        finally:
            server.shutdown()

    @pytest.mark.parametrize("policy", ["spa", "always_side"])
    def test_beam4_makes_one_round_trip_per_gated_step(self, policy):
        model = make_model(22)
        bundle = make_bundle(model)
        dcfg = DecodeConfig(max_new_tokens=10, strategy="beam", beam_width=4, policy=policy)
        prompt = [3, 1, 4]
        steps = StepSpy(local_step_model(model, policy, dcfg.wire_mode))
        mono = decode_monolithic(model, prompt, dcfg)
        spied = run_decode(steps, prompt, dcfg, CFG.vocab_size)
        assert (spied.tokens, spied.gate_trace) == (mono.tokens, mono.gate_trace)
        gated_steps = [sum(bits) for bits in steps.bits if any(bits)]
        endpoint = CloudEndpoint.from_model(model, frame_timeout=5.0)
        server = CloudServer(endpoint).start()
        try:
            spy = FrameSpy(SocketTransport.connect(*server.address, timeout=5))
            result = run_device(bundle, dcfg, prompt_ids=prompt, transport=spy, frame_timeout=5.0)
            assert result.completed and result.error is None
            deadline = time.monotonic() + 5
            while server.sessions[-1].counter is None and time.monotonic() < deadline:
                time.sleep(0.01)
            record = server.sessions[-1]
            cloud, dev = record.counter, result.counter
        finally:
            server.shutdown()
        assert result.tokens == mono.tokens and result.gate_trace == mono.gate_trace
        assert record.gate_log == mono.gate_log == [b for bits in steps.bits for b in bits]
        # one frame per step with a gated row, carrying exactly that step's gated rows
        assert spy.chunks == gated_steps
        assert dev.hidden_round_trips == len(gated_steps) <= len(steps.bits)
        assert dev.hidden_round_trips == mono.counter.hidden_round_trips
        if policy == "always_side":
            assert len(gated_steps) == len(steps.bits)
        assert cloud.frames_sent == dev.frames_received
        assert cloud.frames_received == dev.frames_sent
        assert cloud.bytes_sent == dev.bytes_received
        assert cloud.bytes_received == dev.bytes_sent
        assert cloud.hidden_round_trips == dev.hidden_round_trips
        assert cloud.gate_trace == dev.gate_trace

    def test_gated_round_trips_do_not_stall(self):
        # every token of an always_side session is one BASE_HIDDENS/SIDE_OUTPUT
        # round trip, and the cloud writes the previous token's TOKEN frame
        # and the next BASE_HIDDENS back to back before it reads; with Nagle's
        # algorithm on, each of the 24 waits ~40 ms for a delayed ACK
        model = make_model(19)
        bundle = make_bundle(model)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=5.0)
        server = CloudServer(endpoint).start()
        try:
            dcfg = DecodeConfig(max_new_tokens=24, policy="always_side")
            start = time.perf_counter()
            result = run_device(bundle, dcfg, prompt_ids=[1, 2], connect=server.address)
            elapsed = time.perf_counter() - start
            assert result.completed and result.error is None
            assert len(result.tokens) == 24
            assert result.counter.hidden_round_trips == 24
            assert elapsed < 0.5, f"24 gated round trips took {elapsed:.3f} s"
            deadline = time.monotonic() + 5
            while server.sessions[-1].counter is None and time.monotonic() < deadline:
                time.sleep(0.01)
            cloud, dev = server.sessions[-1].counter, result.counter
            assert cloud.frames_sent == dev.frames_received
            assert cloud.frames_received == dev.frames_sent
            assert cloud.bytes_sent == dev.bytes_received
            assert cloud.bytes_received == dev.bytes_sent
        finally:
            server.shutdown()


class TestServerLimits:
    def test_a_burst_of_connects_is_queued_not_dropped(self):
        # past a listen backlog of 5 the kernel drops SYNs, and each dropped
        # connect waits out the 1 s SYN retransmit
        endpoint = CloudEndpoint.from_model(make_model(23), frame_timeout=0.5)
        server = CloudServer(endpoint).start()
        try:
            start = time.perf_counter()
            for _ in range(20):
                with socket.create_connection(server.address, timeout=5) as raw:
                    raw.sendall(b"\x00\x00")
            elapsed = time.perf_counter() - start
        finally:
            server.shutdown()
        assert elapsed < 0.5, f"20 connects took {elapsed:.3f} s"

    def test_shutdown_of_an_idle_server_does_not_wait_out_a_long_poll(self):
        server = CloudServer(CloudEndpoint.from_model(make_model(24))).start()
        time.sleep(0.1)  # the loop is inside its poll
        start = time.perf_counter()
        server.shutdown()
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25, f"shutdown took {elapsed:.3f} s"
        assert not server._thread.is_alive()

    def test_shutdown_of_a_server_never_started_returns(self):
        server = CloudServer(CloudEndpoint.from_model(make_model(25)))
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive(), "shutdown() of a server that never ran blocked"
        assert server.socket.fileno() == -1
