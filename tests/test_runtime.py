"""Split sessions: loopback equivalence with the monolithic decoder,
handshake rejection, accounting agreement, timeouts, TCP robustness."""

import socket
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
from spa.decoding import DecodeConfig, decode_monolithic
from spa.device import GenerationResult, SideBundle, run_device
from spa.checkpoint import compat_digest
from spa.model import ModelConfig, SpaModel
from spa.transport import LoopbackTransport, SocketTransport
from spa.wire import (
    PROTOCOL_VERSION,
    BaseHiddens,
    ErrorCode,
    ErrorFrame,
    Hello,
    Prompt,
    SideOutput,
)

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
    cache = {
        "tok_emb": model.base["tok_emb"].data,
        "pos_emb": model.base["pos_emb"].data,
        "out_proj": model.base["out_proj"].data,
    }
    return SideBundle(
        config=model.config,
        side=model.side,
        cache=cache,
        digest=compat_digest(model.config, model.base_digest()),
    )


def loopback_session(model, bundle, prompt_ids, dcfg, wire_mode="final"):
    endpoint = CloudEndpoint.from_model(model, wire_mode=wire_mode, frame_timeout=5.0)
    dev_end, cloud_end = LoopbackTransport.pair()
    record_box = {}

    def serve():
        record_box["record"] = endpoint.handle_session(cloud_end)

    t = threading.Thread(target=serve)
    t.start()
    result = run_device(bundle, dcfg, prompt_ids=prompt_ids, transport=dev_end, frame_timeout=5.0)
    t.join(timeout=10)
    return result, record_box["record"], endpoint


class FrameSpy:
    """A transport that counts the BASE_HIDDENS frames the device receives."""

    def __init__(self, inner):
        self.inner = inner
        self.base_hiddens = 0

    def recv(self, timeout=None):
        msg = self.inner.recv(timeout)
        self.base_hiddens += isinstance(msg, BaseHiddens)
        return msg

    def __getattr__(self, name):
        return getattr(self.inner, name)


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
        bad = SideBundle(bundle.config, bundle.side, bundle.cache, "ab" * 32)
        result, record, _ = loopback_session(
            model, bad, [1], DecodeConfig(max_new_tokens=2, policy="spa")
        )
        assert not result.completed
        assert "rejected" in result.error
        assert str(ErrorCode.DIGEST_MISMATCH.value) in result.error

    def test_wrong_version_rejected(self):
        model = make_model(4)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = LoopbackTransport.pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION + 5, "final", endpoint.digest))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.VERSION_MISMATCH

    def test_prompt_before_hello_is_protocol_violation(self):
        model = make_model(4)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = LoopbackTransport.pair()
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
        result, record, _ = loopback_session(model, bundle, [3], dcfg)
        assert result.completed
        assert record.base_hiddens_sent == sum(record.gate_log)
        # hypothesis expansions mean the log can be longer than the emission trace
        assert len(record.gate_log) >= len(record.emitted_trace)

    def test_two_sided_counters_agree_exactly(self):
        model = make_model(7)
        bundle = make_bundle(model)
        for policy in ("spa", "lst", "always_side", "base_only"):
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

    def test_lst_policy_is_one_round_trip_per_token(self):
        model = make_model(8)
        bundle = make_bundle(model)
        result, record, _ = loopback_session(
            model, bundle, [2], DecodeConfig(max_new_tokens=7, policy="lst")
        )
        assert result.counter.transmissions_per_token == 1.0
        assert record.base_hiddens_sent == len(result.tokens)


class TestProtocolViolations:
    def test_out_of_order_side_output_rejected(self):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = LoopbackTransport.pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1,), "always_side", "greedy", 1, 3))
        msg = dev_end.recv(timeout=5)
        assert isinstance(msg, BaseHiddens)
        dev_end.send(SideOutput(msg.step + 17, np.zeros(CFG.d_model)))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION

    def test_out_of_vocab_prompt_rejected(self):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = LoopbackTransport.pair()
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
        dev_end, cloud_end = LoopbackTransport.pair()
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

    def test_device_only_prompt_rejected_by_cloud(self):
        model = make_model(9)
        endpoint = CloudEndpoint.from_model(model, frame_timeout=2.0)
        dev_end, cloud_end = LoopbackTransport.pair()
        t = threading.Thread(target=endpoint.handle_session, args=(cloud_end,))
        t.start()
        dev_end.send(Hello(PROTOCOL_VERSION, "final", endpoint.digest))
        assert isinstance(dev_end.recv(timeout=5), Hello)
        dev_end.send(Prompt((1,), "device_only"))
        reply = dev_end.recv(timeout=5)
        t.join(timeout=5)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == ErrorCode.PROTOCOL_VIOLATION


class TestDeviceSideValidation:
    def test_device_rejects_regressed_step_index(self):
        model = make_model(16)
        bundle = make_bundle(model)
        dev_end, fake_cloud = LoopbackTransport.pair()

        def impostor():
            assert isinstance(fake_cloud.recv(timeout=5), Hello)
            fake_cloud.send(Hello(PROTOCOL_VERSION, "final", bundle.digest))
            assert isinstance(fake_cloud.recv(timeout=5), Prompt)
            from spa.wire import GateDecision, Token

            fake_cloud.send(GateDecision(5, 1))
            fake_cloud.send(Token(3, 1))  # step goes backwards

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


class TestDeviceOnly:
    def test_runs_without_any_connection(self):
        model = make_model(10)
        bundle = make_bundle(model)
        dcfg = DecodeConfig(max_new_tokens=5, policy="device_only")
        result = run_device(bundle, dcfg, prompt_ids=[1, 2])
        assert result.completed
        assert len(result.tokens) == 5
        assert result.counter.transmissions_per_token == 0.0
        assert result.counter.frames_sent == 0

    def test_matches_monolithic_device_only(self):
        model = make_model(11)
        bundle = make_bundle(model)
        dcfg = DecodeConfig(max_new_tokens=6, policy="device_only")
        mono = decode_monolithic(model, [3], dcfg)
        dev = run_device(bundle, dcfg, prompt_ids=[3])
        assert dev.tokens == mono.tokens


class TestTimeout:
    def test_device_reports_partial_output_on_timeout(self):
        model = make_model(12)
        bundle = make_bundle(model)
        dev_end, _cloud_end = LoopbackTransport.pair()  # nobody serves
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
            raw = socket.create_connection((host, port), timeout=5)
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
            elif policy == "always_side":
                # every live hypothesis consults the side, not only the emitted one
                assert per_token > result.counter.transmissions_per_token == 1.0
        finally:
            server.shutdown()

    def test_gated_round_trips_do_not_stall(self):
        # every token of an always_side session is one BASE_HIDDENS/SIDE_OUTPUT
        # round trip followed by two small frames (GATE_DECISION, TOKEN); with
        # Nagle's algorithm on, each of the 24 waits ~40 ms for a delayed ACK
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
