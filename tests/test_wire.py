"""Frame codec: round trips, truncation, oversize, malformed payloads."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa.wire import (
    HEADER_LEN,
    MAX_PAYLOAD,
    POLICIES,
    BadFrameError,
    BaseHiddens,
    Eos,
    ErrorFrame,
    GateDecision,
    Hello,
    MsgType,
    OversizeFrameError,
    Prompt,
    SideOutput,
    Token,
    TruncatedFrameError,
    decode_frame,
    encode_frame,
)


def random_message(rng: np.random.Generator):
    kind = rng.integers(0, 8)
    if kind == 0:
        return Hello(int(rng.integers(0, 10)), ["final", "all_layers"][rng.integers(2)],
                     rng.bytes(32).hex())
    if kind == 1:
        n = int(rng.integers(1, 30))
        return Prompt(
            token_ids=tuple(int(t) for t in rng.integers(0, 60000, size=n)),
            policy=POLICIES[rng.integers(len(POLICIES))],
            strategy=["greedy", "beam"][rng.integers(2)],
            beam_width=int(rng.integers(1, 64)),
            max_new_tokens=int(rng.integers(1, 500)),
        )
    if kind == 2:
        layers, chunk, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 40))
        return BaseHiddens(int(rng.integers(0, 1_000_000)), rng.standard_normal((layers, chunk, d)))
    if kind == 3:
        return GateDecision(int(rng.integers(0, 1_000_000)), int(rng.integers(0, 2)))
    if kind == 4:
        return SideOutput(int(rng.integers(0, 1_000_000)), rng.standard_normal(int(rng.integers(1, 80))))
    if kind == 5:
        return Token(int(rng.integers(0, 1_000_000)), int(rng.integers(0, 70000)))
    if kind == 6:
        return Eos()
    return ErrorFrame(int(rng.integers(0, 7)), "boom " * int(rng.integers(0, 5)))


class TestRoundTrip:
    def test_every_variant_round_trips(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            msg = random_message(rng)
            seen.add(type(msg).__name__)
            decoded, consumed = decode_frame(encode_frame(msg))
            assert decoded == msg
            assert consumed == len(encode_frame(msg))
        assert len(seen) == 8  # all variants exercised

    def test_header_is_big_endian_payload_length_then_type(self):
        frame = encode_frame(Token(3, 9))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - HEADER_LEN
        assert frame[4] == MsgType.TOKEN

    def test_float_payload_is_bit_exact(self):
        vec = np.array([1e-308, -0.0, np.pi, 1e308])
        decoded, _ = decode_frame(encode_frame(SideOutput(1, vec)))
        assert decoded.vector.tobytes() == vec.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_token_round_trip_property(self, step, tok):
        decoded, _ = decode_frame(encode_frame(Token(step, tok)))
        assert decoded == Token(step, tok)


class TestRobustness:
    def test_truncated_frames_raise_truncation(self):
        frame = encode_frame(Hello(1, "final", "00" * 32))
        for cut in range(len(frame)):
            with pytest.raises(TruncatedFrameError):
                decode_frame(frame[:cut])

    def test_oversize_declared_length_rejected_without_reading_body(self):
        header = struct.pack(">I", MAX_PAYLOAD + 1) + bytes([MsgType.TOKEN])
        with pytest.raises(OversizeFrameError):
            decode_frame(header)

    def test_oversize_rejected_on_encode_too(self):
        big = BaseHiddens(0, np.zeros((64, 1, 65535)))  # ~32 MiB of floats
        with pytest.raises(OversizeFrameError):
            encode_frame(big)

    def test_unknown_type_rejected(self):
        frame = struct.pack(">I", 0) + bytes([99])
        with pytest.raises(BadFrameError):
            decode_frame(frame)

    def test_wrong_payload_length_rejected(self):
        body = struct.pack(">IB", 7, 1) + b"xx"  # GATE_DECISION with 2 extra bytes
        frame = struct.pack(">I", len(body)) + bytes([MsgType.GATE_DECISION]) + body
        with pytest.raises(BadFrameError):
            decode_frame(frame)

    def test_bad_enum_codes_rejected(self):
        good = encode_frame(Prompt((1, 2), "spa"))
        corrupt = bytearray(good)
        corrupt[-6] = 250  # policy byte
        with pytest.raises(BadFrameError):
            decode_frame(bytes(corrupt))

    def test_garbage_never_crashes_decoder(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            blob = rng.bytes(int(rng.integers(0, 64)))
            try:
                decode_frame(blob)
            except (TruncatedFrameError, OversizeFrameError, BadFrameError):
                pass  # typed rejection is the contract
