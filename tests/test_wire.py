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
    kind = rng.integers(0, 7)
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
        rows, d = int(rng.integers(1, 5)), int(rng.integers(1, 80))
        return SideOutput(int(rng.integers(0, 1_000_000)), rng.standard_normal((rows, d)))
    if kind == 4:
        return Token(int(rng.integers(0, 1_000_000)), int(rng.integers(0, 70000)),
                     int(rng.integers(0, 2)))
    if kind == 5:
        return Eos()
    return ErrorFrame(int(rng.integers(0, 7)), "boom " * int(rng.integers(0, 5)))


# the two frames that carry floats, built from a 6-element block
FLOAT_FRAMES = [
    lambda block: BaseHiddens(4, block.reshape(2, 1, 3)),
    lambda block: SideOutput(4, block.reshape(2, 3)),
]


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
        assert len(seen) == 7  # all variants exercised

    def test_header_is_big_endian_payload_length_then_type(self):
        frame = encode_frame(Token(3, 9, 1))
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - HEADER_LEN
        assert frame[4] == MsgType.TOKEN

    def test_token_carries_step_token_id_and_gate_bit(self):
        frame = encode_frame(Token(3, 9, 1))
        assert frame[HEADER_LEN:] == struct.pack(">IIB", 3, 9, 1)

    def test_float_payload_is_bit_exact(self):
        vec = np.array([[1e-308, -0.0, np.pi, 1e308]])
        decoded, _ = decode_frame(encode_frame(SideOutput(1, vec)))
        assert decoded.vectors.tobytes() == vec.tobytes()

    @pytest.mark.parametrize("rows", [1, 4])
    def test_side_output_block_round_trips_bit_exact(self, rows):
        block = np.random.default_rng(rows).standard_normal((rows, 16))
        block[0, :4] = [1e-308, -0.0, np.pi, 1e308]
        frame = encode_frame(SideOutput(7, block))
        assert len(frame) == HEADER_LEN + 8 + 8 * rows * 16
        assert struct.unpack_from(">IHH", frame, HEADER_LEN) == (7, rows, 16)
        decoded, _ = decode_frame(frame)
        assert decoded.step == 7 and decoded.vectors.shape == (rows, 16)
        assert decoded.vectors.tobytes() == block.tobytes()

    def test_side_output_row_count_must_match_payload(self):
        frame = bytearray(encode_frame(SideOutput(3, np.ones((4, 5)))))
        for rows in (3, 5, 0):
            struct.pack_into(">H", frame, HEADER_LEN + 4, rows)
            with pytest.raises(BadFrameError, match="SIDE_OUTPUT"):
                decode_frame(bytes(frame))

    def test_side_output_must_be_a_row_block(self):
        with pytest.raises(BadFrameError):
            encode_frame(SideOutput(0, np.ones(4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", FLOAT_FRAMES, ids=["BASE_HIDDENS", "SIDE_OUTPUT"])
    def test_non_finite_floats_are_refused_on_encode(self, make, bad):
        block = np.arange(6.0)
        block[4] = bad
        with pytest.raises(BadFrameError, match="NaN or infinity"):
            encode_frame(make(block))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", FLOAT_FRAMES, ids=["BASE_HIDDENS", "SIDE_OUTPUT"])
    def test_non_finite_floats_are_a_bad_frame_on_decode(self, make, bad):
        # a peer that skips the encode check still cannot get one through
        frame = bytearray(encode_frame(make(np.arange(6.0))))
        struct.pack_into(">d", frame, len(frame) - 8 * 2, bad)
        with pytest.raises(BadFrameError, match="NaN or infinity"):
            decode_frame(bytes(frame))

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_token_round_trip_property(self, step, tok, used):
        decoded, _ = decode_frame(encode_frame(Token(step, tok, used)))
        assert decoded == Token(step, tok, used)


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

    @pytest.mark.parametrize(
        "msg",
        [
            Prompt((1, 2), "spa", max_new_tokens=70000),
            Prompt((1, 2), "spa", "beam", beam_width=65536),
            Prompt((1, 2**32), "spa"),
            Prompt((1, -1), "spa"),
            Token(2**32, 1, 0),
            Token(-1, 1, 1),
            ErrorFrame(70000, "boom"),
            BaseHiddens(0, np.zeros((256, 1, 2))),
        ],
    )
    def test_field_outside_its_range_is_a_bad_frame_on_encode(self, msg):
        with pytest.raises(BadFrameError, match="field out of range"):
            encode_frame(msg)

    def test_unknown_type_rejected(self):
        # type 4 is retired: version 3 sent each token's gate bit in its own frame
        for mtype, body in ((99, b""), (4, struct.pack(">IB", 7, 1))):
            frame = struct.pack(">I", len(body)) + bytes([mtype]) + body
            with pytest.raises(BadFrameError, match=f"unknown message type {mtype}"):
                decode_frame(frame)

    def test_wrong_payload_length_rejected(self):
        body = struct.pack(">II", 7, 1)  # a version 3 TOKEN: no gate bit
        frame = struct.pack(">I", len(body)) + bytes([MsgType.TOKEN]) + body
        with pytest.raises(BadFrameError, match="TOKEN: wrong payload length"):
            decode_frame(frame)

    def test_token_gate_bit_other_than_0_or_1_rejected(self):
        body = struct.pack(">IIB", 7, 1, 2)
        frame = struct.pack(">I", len(body)) + bytes([MsgType.TOKEN]) + body
        with pytest.raises(BadFrameError, match="gate bit 2"):
            decode_frame(frame)
        with pytest.raises(BadFrameError, match="gate bit 2"):
            encode_frame(Token(7, 1, 2))

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
