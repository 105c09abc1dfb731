"""Wire protocol: length-prefixed binary frames between cloud and device.

Frame layout:

    payload length   u32 big-endian (payload only, excludes the type byte)
    message type     u8
    payload          type-specific, see below

Integers are big-endian; float arrays are big-endian float64 ('>f8').
Payload layouts:

    HELLO          u32 version | u8 wire_mode | 32 bytes digest (raw SHA-256)
    PROMPT         u32 count | count x u32 ids | u8 policy | u8 strategy
                   | u16 beam_width | u16 max_new_tokens
    BASE_HIDDENS   u32 step | u8 n_layers | u16 chunk | u16 d_model | floats
    SIDE_OUTPUT    u32 step | u16 rows | u16 d_model | floats
    TOKEN          u32 step | u32 token_id | u8 used
    EOS            (empty)
    ERROR          u16 code | u16 length | UTF-8 message

The cloud serves one wire mode. The device's HELLO names the mode it
decodes in, and the cloud refuses a HELLO of any other mode; its own HELLO
names the mode it serves, and the device checks every BASE_HIDDENS block
against it.

A decode step makes at most one BASE_HIDDENS -> SIDE_OUTPUT round trip.
BASE_HIDDENS carries every row the gate sent to the side in that step:
`chunk` is the number of those gated rows (1 for greedy, up to the beam
width for beam search), and its floats are an (n_layers, chunk, d_model)
block, where n_layers is the number of layers in `all_layers` mode and 1
in `final` mode. SIDE_OUTPUT answers with one (rows, d_model) block of
side vectors, row for row, so `rows` must equal the request's `chunk`.

Each emitted token is one TOKEN frame; `used` is its gate bit (1 when the
side output was fused into that token's logits), and any byte other than 0
or 1 is a BAD_FRAME. Type code 4 is unassigned: it was version 3's
separate gate-decision frame.

PROMPT's policy byte indexes `POLICIES` (0 spa, 1 always_side, 2
base_only). That numbering and the TOKEN layout are version 4's; other
versions differ, so the cloud refuses their HELLO with VERSION_MISMATCH
before it reads a PROMPT.

Payloads longer than 16 MiB are rejected with an OVERSIZE error before any
allocation happens. The floats of BASE_HIDDENS and SIDE_OUTPUT must be
finite: a NaN or an infinity is refused on encode and is a BAD_FRAME on
decode, since either would decode into garbage tokens without an error.

A failure ends the session with at most one ERROR frame, sent by the end
that found it; the error raised carries the frame's code:

    failure                    code                sent by
    malformed frame            BAD_FRAME           cloud
    oversize frame             OVERSIZE            cloud
    HELLO of another version   VERSION_MISMATCH    cloud
    HELLO of another digest    DIGEST_MISMATCH     cloud
    HELLO of another wire mode PROTOCOL_VIOLATION  cloud
    broken session rule        PROTOCOL_VIOLATION  cloud or device
    anything else              INTERNAL            cloud

An ERROR frame received is never answered (`PeerError`), and a transport
that closes or times out gets nothing: both only end the session. The
device answers no malformed frame; it ends the session without a reply.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SpaError

PROTOCOL_VERSION = 4
MAX_PAYLOAD = 16 * 1024 * 1024
HEADER_LEN = 5  # u32 length + u8 type


class MsgType(enum.IntEnum):
    HELLO = 1
    PROMPT = 2
    BASE_HIDDENS = 3
    SIDE_OUTPUT = 5
    TOKEN = 6
    EOS = 7
    ERROR = 8


class ErrorCode(enum.IntEnum):
    DIGEST_MISMATCH = 1
    VERSION_MISMATCH = 2
    PROTOCOL_VIOLATION = 3
    OVERSIZE = 4
    BAD_FRAME = 5
    INTERNAL = 6


class FrameError(SpaError):
    code = ErrorCode.BAD_FRAME


class TruncatedFrameError(FrameError):
    pass


class OversizeFrameError(FrameError):
    code = ErrorCode.OVERSIZE


class BadFrameError(FrameError):
    pass


class ProtocolViolation(SpaError):
    """The peer broke a session rule or failed the handshake; the session
    ends with an ERROR of `code`."""

    def __init__(self, message: str, code: ErrorCode = ErrorCode.PROTOCOL_VIOLATION):
        super().__init__(message)
        self.code = code


WIRE_MODES = ("final", "all_layers")
# the side payload the ladder is trained on: one hidden per layer
DEFAULT_WIRE_MODE = "all_layers"
# decode policies shared by decoding and the CLI; the index is the PROMPT
# policy byte, so any change to the order takes a new PROTOCOL_VERSION
POLICIES = ("spa", "always_side", "base_only")
STRATEGIES = ("greedy", "beam")


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise BadFrameError(f"{what}: float block holds NaN or infinity")
    return arr


def _code(options: tuple[str, ...], value: str, what: str) -> int:
    try:
        return options.index(value)
    except ValueError:
        raise BadFrameError(f"unknown {what} {value!r}") from None


def _name(options: tuple[str, ...], code: int, what: str) -> str:
    if not 0 <= code < len(options):
        raise BadFrameError(f"unknown {what} code {code}")
    return options[code]


@dataclass(frozen=True)
class Hello:
    version: int
    wire_mode: str
    digest: str  # 64 hex chars


@dataclass(frozen=True)
class Prompt:
    token_ids: tuple[int, ...]
    policy: str
    strategy: str = "greedy"
    beam_width: int = 4
    max_new_tokens: int = 50


@dataclass(eq=False)
class BaseHiddens:
    step: int
    hiddens: np.ndarray  # (n_layers, chunk, d_model): a step's gated rows

    def __eq__(self, other):
        return (
            isinstance(other, BaseHiddens)
            and self.step == other.step
            and self.hiddens.shape == other.hiddens.shape
            and np.array_equal(self.hiddens, other.hiddens)
        )


@dataclass(eq=False)
class SideOutput:
    step: int
    vectors: np.ndarray  # (rows, d_model): one side vector per gated row

    def __eq__(self, other):
        return (
            isinstance(other, SideOutput)
            and self.step == other.step
            and self.vectors.shape == other.vectors.shape
            and np.array_equal(self.vectors, other.vectors)
        )


@dataclass(frozen=True)
class Token:
    step: int
    token_id: int
    used: int  # the gate bit: 1 if the side output was fused into this token


@dataclass(frozen=True)
class Eos:
    pass


@dataclass(frozen=True)
class ErrorFrame:
    code: int
    message: str


class PeerError(SpaError):
    """The peer sent `frame`, an ERROR: the session is over and nothing
    answers it. The text is `what` followed by the frame's code and message."""

    def __init__(self, frame: ErrorFrame, what: str):
        super().__init__(f"{what} {frame.code}: {frame.message}")


WireMessage = Hello | Prompt | BaseHiddens | SideOutput | Token | Eos | ErrorFrame


def _encode_payload(msg: WireMessage) -> tuple[int, bytes]:
    if isinstance(msg, Hello):
        raw = bytes.fromhex(msg.digest)
        if len(raw) != 32:
            raise BadFrameError("digest must be 32 bytes of hex")
        return MsgType.HELLO, struct.pack(">IB", msg.version, _code(WIRE_MODES, msg.wire_mode, "wire mode")) + raw
    if isinstance(msg, Prompt):
        ids = msg.token_ids
        body = struct.pack(">I", len(ids)) + struct.pack(f">{len(ids)}I", *ids)
        body += struct.pack(
            ">BBHH",
            _code(POLICIES, msg.policy, "policy"),
            _code(STRATEGIES, msg.strategy, "strategy"),
            msg.beam_width,
            msg.max_new_tokens,
        )
        return MsgType.PROMPT, body
    if isinstance(msg, BaseHiddens):
        arr = np.asarray(msg.hiddens, dtype=np.float64)
        if arr.ndim != 3:
            raise BadFrameError(f"hiddens must be 3-D (layers, chunk, d), got {arr.shape}")
        if arr.size * 8 > MAX_PAYLOAD:
            raise OversizeFrameError(
                f"hidden block of {arr.size * 8} bytes exceeds {MAX_PAYLOAD}"
            )
        n_layers, chunk, d = arr.shape
        head = struct.pack(">IBHH", msg.step, n_layers, chunk, d)
        return MsgType.BASE_HIDDENS, head + _finite(arr, "BASE_HIDDENS").astype(">f8").tobytes()
    if isinstance(msg, SideOutput):
        arr = np.asarray(msg.vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise BadFrameError(f"side vectors must be 2-D (rows, d), got {arr.shape}")
        rows, d = arr.shape
        body = _finite(arr, "SIDE_OUTPUT").astype(">f8").tobytes()
        return MsgType.SIDE_OUTPUT, struct.pack(">IHH", msg.step, rows, d) + body
    if isinstance(msg, Token):
        if msg.used not in (0, 1):
            raise BadFrameError(f"TOKEN: gate bit {msg.used} is neither 0 nor 1")
        return MsgType.TOKEN, struct.pack(">IIB", msg.step, msg.token_id, msg.used)
    if isinstance(msg, Eos):
        return MsgType.EOS, b""
    if isinstance(msg, ErrorFrame):
        raw = msg.message.encode("utf-8")
        return MsgType.ERROR, struct.pack(">HH", msg.code, len(raw)) + raw
    raise BadFrameError(f"cannot encode object of type {type(msg).__name__}")


def encode_frame(msg: WireMessage) -> bytes:
    try:
        mtype, payload = _encode_payload(msg)
    except struct.error as e:  # a field outside its u8/u16/u32 range
        raise BadFrameError(f"{type(msg).__name__}: field out of range: {e}") from None
    if len(payload) > MAX_PAYLOAD:
        raise OversizeFrameError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return struct.pack(">I", len(payload)) + bytes([mtype]) + payload


def _need(payload: bytes, count: int, what: str) -> None:
    if len(payload) < count:
        raise BadFrameError(f"{what}: payload truncated ({len(payload)} < {count} bytes)")


def decode_payload(mtype: int, payload: bytes) -> WireMessage:
    if mtype == MsgType.HELLO:
        _need(payload, 37, "HELLO")
        version, mode_code = struct.unpack_from(">IB", payload)
        if len(payload) != 37:
            raise BadFrameError("HELLO: wrong payload length")
        return Hello(version, _name(WIRE_MODES, mode_code, "wire mode"), payload[5:37].hex())
    if mtype == MsgType.PROMPT:
        _need(payload, 4, "PROMPT")
        (n,) = struct.unpack_from(">I", payload)
        _need(payload, 4 + 4 * n + 6, "PROMPT")
        ids = struct.unpack_from(f">{n}I", payload, 4)
        pol, strat, width, max_new = struct.unpack_from(">BBHH", payload, 4 + 4 * n)
        if len(payload) != 4 + 4 * n + 6:
            raise BadFrameError("PROMPT: wrong payload length")
        return Prompt(
            token_ids=ids,
            policy=_name(POLICIES, pol, "policy"),
            strategy=_name(STRATEGIES, strat, "strategy"),
            beam_width=width,
            max_new_tokens=max_new,
        )
    if mtype == MsgType.BASE_HIDDENS:
        _need(payload, 9, "BASE_HIDDENS")
        step, n_layers, chunk, d = struct.unpack_from(">IBHH", payload)
        count = n_layers * chunk * d
        if len(payload) != 9 + 8 * count:
            raise BadFrameError("BASE_HIDDENS: float block length mismatch")
        arr = np.frombuffer(payload, dtype=">f8", count=count, offset=9).astype(np.float64)
        return BaseHiddens(step, _finite(arr, "BASE_HIDDENS").reshape(n_layers, chunk, d))
    if mtype == MsgType.SIDE_OUTPUT:
        _need(payload, 8, "SIDE_OUTPUT")
        step, rows, d = struct.unpack_from(">IHH", payload)
        if len(payload) != 8 + 8 * rows * d:
            raise BadFrameError("SIDE_OUTPUT: float block length mismatch")
        arr = np.frombuffer(payload, dtype=">f8", count=rows * d, offset=8).astype(np.float64)
        return SideOutput(step, _finite(arr, "SIDE_OUTPUT").reshape(rows, d))
    if mtype == MsgType.TOKEN:
        if len(payload) != 9:
            raise BadFrameError("TOKEN: wrong payload length")
        step, tok, used = struct.unpack(">IIB", payload)
        if used > 1:
            raise BadFrameError(f"TOKEN: gate bit {used} is neither 0 nor 1")
        return Token(step, tok, used)
    if mtype == MsgType.EOS:
        if payload:
            raise BadFrameError("EOS: payload must be empty")
        return Eos()
    if mtype == MsgType.ERROR:
        _need(payload, 4, "ERROR")
        code, ln = struct.unpack_from(">HH", payload)
        if len(payload) != 4 + ln:
            raise BadFrameError("ERROR: wrong payload length")
        return ErrorFrame(code, payload[4:].decode("utf-8", errors="replace"))
    raise BadFrameError(f"unknown message type {mtype}")


def frame_length(buf: bytes) -> int | None:
    """Size of the frame at the head of buf, header included, once its
    4-byte length is there (None before). A declared payload over
    MAX_PAYLOAD raises OversizeFrameError, so no reader waits for it."""
    if len(buf) < 4:
        return None
    (length,) = struct.unpack_from(">I", buf)
    if length > MAX_PAYLOAD:
        raise OversizeFrameError(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    return HEADER_LEN + length


def decode_frame(buf: bytes) -> tuple[WireMessage, int]:
    """Decode one frame from the head of buf; returns (message, bytes consumed)."""
    total = frame_length(buf)
    if total is None or len(buf) < total:
        raise TruncatedFrameError(f"frame needs {total or HEADER_LEN} bytes, have {len(buf)}")
    return decode_payload(buf[4], buf[HEADER_LEN:total]), total
