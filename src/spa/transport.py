"""Message transports: TCP sockets and an in-process loopback for tests.

Both carry encoded frames, so the loopback exercises the same codec as the
socket path. Transports count frames and payload bytes in each direction
for the transmission accounting.

A `SocketTransport` sets `TCP_NODELAY` on the socket it wraps, which covers
both the device's connected socket and the cloud's accepted one. The cloud
sends a token's small TOKEN frame and, when the next step is gated, its
BASE_HIDDENS frame before it reads; with Nagle's algorithm on, the second
frame would wait for the peer's delayed ACK (about 40 ms) on every gated
round trip.
"""

from __future__ import annotations

import queue
import socket
import struct

from .errors import SpaError
from .wire import (
    HEADER_LEN,
    MAX_PAYLOAD,
    OversizeFrameError,
    TruncatedFrameError,
    WireMessage,
    decode_frame,
    decode_payload,
    encode_frame,
)

DEFAULT_TIMEOUT = 10.0


class TransportClosed(SpaError):
    pass


class TransportTimeout(SpaError):
    pass


class _Counting:
    def __init__(self):
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def _count_out(self, frame: bytes) -> None:
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def _count_in(self, frame_len: int) -> None:
        self.frames_received += 1
        self.bytes_received += frame_len


class LoopbackTransport(_Counting):
    """Queue-backed endpoint; create both ends with LoopbackTransport.pair()."""

    _CLOSE = object()

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    @classmethod
    def pair(cls) -> tuple["LoopbackTransport", "LoopbackTransport"]:
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        return cls(b_to_a, a_to_b), cls(a_to_b, b_to_a)

    def send(self, msg: WireMessage) -> None:
        if self._closed:
            raise TransportClosed("loopback transport is closed")
        frame = encode_frame(msg)
        self._count_out(frame)
        self._outbox.put(frame)

    def recv(self, timeout: float | None = DEFAULT_TIMEOUT) -> WireMessage:
        try:
            frame = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TransportTimeout(f"no frame within {timeout} s") from None
        if frame is self._CLOSE:
            raise TransportClosed("peer closed the loopback transport")
        self._count_in(len(frame))
        return _decode_whole(frame)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.put(self._CLOSE)


def _decode_whole(frame: bytes) -> WireMessage:
    msg, consumed = decode_frame(frame)
    if consumed != len(frame):
        raise TruncatedFrameError("loopback frame carried trailing bytes")
    return msg


class SocketTransport(_Counting):
    def __init__(self, sock: socket.socket):
        super().__init__()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> "SocketTransport":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise TransportClosed(f"cannot connect to {host}:{port}: {e}") from e
        return cls(sock)

    def send(self, msg: WireMessage) -> None:
        frame = encode_frame(msg)
        self._count_out(frame)
        try:
            self._sock.sendall(frame)
        except OSError as e:
            raise TransportClosed(f"socket send failed: {e}") from e

    def _read_exact(self, count: int, what: str, any_read: bool) -> bytes:
        chunks = b""
        while len(chunks) < count:
            try:
                part = self._sock.recv(count - len(chunks))
            except socket.timeout:
                raise TransportTimeout(f"no data within socket timeout while reading {what}") from None
            except OSError as e:
                raise TransportClosed(f"socket recv failed: {e}") from e
            if not part:
                if chunks or any_read:
                    raise TruncatedFrameError(f"connection closed mid-frame while reading {what}")
                raise TransportClosed("connection closed")
            chunks += part
        return chunks

    def recv(self, timeout: float | None = DEFAULT_TIMEOUT) -> WireMessage:
        self._sock.settimeout(timeout)
        header = self._read_exact(4, "frame length", any_read=False)
        (length,) = struct.unpack(">I", header)
        if length > MAX_PAYLOAD:
            raise OversizeFrameError(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
        type_byte = self._read_exact(1, "frame type", any_read=True)
        payload = self._read_exact(length, "payload", any_read=True) if length else b""
        self._count_in(HEADER_LEN + length)
        return decode_payload(type_byte[0], payload)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
