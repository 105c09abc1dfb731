"""Message transport: length-prefixed frames over a TCP socket.

`SocketTransport` counts frames and bytes in each direction for the
transmission accounting. It keeps what it has read in one buffer and reads
the socket only when that buffer holds no whole frame: frames that arrive
together cost one read between them, and bytes that arrived before a
timeout are kept for the next `recv`.

A `SocketTransport` sets `TCP_NODELAY` on the socket it wraps, which covers
both the device's connected socket and the cloud's accepted one. The cloud
sends a token's small TOKEN frame and, when the next step is gated, its
BASE_HIDDENS frame before it reads; with Nagle's algorithm on, the second
frame would wait for the peer's delayed ACK (about 40 ms) on every gated
round trip.
"""

from __future__ import annotations

import socket

from .errors import SpaError
from .wire import (
    HEADER_LEN,
    TruncatedFrameError,
    WireMessage,
    decode_payload,
    encode_frame,
    frame_length,
)

DEFAULT_TIMEOUT = 10.0
# bytes asked of the socket per read; a frame larger than this takes several
READ_SIZE = 64 * 1024


class TransportClosed(SpaError):
    pass


class TransportTimeout(SpaError):
    pass


class SocketTransport:
    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._timeout = sock.gettimeout()
        self._buf = bytearray()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> "SocketTransport":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise TransportClosed(f"cannot connect to {host}:{port}: {e}") from e
        return cls(sock)

    def send(self, msg: WireMessage) -> None:
        frame = encode_frame(msg)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        try:
            self._sock.sendall(frame)
        except OSError as e:
            raise TransportClosed(f"socket send failed: {e}") from e

    def recv(self, timeout: float | None = DEFAULT_TIMEOUT) -> WireMessage:
        buf = self._buf
        # frame_length refuses an oversize declared length before its payload is read
        while (total := frame_length(buf)) is None or len(buf) < total:
            self._read(timeout)
        mtype, payload = buf[4], bytes(buf[HEADER_LEN:total])
        del buf[:total]
        self.frames_received += 1
        self.bytes_received += total
        return decode_payload(mtype, payload)

    def _read(self, timeout: float | None) -> None:
        """Append what the socket has to the buffer, waiting at most `timeout`."""
        if timeout != self._timeout:
            self._sock.settimeout(timeout)
            self._timeout = timeout
        try:
            data = self._sock.recv(READ_SIZE)
        except socket.timeout:
            raise TransportTimeout(f"no data within {timeout} s") from None
        except OSError as e:
            raise TransportClosed(f"socket recv failed: {e}") from e
        if not data:
            if self._buf:
                raise TruncatedFrameError(
                    f"connection closed mid-frame after {len(self._buf)} bytes"
                )
            raise TransportClosed("connection closed")
        self._buf += data

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
