"""Cloud endpoint: serves split-decoding sessions over any transport.

Session flow (device drives): HELLO handshake with a compatibility digest
and the wire mode the endpoint serves, one PROMPT, then for each decode
step that gates at least one row a single BASE_HIDDENS -> SIDE_OUTPUT
round trip carrying all of that step's gated rows (one for greedy, up to
the beam width for beam search); every emitted token is one TOKEN frame
carrying its gate bit, and the session ends with EOS. Any failure ends the
session with at most one ERROR frame, whose code the error carries
(`spa.wire`); step indices increase strictly across all frames the cloud
initiates.

The wire side provider sends a step's BASE_HIDDENS at once and returns the
pending reply, which reads SIDE_OUTPUT and checks its step and shape. On a
step that is not the last, greedy or beam, the step engine runs the next
step's base forward between the two, for the contexts the decoder's draft
hook ranks from the base logits (`spa.decoding`), so the cloud computes
while the device answers instead of waiting in `recv`; the frames and their
bytes are the same as without it. A reply that is an ERROR, or a device that
closes meanwhile, ends the session as it would have in `recv`: the prefetch
sends nothing. `SessionRecord.prefetches` and `prefetch_hits` count those
forwards and the steps that used theirs. A traced round trip, measured from
the BASE_HIDDENS send to the end of the SIDE_OUTPUT read, so now spans the
prefetched forward, and the time spent in `recv` is only the wait left after
it.

`CloudServer` is the TCP server: one thread and one session per connection,
a listen backlog of LISTEN_BACKLOG so a burst of connects is queued, not
dropped, and a `shutdown()` that returns within POLL_INTERVAL of being called
(at once when no loop runs).
"""

from __future__ import annotations

import itertools
import socketserver
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .checkpoint import compat_digest, load_checkpoint
from .decoding import CloudStepModel, DecodeConfig, TransmissionCounter, run_decode
from .errors import SpaError
from .model import BaseParams, GateParams, ModelConfig, SpaModel
from .tokenizer import EOS as EOS_TOKEN
from .tokenizer import VOCAB_SIZE as BYTE_VOCAB
from .transport import DEFAULT_TIMEOUT, SocketTransport, TransportClosed, TransportTimeout
from .wire import (
    DEFAULT_WIRE_MODE,
    PROTOCOL_VERSION,
    BaseHiddens,
    Eos,
    ErrorCode,
    ErrorFrame,
    Hello,
    PeerError,
    Prompt,
    ProtocolViolation,
    SideOutput,
    Token,
)


# widest beam a PROMPT may ask for: bounds the hypotheses, and so the K/V
# windows, that one session keeps per step
MAX_BEAM_WIDTH = 16
# most tokens a PROMPT may ask to generate: bounds a session's steps, frames
# and retained history
MAX_NEW_TOKENS = 1024
# longest prompt a PROMPT may carry: bounds the context the cloud holds
MAX_PROMPT_TOKENS = 4096
# listen backlog: socketserver's default of 5 drops the SYNs of a burst of
# connects, and each dropped one waits out the 1 s SYN retransmit
LISTEN_BACKLOG = 64
# seconds between serve_forever's checks for shutdown(): bounds how long
# shutdown() waits for the loop to end
POLL_INTERVAL = 0.05


@dataclass
class SessionRecord:
    session_id: int
    policy: str | None = None
    prompt_len: int = 0
    emitted_tokens: list[int] = field(default_factory=list)
    emitted_trace: list[int] = field(default_factory=list)
    gate_log: list[int] = field(default_factory=list)
    base_hiddens_sent: int = 0
    prefetches: int = 0
    prefetch_hits: int = 0
    counter: TransmissionCounter | None = None
    error: str | None = None


class CloudEndpoint:
    """Transport-agnostic session logic around a frozen base + gate."""

    def __init__(
        self,
        config: ModelConfig,
        base: BaseParams,
        gate: GateParams,
        digest: str,
        wire_mode: str = DEFAULT_WIRE_MODE,
        frame_timeout: float = DEFAULT_TIMEOUT,
    ):
        self.config = config
        self.base = base
        self.gate = gate
        self.digest = digest
        self.wire_mode = wire_mode
        self.frame_timeout = frame_timeout
        self.eos_id = EOS_TOKEN if config.vocab_size == BYTE_VOCAB else None
        self.sessions: list[SessionRecord] = []
        self._lock = threading.Lock()

    @classmethod
    def from_model(cls, model: SpaModel, **kw) -> "CloudEndpoint":
        return cls(
            model.config,
            model.base,
            model.gate,
            compat_digest(model.config, model.base_digest()),
            **kw,
        )

    @classmethod
    def from_checkpoint(cls, path: str | Path, **kw) -> "CloudEndpoint":
        loaded = load_checkpoint(path)
        base, gate = loaded.build_cloud_parts()
        return cls(loaded.config, base, gate, loaded.compat_digest, **kw)

    def _new_record(self) -> SessionRecord:
        with self._lock:
            record = SessionRecord(session_id=len(self.sessions) + 1)
            self.sessions.append(record)
        return record

    def handle_session(self, transport) -> SessionRecord:
        record = self._new_record()
        try:
            self._run_session(transport, record)
        except (PeerError, TransportClosed, TransportTimeout) as e:
            record.error = str(e)
        except SpaError as e:
            record.error = str(e)
            try:
                transport.send(ErrorFrame(getattr(e, "code", ErrorCode.INTERNAL), str(e)))
            except SpaError:
                pass
        finally:
            record.counter = TransmissionCounter.build(
                record.emitted_tokens, record.emitted_trace, record.base_hiddens_sent, transport
            )
            try:
                transport.close()
            except SpaError:
                pass
        return record

    def _recv(self, transport, want: type, violation: str):
        """The next frame, which must be a `want`; an ERROR ends the session."""
        msg = transport.recv(self.frame_timeout)
        if isinstance(msg, ErrorFrame):
            raise PeerError(msg, "device error")
        if not isinstance(msg, want):
            raise ProtocolViolation(violation)
        return msg

    def _run_session(self, transport, record: SessionRecord) -> None:
        hello = self._recv(transport, Hello, "session must start with HELLO")
        if hello.version != PROTOCOL_VERSION:
            raise ProtocolViolation(
                f"protocol version {hello.version} unsupported (need {PROTOCOL_VERSION})",
                ErrorCode.VERSION_MISMATCH,
            )
        if hello.digest != self.digest:
            raise ProtocolViolation("model compatibility digest mismatch",
                                    ErrorCode.DIGEST_MISMATCH)
        if hello.wire_mode != self.wire_mode:
            raise ProtocolViolation(
                f"wire mode {hello.wire_mode} not served (this endpoint serves {self.wire_mode})"
            )
        transport.send(Hello(PROTOCOL_VERSION, self.wire_mode, self.digest))

        prompt = self._recv(transport, Prompt, "expected PROMPT after HELLO")
        ids = prompt.token_ids
        if not ids:
            raise ProtocolViolation("prompt must not be empty")
        if len(ids) > MAX_PROMPT_TOKENS:
            raise ProtocolViolation(f"prompt of {len(ids)} tokens exceeds {MAX_PROMPT_TOKENS}")
        if max(ids) >= self.config.vocab_size:
            raise ProtocolViolation(
                f"prompt token {max(ids)} out of range for vocab {self.config.vocab_size}"
            )
        if not 1 <= prompt.beam_width <= MAX_BEAM_WIDTH:
            raise ProtocolViolation(f"beam width {prompt.beam_width} outside 1..{MAX_BEAM_WIDTH}")
        if prompt.max_new_tokens > MAX_NEW_TOKENS:
            raise ProtocolViolation(
                f"max_new_tokens {prompt.max_new_tokens} exceeds {MAX_NEW_TOKENS}"
            )
        record.policy = prompt.policy
        record.prompt_len = len(ids)
        dcfg = DecodeConfig(max_new_tokens=prompt.max_new_tokens, strategy=prompt.strategy,
                            beam_width=prompt.beam_width, policy=prompt.policy)
        steps = itertools.count()

        def wire_side_provider(step: int, payload):
            # payload is (G, R, d); the frame carries (R, G, d), chunk = G
            transport.send(BaseHiddens(step, payload.transpose(1, 0, 2)))

            def reply() -> "np.ndarray":
                msg = self._recv(transport, SideOutput, f"expected SIDE_OUTPUT for step {step}")
                if msg.step != step:
                    raise ProtocolViolation(
                        f"SIDE_OUTPUT step {msg.step} does not match request {step}"
                    )
                want = (len(payload), self.config.d_model)
                if msg.vectors.shape != want:
                    raise ProtocolViolation(
                        f"SIDE_OUTPUT block has shape {msg.vectors.shape}, need {want}"
                    )
                return msg.vectors

            return reply

        step_model = CloudStepModel(self.config, self.base, self.gate, prompt.policy,
                                    self.wire_mode, wire_side_provider, steps)

        def on_emit(used: int, tok: int) -> None:
            transport.send(Token(next(steps), tok, used))
            record.emitted_trace.append(used)
            record.emitted_tokens.append(tok)

        try:
            run_decode(step_model, ids, dcfg, self.eos_id, on_emit)
        finally:  # a failed session's record keeps its decisions and counts too
            record.gate_log = list(step_model.gate_log)
            record.base_hiddens_sent = step_model.hidden_calls
            record.prefetches = step_model.prefetches
            record.prefetch_hits = step_model.prefetch_hits
        transport.send(Eos())


class CloudServer(socketserver.ThreadingTCPServer):
    """TCP server: one thread per connection, one session per connection."""

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, endpoint: CloudEndpoint, host: str = "127.0.0.1", port: int = 0):
        self.endpoint = endpoint
        self._thread: threading.Thread | None = None
        self._served = False
        super().__init__((host, port), None)  # finish_request replaces the handler class

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address

    @property
    def sessions(self) -> list[SessionRecord]:
        return self.endpoint.sessions

    def finish_request(self, request, client_address) -> None:
        # through the instance, so a wrapper on CloudEndpoint.handle_session runs
        self.endpoint.handle_session(SocketTransport(request))

    def start(self) -> "CloudServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._served = True
        super().serve_forever(POLL_INTERVAL)

    def shutdown(self) -> None:
        """Stop the loop if one was started, close the socket, join `start()`'s
        thread. Returns at once when no loop ever ran, where `BaseServer.shutdown`
        would wait forever for one to end."""
        if self._thread is not None or self._served:
            super().shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def serve_cloud(
    checkpoint: str | Path,
    listen: tuple[str, int] = ("127.0.0.1", 0),
    wire_mode: str = DEFAULT_WIRE_MODE,
    start: bool = True,
) -> CloudServer:
    endpoint = CloudEndpoint.from_checkpoint(checkpoint, wire_mode=wire_mode)
    server = CloudServer(endpoint, listen[0], listen[1])
    return server.start() if start else server
