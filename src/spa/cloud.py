"""Cloud endpoint: serves split-decoding sessions over any transport.

Session flow (device drives): HELLO handshake with a compatibility digest,
one PROMPT, then for each decode step that gates at least one row a single
BASE_HIDDENS -> SIDE_OUTPUT round trip carrying all of that step's gated
rows (one for greedy, up to the beam width for beam search); every emitted
token is one TOKEN frame carrying its gate bit, and the session ends with
EOS. Any failure ends the session with at most one ERROR frame, whose code
the error carries (`spa.wire`); step indices increase strictly across all
frames the cloud initiates.
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
from .transport import SocketTransport, TransportClosed, TransportTimeout
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


@dataclass
class SessionRecord:
    session_id: int
    policy: str | None = None
    prompt_len: int = 0
    emitted_tokens: list[int] = field(default_factory=list)
    emitted_trace: list[int] = field(default_factory=list)
    gate_log: list[int] = field(default_factory=list)
    base_hiddens_sent: int = 0
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
        frame_timeout: float = 10.0,
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
        self._session_counter = 0

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
            self._session_counter += 1
            record = SessionRecord(session_id=self._session_counter)
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
                            beam_width=prompt.beam_width, policy=prompt.policy,
                            wire_mode=self.wire_mode)
        steps = itertools.count()

        def wire_side_provider(step: int, payload) -> "np.ndarray":
            # payload is (G, R, d); the frame carries (R, G, d), chunk = G
            transport.send(BaseHiddens(step, payload.transpose(1, 0, 2)))
            record.base_hiddens_sent += 1
            reply = self._recv(transport, SideOutput, f"expected SIDE_OUTPUT for step {step}")
            if reply.step != step:
                raise ProtocolViolation(
                    f"SIDE_OUTPUT step {reply.step} does not match request {step}"
                )
            want = (len(payload), self.config.d_model)
            if reply.vectors.shape != want:
                raise ProtocolViolation(
                    f"SIDE_OUTPUT block has shape {reply.vectors.shape}, need {want}"
                )
            return reply.vectors

        step_model = CloudStepModel(self.config, self.base, self.gate, prompt.policy,
                                    self.wire_mode, wire_side_provider, steps)

        def on_emit(used: int, tok: int) -> None:
            transport.send(Token(next(steps), tok, used))
            record.emitted_trace.append(used)
            record.emitted_tokens.append(tok)

        run_decode(step_model, ids, dcfg, self.config.vocab_size, self.eos_id, on_emit)
        record.gate_log = list(step_model.gate_log)
        transport.send(Eos())


class _SessionTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CloudServer:
    """TCP wrapper: one thread per connection, one session per connection."""

    def __init__(self, endpoint: CloudEndpoint, host: str = "127.0.0.1", port: int = 0):
        self.endpoint = endpoint
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                transport = SocketTransport(self.request)
                outer.endpoint.handle_session(transport)

        self._server = _SessionTCPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address

    @property
    def sessions(self) -> list[SessionRecord]:
        return self.endpoint.sessions

    def start(self) -> "CloudServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
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
