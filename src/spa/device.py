"""Device client: drives a split-decoding session against a cloud endpoint.

The device holds only the side parameters, and every policy decodes through
a cloud session. It answers each BASE_HIDDENS request, the block of one
step's gated rows, with one SIDE_OUTPUT block of their side vectors,
appends each TOKEN frame's token and gate bit together, so its gate trace
always matches its tokens, and keeps its own transmission counter, which
must agree exactly with the cloud's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .checkpoint import LoadedCheckpoint, load_checkpoint
from .decoding import DecodeConfig, TransmissionCounter, local_side_provider
from .errors import ContractError, SpaError
from .model import ModelConfig, SideParams
from .tokenizer import BOS, EOS, VOCAB_SIZE, ByteTokenizer
from .transport import SocketTransport, TransportClosed, TransportTimeout
from .wire import (
    PROTOCOL_VERSION,
    BaseHiddens,
    Eos,
    ErrorFrame,
    Hello,
    PeerError,
    Prompt,
    ProtocolViolation,
    SideOutput,
    Token,
    encode_frame,
)


@dataclass
class SideBundle:
    config: ModelConfig
    side: SideParams
    digest: str

    @classmethod
    def from_checkpoint(cls, source: str | Path | LoadedCheckpoint) -> "SideBundle":
        loaded = source if isinstance(source, LoadedCheckpoint) else load_checkpoint(source)
        return cls(loaded.config, loaded.build_side_parts(), loaded.compat_digest)


@dataclass
class GenerationResult:
    text: str
    prompt_ids: list[int]
    tokens: list[int]
    gate_trace: list[int]
    counter: TransmissionCounter
    completed: bool
    stopped_by_eos: bool = False
    error: str | None = None


def _decode_text(config: ModelConfig, tokens) -> str:
    if config.vocab_size == VOCAB_SIZE:
        return ByteTokenizer().decode(tokens)
    return ""


def run_device(
    side_checkpoint: str | Path | SideBundle,
    dcfg: DecodeConfig,
    prompt_text: str | None = None,
    prompt_ids=None,
    connect: tuple[str, int] | None = None,
    transport=None,
    frame_timeout: float = 10.0,
) -> GenerationResult:
    """Generate text through a cloud session.

    The transport, whether passed in or connected here, is closed on every
    way out, so the cloud end never waits out its frame timeout.
    """
    try:
        bundle = (
            side_checkpoint
            if isinstance(side_checkpoint, SideBundle)
            else SideBundle.from_checkpoint(side_checkpoint)
        )
        if prompt_ids is None:
            if prompt_text is None:
                raise ContractError("run_device: need prompt_text or prompt_ids")
            if bundle.config.vocab_size != VOCAB_SIZE:
                raise ContractError("text prompts need a byte-vocabulary checkpoint")
            prompt_ids = [BOS, *ByteTokenizer().encode(prompt_text)]
        prompt_ids = [int(t) for t in prompt_ids]
        prompt = Prompt(
            token_ids=tuple(prompt_ids),
            policy=dcfg.policy,
            strategy=dcfg.strategy,
            beam_width=dcfg.beam_width,
            max_new_tokens=dcfg.max_new_tokens,
        )
        encode_frame(prompt)  # a field outside its wire range fails here, before connecting
        if transport is None:
            if connect is None:
                raise ContractError("run_device: need a transport or an address to connect to")
            transport = SocketTransport.connect(connect[0], connect[1], timeout=frame_timeout)
        return _session(bundle, dcfg, prompt, transport, frame_timeout)
    finally:
        if transport is not None:
            try:
                transport.close()
            except SpaError:
                pass


def _session(bundle: SideBundle, dcfg: DecodeConfig, prompt: Prompt, transport,
             frame_timeout: float) -> GenerationResult:
    """One split session over an open transport; the caller closes it."""
    tokens: list[int] = []
    trace: list[int] = []
    completed = False
    stopped_by_eos = False
    error: str | None = None
    answered = 0
    try:
        transport.send(Hello(PROTOCOL_VERSION, dcfg.wire_mode, bundle.digest))
        reply = transport.recv(frame_timeout)
        if isinstance(reply, ErrorFrame):
            raise PeerError(reply, "handshake rejected:")
        if not isinstance(reply, Hello):
            raise ProtocolViolation("expected HELLO (or ERROR) from the cloud")
        provider = local_side_provider(bundle.config, bundle.side)
        # the cloud's HELLO names the session's wire mode: per-layer hiddens
        # or the final hidden alone, each d_model wide
        rows = bundle.config.n_layers if reply.wire_mode == "all_layers" else 1
        # a step gates at most every live hypothesis: one row for greedy
        max_chunk = prompt.beam_width if prompt.strategy == "beam" else 1
        transport.send(prompt)
        last_step = -1
        while True:
            msg = transport.recv(frame_timeout)
            if isinstance(msg, (BaseHiddens, Token)):
                if msg.step <= last_step:
                    raise ProtocolViolation(f"out-of-order step {msg.step} (last {last_step})")
                last_step = msg.step
            if isinstance(msg, BaseHiddens):
                n_rows, chunk, width = msg.hiddens.shape
                if not 1 <= chunk <= max_chunk:
                    raise ProtocolViolation(f"BASE_HIDDENS chunk {chunk} outside 1..{max_chunk}")
                if (n_rows, width) != (rows, bundle.config.d_model):
                    raise ProtocolViolation(
                        f"BASE_HIDDENS of shape {msg.hiddens.shape}: {reply.wire_mode} mode "
                        f"needs ({rows}, chunk, {bundle.config.d_model})"
                    )
                vecs = provider(msg.step, msg.hiddens.transpose(1, 0, 2))
                transport.send(SideOutput(msg.step, vecs))
                answered += 1
            elif isinstance(msg, Token):
                tokens.append(msg.token_id)
                trace.append(msg.used)
                if bundle.config.vocab_size == VOCAB_SIZE and msg.token_id == EOS:
                    stopped_by_eos = True
            elif isinstance(msg, Eos):
                completed = True
                break
            elif isinstance(msg, ErrorFrame):
                raise PeerError(msg, "cloud error")
            else:
                raise ProtocolViolation(f"unexpected frame {type(msg).__name__} mid-session")
    except ProtocolViolation as e:
        error = str(e)
        try:  # tell the cloud why the session ends
            transport.send(ErrorFrame(e.code, error))
        except SpaError:
            pass
    except TransportTimeout as e:
        error = f"timeout: {e}"
    except SpaError as e:
        error = str(e)

    return GenerationResult(
        text=_decode_text(bundle.config, tokens),
        prompt_ids=list(prompt.token_ids),
        tokens=tokens,
        gate_trace=trace,
        counter=TransmissionCounter.build(tokens, trace, answered, transport),
        completed=completed,
        stopped_by_eos=stopped_by_eos,
        error=error,
    )
