"""Device client: drives a split-decoding session against a cloud endpoint.

The device holds only the side parameters (plus cached embeddings for the
fully separated policy). It answers BASE_HIDDENS requests with the side
vector, accumulates GATE_DECISION/TOKEN frames, and keeps its own
transmission counter, which must agree exactly with the cloud's.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import LoadedCheckpoint, load_checkpoint
from .decoding import (
    DecodeConfig,
    DeviceOnlyStepModel,
    TransmissionCounter,
    local_side_provider,
    run_decode,
)
from .errors import ContractError, SpaError
from .model import ModelConfig, SideParams
from .tokenizer import BOS, EOS, VOCAB_SIZE, ByteTokenizer
from .transport import SocketTransport, TransportClosed, TransportTimeout
from .wire import (
    PROTOCOL_VERSION,
    BaseHiddens,
    Eos,
    ErrorCode,
    ErrorFrame,
    GateDecision,
    Hello,
    Prompt,
    SideOutput,
    Token,
)


class SessionRejected(SpaError):
    def __init__(self, frame: ErrorFrame):
        super().__init__(frame.message)
        self.frame = frame


@dataclass
class SideBundle:
    config: ModelConfig
    side: SideParams
    cache: dict[str, np.ndarray]
    digest: str

    @classmethod
    def from_checkpoint(cls, source: str | Path | LoadedCheckpoint) -> "SideBundle":
        loaded = source if isinstance(source, LoadedCheckpoint) else load_checkpoint(source)
        side, cache = loaded.build_side_parts()
        return cls(loaded.config, side, cache, loaded.compat_digest)


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


def _device_only(bundle: SideBundle, prompt_ids, dcfg: DecodeConfig) -> GenerationResult:
    step_model = DeviceOnlyStepModel(bundle.config, bundle.side, bundle.cache)
    eos = EOS if bundle.config.vocab_size == VOCAB_SIZE else None
    outcome = run_decode(step_model, prompt_ids, dcfg, bundle.config.vocab_size, eos)
    return GenerationResult(
        text=_decode_text(bundle.config, outcome.tokens),
        prompt_ids=list(prompt_ids),
        tokens=outcome.tokens,
        gate_trace=outcome.gate_trace,
        counter=TransmissionCounter.build(
            "device_only", bundle.config.n_layers, outcome.tokens, outcome.gate_trace, 0
        ),
        completed=True,
        stopped_by_eos=outcome.stopped_by_eos,
    )


def run_device(
    side_checkpoint: str | Path | SideBundle,
    dcfg: DecodeConfig,
    prompt_text: str | None = None,
    prompt_ids=None,
    connect: tuple[str, int] | None = None,
    transport=None,
    frame_timeout: float = 10.0,
) -> GenerationResult:
    """Generate text through a cloud session (or locally for device_only)."""
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

    if dcfg.policy == "device_only":
        return _device_only(bundle, prompt_ids, dcfg)

    if transport is None:
        if connect is None:
            raise ContractError("run_device: need a transport or an address to connect to")
        transport = SocketTransport.connect(connect[0], connect[1], timeout=frame_timeout)

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
            raise SessionRejected(reply)
        if not isinstance(reply, Hello):
            raise ContractError("expected HELLO (or ERROR) from the cloud")
        wire_mode = reply.wire_mode  # the server's flag wins
        provider = local_side_provider(bundle.config, bundle.side, wire_mode)
        transport.send(
            Prompt(
                token_ids=tuple(prompt_ids),
                policy=dcfg.policy,
                strategy=dcfg.strategy,
                beam_width=dcfg.beam_width,
                max_new_tokens=dcfg.max_new_tokens,
            )
        )
        last_step = -1
        while True:
            msg = transport.recv(frame_timeout)
            if isinstance(msg, (BaseHiddens, GateDecision, Token)):
                if msg.step <= last_step:
                    transport.send(
                        ErrorFrame(
                            ErrorCode.PROTOCOL_VIOLATION,
                            f"step {msg.step} not after {last_step}",
                        )
                    )
                    raise ContractError(f"out-of-order step {msg.step} (last {last_step})")
                last_step = msg.step
            if isinstance(msg, BaseHiddens):
                if wire_mode == "all_layers":
                    payload = msg.hiddens[:, 0, :]
                else:
                    payload = msg.hiddens[0, 0]
                vec = provider(msg.step, payload)
                transport.send(SideOutput(msg.step, vec))
                answered += 1
            elif isinstance(msg, GateDecision):
                trace.append(msg.use_side)
            elif isinstance(msg, Token):
                tokens.append(msg.token_id)
                if bundle.config.vocab_size == VOCAB_SIZE and msg.token_id == EOS:
                    stopped_by_eos = True
            elif isinstance(msg, Eos):
                completed = True
                break
            elif isinstance(msg, ErrorFrame):
                error = f"cloud error {msg.code}: {msg.message}"
                break
            else:
                raise ContractError(f"unexpected frame {type(msg).__name__} mid-session")
    except SessionRejected as e:
        error = f"handshake rejected: {e.frame.code}: {e.frame.message}"
    except TransportTimeout as e:
        error = f"timeout: {e}"
    except (TransportClosed, SpaError) as e:
        error = error or str(e)
    finally:
        try:
            transport.close()
        except SpaError:
            pass

    return GenerationResult(
        text=_decode_text(bundle.config, tokens),
        prompt_ids=prompt_ids,
        tokens=tokens,
        gate_trace=trace,
        counter=TransmissionCounter.build(
            dcfg.policy, bundle.config.n_layers, tokens, trace, answered, transport
        ),
        completed=completed,
        stopped_by_eos=stopped_by_eos,
        error=error,
    )
