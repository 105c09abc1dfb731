"""Session fixtures: one fully trained toy stack shared by the acceptance
suite, and connected TCP transport pairs for split sessions."""

import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from spa.checkpoint import save_model
from spa.corpus import Corpus, make_synthetic_personalized_corpus
from spa.model import ModelConfig, SpaModel
from spa.tokenizer import VOCAB_SIZE
from spa.training import GridRun, TrainConfig, TrainResult, pretrain_base, run_lr_grid
from spa.transport import SocketTransport

STACK_SEED = 11

STACK_MODEL_CONFIG = ModelConfig(
    n_layers=2,
    d_model=64,
    n_heads=4,
    d_ff=128,
    vocab_size=VOCAB_SIZE,
    max_seq_len=128,
    side_reduction=8,
)


_open_ends: list[SocketTransport] = []


def tcp_pair() -> tuple[SocketTransport, SocketTransport]:
    """Two connected transports over 127.0.0.1; both close when the test ends."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        near = socket.create_connection(listener.getsockname())
        far, _ = listener.accept()
    pair = SocketTransport(near), SocketTransport(far)
    _open_ends.extend(pair)
    return pair


@pytest.fixture(autouse=True)
def _close_tcp_pairs():
    yield
    while _open_ends:
        _open_ends.pop().close()


@dataclass
class TrainedStack:
    model: SpaModel
    config: ModelConfig
    base_corpus: Corpus
    personal_corpus: Corpus
    pretrain_result: TrainResult
    best_run: GridRun
    grid_runs: list[GridRun]
    pretrained_base_digest: str
    paths: dict[str, Path] = field(default_factory=dict)
    wall_clock: float = 0.0


@pytest.fixture(scope="session")
def trained_stack(tmp_path_factory) -> TrainedStack:
    """Full pipeline: synthetic corpora -> pretrain -> 3-learning-rate side grid.

    Side training keeps the pinned 15-epoch budget per learning rate;
    pretraining uses a shorter budget (it is not pinned by any criterion).
    """
    t0 = time.monotonic()
    out = tmp_path_factory.mktemp("stack")
    base_corpus, personal_corpus = make_synthetic_personalized_corpus(STACK_SEED, "small")

    pre_cfg = TrainConfig(
        learning_rate=1e-3, batch_size=8, epochs=8, seed=STACK_SEED, block_size=48
    )
    model, pre_result = pretrain_base(STACK_MODEL_CONFIG, pre_cfg, base_corpus)
    pretrained_digest = model.base_digest()
    save_model(model, out / "base.ckpt", kind="base", train_config=pre_cfg.to_dict())

    side_cfg = TrainConfig(
        learning_rate=5e-4, batch_size=8, epochs=15, seed=STACK_SEED, block_size=48
    )
    best, runs = run_lr_grid(model, side_cfg, personal_corpus)

    chosen = TrainConfig(**{**side_cfg.to_dict(), "learning_rate": best.learning_rate})
    paths = {"base": out / "base.ckpt"}
    for kind in ("full", "cloud", "side"):
        path = out / f"{kind}.ckpt"
        save_model(model, path, kind=kind, train_config=chosen.to_dict())
        paths[kind] = path

    return TrainedStack(
        model=model,
        config=STACK_MODEL_CONFIG,
        base_corpus=base_corpus,
        personal_corpus=personal_corpus,
        pretrain_result=pre_result,
        best_run=best,
        grid_runs=runs,
        pretrained_base_digest=pretrained_digest,
        paths=paths,
        wall_clock=time.monotonic() - t0,
    )
