"""Training: base pretraining, then side + gate training on a frozen base.

Both stages run the one epoch loop `_train_epochs`: seeded shuffles of
packed token blocks, and per batch one forward over the (B, T+1) block
array, one backward and one Adam step, then a divergence check, and
validation after every epoch. All blocks have one length, so the mean over
a batch's B*T positions is the mean of its per-block means. The stages
differ only in what they pass the loop:

    pretrain_base         base parameters, base cross-entropy, "base_only"
    train_side_and_gate   side + gate parameters, the objective below, "spa"

The side/gate objective over a batch is

    token_loss(soft gate)                         fused teacher-forced NLL
  + cross_entropy(gate logits, labels)            labels: side-gain > margin
  + usage_weight * mean(P(use side))              keeps the gate from
                                                  defaulting to "always on"

each a mean over the batch's positions, where the labels (side-path CATE >
margin, `TokenLossTrace.cate`) are read off the same soft-gate forward as
the loss and are constants within a step.

The base is frozen during side training, so its features over the corpus
never change: `BaseFeatures` holds them, computed once by `base_forward` in
chunks of batch_size blocks taken in block order. For every training block
it keeps the per-layer hiddens, the final hidden and the base's log-prob of
each position's target (the base half of the gate labels' CATE); for every
scored validation document, the hiddens and final hidden over the document.
Each side-training batch and validation pass reads its rows from the table
as `teacher_forced`'s precomputed base, and no reader gets base logits:
batches need none, and validation computes `final @ out_proj` only where
the fused logits are the base's (nothing fused in). The table is kept on
the model (`SpaModel.base_features`), keyed by the model config, the base
digest, the exact training block array and the validation ids, so the
epochs of a call, the calls of a learning-rate grid and repeated calls on
the same base and corpus share it, and a changed base or corpus rebuilds
it. It costs (n_layers + 1) * d_model * 8 bytes per training or validation
position, 1.5 KiB at the bench shape (2 layers, d_model 64), plus 8 bytes
per training position for the target log-prob. With 48-token blocks, seed
1's personalized corpus holds 2,304 training and 211 validation positions
on the small tier (3.7 MiB), 8,496 and 1,110 on medium (14 MiB) and 33,072
and 3,876 on full (54 MiB). The logits are not stored, which would add
vocab_size * 8 bytes per position.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numcore as nc
from .corpus import Corpus
from .errors import ContractError, SpaError
from .metrics import scored_ids, teacher_forced_nll
from .model import (
    BaseTrace,
    GateParams,
    ModelConfig,
    SideParams,
    SpaModel,
    TokenLossTrace,
    base_forward,
    token_loss,
)
from .numcore import Tape, Tensor
from .tokenizer import ByteTokenizer

LR_GRID = (2e-4, 5e-4, 1e-3)


class TrainingDivergedError(SpaError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 8
    epochs: int = 15
    seed: int = 0
    gate_margin: float = 0.0
    usage_weight: float = 0.01
    block_size: int = 48

    def to_dict(self) -> dict:
        return asdict(self)


class Adam:
    """Adaptive moment estimation with bias correction."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, tensors: list[Tensor], lr: float):
        self.tensors = list(tensors)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.tensors]
        self._v = [np.zeros_like(p.data) for p in self.tensors]

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for p, m, v in zip(self.tensors, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.tensors:
            p.grad = None


def token_blocks(docs: list[str], tokenizer: ByteTokenizer, block_size: int) -> np.ndarray:
    """Pack documents into a single stream, cut into (block_size + 1) windows."""
    stream: list[int] = []
    for doc in docs:
        stream.extend(tokenizer.encode_document(doc))
    arr = np.asarray(stream, dtype=np.int64)
    n = (arr.size - 1) // block_size
    if n < 1:
        raise ContractError(
            f"corpus too small: {arr.size} tokens cannot fill one block of {block_size}"
        )
    return np.stack([arr[i * block_size : i * block_size + block_size + 1] for i in range(n)])


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_perplexity: float
    gate_usage: float | None = None


@dataclass
class TrainResult:
    epochs: list[EpochLog] = field(default_factory=list)

    @property
    def final(self) -> EpochLog:
        return self.epochs[-1]


def _fused_val_perplexity(model: SpaModel, docs, policy="spa", bases=None) -> tuple[float, float]:
    """(perplexity, gate usage rate) of `policy` on held-out docs; both nan
    when no document has a scorable position. `bases` as in
    `teacher_forced_nll`."""
    total, count, used = teacher_forced_nll(model, docs, policy, bases)
    if not count:
        return float("nan"), float("nan")
    return math.exp(total / count), used / count


# each stage's log-line name and the wording of its divergence error
_STAGE_WORDS = {"pretrain": "pretraining", "side": "side training"}


def _training_split(corpus: Corpus, tcfg: TrainConfig) -> tuple[np.ndarray, list[str]]:
    """(training blocks, validation documents) of the corpus under the seed."""
    train_docs, val_docs, _ = corpus.splits(tcfg.seed)
    return token_blocks(train_docs, ByteTokenizer(), tcfg.block_size), val_docs


def _train_epochs(
    stage: str,
    params: list[Tensor],
    tcfg: TrainConfig,
    n_blocks: int,
    batch_loss,
    validate,
    log,
) -> TrainResult:
    """The one training loop: seeded shuffles of the `n_blocks` training
    blocks; per batch, one Adam step on `params` against
    `batch_loss(batch)`, a scalar from one forward over the blocks whose
    indices `batch` holds; then `validate()` -> (val perplexity, gate usage
    or None) after every epoch. `stage` names the run in log lines and
    errors."""
    opt = Adam(params, tcfg.learning_rate)
    rng = np.random.default_rng(tcfg.seed)
    result = TrainResult()
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n_blocks)
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            with Tape() as tape:
                loss = batch_loss(batch)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(
                    f"{_STAGE_WORDS[stage]} loss became non-finite at epoch {epoch}, "
                    f"lr {tcfg.learning_rate}"
                )
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            losses.append(loss.item())
        entry = EpochLog(epoch, float(np.mean(losses)), *validate())
        result.epochs.append(entry)
        if log:
            line = (f"{stage} epoch {entry.epoch}: loss {entry.train_loss:.4f} "
                    f"val ppl {entry.val_perplexity:.2f}")
            if entry.gate_usage is not None:
                line += f" usage {entry.gate_usage:.3f}"
            log(line)
    return result


def pretrain_base(
    config: ModelConfig, tcfg: TrainConfig, corpus: Corpus, log=None
) -> tuple[SpaModel, TrainResult]:
    """Train the base LM with plain cross-entropy, then freeze it."""
    if not corpus.documents:
        raise ContractError("pretrain_base: corpus is empty")
    model = SpaModel.create(config, seed=tcfg.seed)
    blocks, val_docs = _training_split(corpus, tcfg)

    def batch_loss(batch):
        ids = blocks[batch]
        logits = base_forward(config, model.base, ids[:, :-1]).logits
        return nc.cross_entropy(logits, ids[:, 1:].reshape(-1))

    def validate():
        return _fused_val_perplexity(model, val_docs, "base_only")[0], None

    result = _train_epochs("pretrain", model.base.tensors(), tcfg, len(blocks),
                           batch_loss, validate, log)
    model.base.freeze()
    return model, result


@dataclass(eq=False)
class BaseFeatures:
    """The frozen base's features over one corpus (module docstring).

    `hiddens[i]` and `final` are (n_blocks, T, d_model) arrays over the
    training blocks in block order, and `target_logprobs` the (n_blocks, T)
    base log-probs of their targets; `val` holds each validation document's
    base trace without logits, or None for a document with nothing to
    score.
    """

    key: tuple
    hiddens: list[np.ndarray]
    final: np.ndarray
    target_logprobs: np.ndarray
    val: list[BaseTrace | None]

    @classmethod
    def for_model(cls, model: SpaModel, digest: str, blocks: np.ndarray, val_docs: list[str],
                  chunk: int) -> "BaseFeatures":
        """The model's table for this base (`digest`) and corpus, built and
        installed on the model unless the one it holds has that key."""
        val_ids = scored_ids(val_docs, model.config.max_seq_len)
        key = (model.config, digest, blocks.shape, blocks.tobytes(),
               tuple(None if ids is None else ids.tobytes() for ids in val_ids))
        if model.base_features is None or model.base_features.key != key:
            model.base_features = None  # drop the stale table before building
            model.base_features = cls._build(model, key, blocks, val_ids, chunk)
        return model.base_features

    @classmethod
    def _build(cls, model, key, blocks, val_ids, chunk) -> "BaseFeatures":
        cfg = model.config
        shape = (blocks.shape[0], blocks.shape[1] - 1, cfg.d_model)
        hiddens = [np.empty(shape) for _ in range(cfg.n_layers)]
        final = np.empty(shape)
        target_lp = np.empty(shape[:2])
        with nc.no_grad():
            for start in range(0, shape[0], chunk):
                ids = blocks[start : start + chunk]
                trace = base_forward(cfg, model.base, ids[:, :-1])
                for store, t in zip([*hiddens, final], [*trace.hiddens, trace.final]):
                    store[start : start + chunk] = t.data.reshape(-1, *shape[1:])
                target_lp[start : start + chunk] = nc.target_log_softmax(
                    trace.logits.data, ids[:, 1:].reshape(-1)).reshape(-1, shape[1])
            val = [None if ids is None
                   else replace(base_forward(cfg, model.base, ids[:-1]), logits=None, kv=[])
                   for ids in val_ids]
        return cls(key, hiddens, final, target_lp, val)

    def batch(self, batch: np.ndarray) -> BaseTrace:
        """The base trace of the blocks whose indices `batch` holds, rows
        block by block as `base_forward` lays out a (B, T) batch, with the
        stored target log-probs in place of logits."""
        d = self.final.shape[-1]
        return BaseTrace([Tensor(h[batch].reshape(-1, d)) for h in self.hiddens],
                         Tensor(self.final[batch].reshape(-1, d)),
                         target_logprobs=self.target_logprobs[batch].reshape(-1))


def reinit_side_and_gate(model: SpaModel, seed: int) -> None:
    """Fresh side/gate parameters (used between learning-rate grid runs)."""
    model.side = SideParams.create(model.config, np.random.default_rng(seed ^ 0x5EED))
    model.gate = GateParams.create(model.config)


def gate_labels(trace: TokenLossTrace, margin: float) -> np.ndarray:
    """1 where consulting the side path improves the target log-likelihood
    by more than `margin`; any trace that ran the side network will do."""
    return (trace.cate() > margin).astype(np.int64)


def side_objective(
    model: SpaModel, ids, tcfg: TrainConfig, base: BaseTrace | None = None
) -> Tensor:
    """The side/gate objective (module docstring) over a (T+1,) block or a
    (B, T+1) batch of blocks, from one soft-gate forward; `base` as in
    `teacher_forced`."""
    fused_nll, trace = token_loss(model, ids, gate_mode="soft", base=base)
    gate_ce = nc.cross_entropy(trace.gate_logits, gate_labels(trace, tcfg.gate_margin))
    usage = nc.column(trace.gate_probs, 1).mean()
    return nc.add(nc.add(fused_nll, gate_ce), nc.smul(usage, tcfg.usage_weight))


def train_side_and_gate(model: SpaModel, tcfg: TrainConfig, corpus: Corpus,
                        log=None) -> TrainResult:
    """Optimize side + gate against the combined objective; base must be frozen."""
    if not model.base.frozen:
        raise ContractError("train_side_and_gate: base parameters must be frozen first")
    if not corpus.documents:
        raise ContractError("train_side_and_gate: corpus is empty")
    digest_before = model.base_digest()
    blocks, val_docs = _training_split(corpus, tcfg)
    features = BaseFeatures.for_model(model, digest_before, blocks, val_docs, tcfg.batch_size)

    def batch_loss(batch):
        return side_objective(model, blocks[batch], tcfg, features.batch(batch))

    def validate():
        return _fused_val_perplexity(model, val_docs, bases=features.val)

    result = _train_epochs("side", model.trainable_tensors(), tcfg, len(blocks),
                           batch_loss, validate, log)
    if model.base_digest() != digest_before:
        raise ContractError("frozen base changed during side training (checksum mismatch)")
    return result


@dataclass
class GridRun:
    learning_rate: float
    result: TrainResult
    base_digest_before: str
    base_digest_after: str
    side_arrays: dict[str, np.ndarray]
    gate_arrays: dict[str, np.ndarray]


def run_lr_grid(
    model: SpaModel, tcfg: TrainConfig, corpus: Corpus, grid=LR_GRID, log=None
) -> tuple[GridRun, list[GridRun]]:
    """Train side + gate once per learning rate; keep the best validation loss.

    Each run starts from identically re-initialized side/gate parameters.
    The winning run's parameters are left installed on the model.
    """
    runs: list[GridRun] = []
    for lr in grid:
        reinit_side_and_gate(model, tcfg.seed)
        before = model.base_digest()
        result = train_side_and_gate(model, replace(tcfg, learning_rate=lr), corpus, log=log)
        runs.append(
            GridRun(
                learning_rate=lr,
                result=result,
                base_digest_before=before,
                base_digest_after=model.base_digest(),
                side_arrays=model.side.export_arrays(),
                gate_arrays=model.gate.export_arrays(),
            )
        )
        if log:
            log(f"grid lr {lr:g}: final val ppl {result.final.val_perplexity:.3f}")
    best = min(runs, key=lambda r: r.result.final.val_perplexity)
    model.side.load_arrays(best.side_arrays)
    model.gate.load_arrays(best.gate_arrays)
    return best, runs
