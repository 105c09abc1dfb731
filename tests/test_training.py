"""Pretraining, side/gate training, frozen-base invariants, reproducibility."""

import math

import numpy as np
import pytest

import spa.model
from spa import numcore as nc
from spa.corpus import Corpus, make_synthetic_personalized_corpus
from spa.errors import ContractError
from spa.metrics import perplexity
from spa.model import (
    ModelConfig,
    SpaModel,
    base_forward,
    cate_estimate,
    fuse,
    ladder,
    token_loss,
)
from spa.tokenizer import VOCAB_SIZE, ByteTokenizer
from spa.training import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    gate_labels,
    pretrain_base,
    reinit_side_and_gate,
    run_lr_grid,
    token_blocks,
    train_side_and_gate,
)

CFG = ModelConfig(
    n_layers=2, d_model=32, n_heads=4, d_ff=64,
    vocab_size=VOCAB_SIZE, max_seq_len=64, side_reduction=8,
)
TCFG = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=4, block_size=24)


def small_corpora():
    base, pers = make_synthetic_personalized_corpus(21, "small")
    return Corpus("b", base.documents[:64]), Corpus("p", pers.documents[:24])


@pytest.fixture(scope="module")
def pretrained():
    base_corpus, _ = small_corpora()
    model, result = pretrain_base(CFG, TCFG, base_corpus)
    return model, result, base_corpus


class TestBlocks:
    def test_blocks_have_block_plus_one_tokens(self):
        blocks = token_blocks(["hello world"] * 10, ByteTokenizer(), 8)
        assert blocks.shape[1] == 9

    def test_too_small_corpus_rejected(self):
        with pytest.raises(ContractError):
            token_blocks(["hi"], ByteTokenizer(), 64)


class TestAdam:
    def test_descends_on_a_quadratic(self):
        w = nc.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            with nc.Tape() as tape:
                loss = nc.mul(w, w).sum()
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
        assert np.abs(w.data).max() < 1e-2

    def test_skips_parameters_without_grad(self):
        w = nc.Tensor(np.ones(2), requires_grad=True)
        opt = Adam([w], lr=0.1)
        opt.step()
        assert np.array_equal(w.data, np.ones(2))


class TestPretrain:
    def test_smoke_run_reduces_loss(self, pretrained):
        _, result, _ = pretrained
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss
        assert result.epochs[-1].train_loss < math.log(VOCAB_SIZE)

    def test_all_base_tensors_frozen_after(self, pretrained):
        model, _, _ = pretrained
        assert model.base.frozen
        assert all(not t.requires_grad for t in model.base.tensors())

    def test_same_seed_reproduces_identical_checksum(self):
        base_corpus, _ = small_corpora()
        quick = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})
        m1, _ = pretrain_base(CFG, quick, base_corpus)
        m2, _ = pretrain_base(CFG, quick, base_corpus)
        assert m1.base_digest() == m2.base_digest()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            pretrain_base(CFG, TCFG, Corpus("e", []))

    def test_reported_perplexity_is_the_scorers(self, pretrained):
        model, result, base_corpus = pretrained
        _, val_docs, _ = base_corpus.splits(TCFG.seed)
        assert result.final.val_perplexity == perplexity(model, val_docs, "base_only")

    def test_nan_parameter_aborts_with_divergence_error(self):
        base_corpus, _ = small_corpora()
        model = SpaModel.create(CFG, seed=0)
        # poison a parameter every forward pass reads
        model.base["pos_emb"].data[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            pretrain_base(
                CFG, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), base_corpus, model=model
            )


class TestSideTraining:
    def test_base_checksum_unchanged_and_usage_reported(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        before = model.base_digest()
        reinit_side_and_gate(model, 7)
        result = train_side_and_gate(model, TCFG, pers)
        assert model.base_digest() == before
        assert result.final.gate_usage is not None
        assert 0.0 <= result.final.gate_usage <= 1.0

    def test_unfrozen_base_rejected_before_training(self):
        _, pers = small_corpora()
        model = SpaModel.create(CFG, seed=0)  # never frozen
        with pytest.raises(ContractError):
            train_side_and_gate(model, TCFG, pers)

    def test_nan_side_parameter_aborts_with_divergence_error(self):
        _, pers = small_corpora()
        model = SpaModel.create(CFG, seed=0)
        model.base.freeze()
        # poison the side output every fused position reads
        model.side["up.b"].data[0] = np.nan
        with pytest.raises(
            TrainingDivergedError, match="side training loss became non-finite at epoch 0"
        ):
            train_side_and_gate(model, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), pers)

    def test_reported_usage_matches_independent_pass(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        reinit_side_and_gate(model, 3)
        result = train_side_and_gate(
            model, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), pers
        )
        # independent pass: raw numpy gate over the same validation docs
        tok = ByteTokenizer()
        _, val_docs, _ = pers.splits(TCFG.seed)
        used = total = 0
        with nc.no_grad():
            for doc in val_docs:
                ids = np.asarray(tok.encode_document(doc))[: CFG.max_seq_len]
                trace = base_forward(CFG, model.base, ids[:-1])
                logits = trace.final.data @ model.gate["w"].data + model.gate["b"].data
                used += int((np.argmax(logits, axis=1) == 1).sum())
                total += logits.shape[0]
        assert result.final.gate_usage == pytest.approx(used / total)

    def test_reported_perplexity_is_the_scorers(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        reinit_side_and_gate(model, 5)
        result = train_side_and_gate(
            model, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), pers
        )
        _, val_docs, _ = pers.splits(TCFG.seed)
        assert result.final.val_perplexity == perplexity(model, val_docs, "spa")

    def test_empty_validation_split_reports_nan(self, pretrained):
        model, _, _ = pretrained
        reinit_side_and_gate(model, 5)
        tiny = Corpus("t", ["abcdefghijklmnopqrstuvwxyz " * 8] * 2)
        result = train_side_and_gate(
            model, TrainConfig(epochs=1, block_size=8, seed=0), tiny
        )
        assert math.isnan(result.final.val_perplexity)
        assert math.isnan(result.final.gate_usage)

    def test_training_is_reproducible_bitwise(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        quick = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})
        reinit_side_and_gate(model, 9)
        train_side_and_gate(model, quick, pers)
        first = (model.side.digest(), model.gate.digest())
        reinit_side_and_gate(model, 9)
        train_side_and_gate(model, quick, pers)
        assert (model.side.digest(), model.gate.digest()) == first


class TestGateLabels:
    def test_labels_match_brute_force_per_position_recomputation(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        ids = np.asarray(ByteTokenizer().encode_document(pers.documents[0]))[:20]
        labels = gate_labels(token_loss(model, ids, gate_mode="soft")[1], margin=0.0)
        inputs, targets = ids[:-1], ids[1:]
        with nc.no_grad():
            for i in range(len(targets)):
                # evaluate both paths independently for this one position
                bt = base_forward(CFG, model.base, inputs)
                lp_base = nc.log_softmax_rows(bt.logits.data)[i, targets[i]]
                side = ladder(CFG, model.side, bt.hiddens)
                _, fused_logits = fuse(
                    bt.final, side, np.ones(len(inputs)), model.base["out_proj"]
                )
                lp_on = nc.log_softmax_rows(fused_logits.data)[i, targets[i]]
                assert labels[i] == int(lp_on - lp_base > 0.0)

    def test_soft_trace_labels_equal_cate_estimate_bitwise(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        reinit_side_and_gate(model, 13)
        tok = ByteTokenizer()
        for doc in pers.documents[:4]:
            ids = np.asarray(tok.encode_document(doc))[: CFG.max_seq_len]
            with nc.Tape():  # the trace as a training step builds it
                _, trace = token_loss(model, ids, gate_mode="soft")
            gains = cate_estimate(model, ids)
            assert np.array_equal(trace.cate(), gains)
            for margin in (0.0, *np.quantile(gains, (0.1, 0.25, 0.5, 0.75, 0.9))):
                want = (gains > margin).astype(np.int64)
                assert np.array_equal(gate_labels(trace, margin), want), margin


class TestOneForwardPerBlock:
    def test_epoch_runs_base_and_ladder_once_per_block_and_scored_document(
        self, pretrained, monkeypatch
    ):
        model, _, _ = pretrained
        _, pers = small_corpora()
        quick = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})
        tok = ByteTokenizer()
        train_docs, val_docs, _ = pers.splits(quick.seed)
        blocks = len(token_blocks(train_docs, tok, quick.block_size))
        scored = sum(len(tok.encode_document(d)[: CFG.max_seq_len]) >= 2 for d in val_docs)
        calls = {"base_forward": 0, "ladder": 0}
        for name in calls:
            real = getattr(spa.model, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(spa.model, name, counted)
        reinit_side_and_gate(model, 3)
        train_side_and_gate(model, quick, pers)
        assert blocks > 0 and scored > 0
        assert calls == {"base_forward": blocks + scored, "ladder": blocks + scored}


class TestLrGrid:
    def test_grid_selects_best_validation_and_preserves_base(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        quick = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})
        best, runs = run_lr_grid(model, quick, pers, grid=(5e-4, 1e-3))
        assert len(runs) == 2
        assert best.result.final.val_perplexity == min(
            r.result.final.val_perplexity for r in runs
        )
        assert all(r.base_digest_before == r.base_digest_after for r in runs)
        # winner's parameters are installed
        installed = model.side.export_arrays()
        for name, arr in best.side_arrays.items():
            assert np.array_equal(installed[name], arr)
