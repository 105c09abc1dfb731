"""Pretraining, side/gate training, frozen-base invariants, reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

import spa.model
from spa import numcore as nc
from spa.checkpoint import load_checkpoint, save_model
from spa.corpus import Corpus, make_synthetic_personalized_corpus
from spa.errors import ContractError, DimensionError
from spa.metrics import perplexity, scored_ids, teacher_forced_nll
from spa.model import (
    GATE_MODES,
    ModelConfig,
    SpaModel,
    base_forward,
    cate_estimate,
    fuse,
    ladder,
    teacher_forced,
    token_loss,
)
from spa.numcore import Tape
from spa.tokenizer import VOCAB_SIZE, ByteTokenizer
from spa.training import (
    Adam,
    BaseFeatures,
    TrainConfig,
    TrainingDivergedError,
    gate_labels,
    pretrain_base,
    reinit_side_and_gate,
    run_lr_grid,
    side_objective,
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

    def test_nan_parameter_aborts_with_divergence_error(self, monkeypatch):
        base_corpus, _ = small_corpora()
        create = SpaModel.create

        def poisoned(config, seed):
            model = create(config, seed=seed)
            # poison a parameter every forward pass reads
            model.base["pos_emb"].data[0, 0] = np.nan
            return model

        monkeypatch.setattr(SpaModel, "create", staticmethod(poisoned))
        with pytest.raises(TrainingDivergedError):
            pretrain_base(CFG, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), base_corpus)


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
        labels = gate_labels(token_loss(model, ids, "on")[1], margin=0.0)
        inputs, targets = ids[:-1], ids[1:]
        with nc.no_grad():
            for i in range(len(targets)):
                # evaluate both paths independently for this one position
                bt = base_forward(CFG, model.base, inputs)
                lp_base = nc.log_softmax_rows(bt.logits.data)[i, targets[i]]
                side = ladder(CFG, model.side, bt.hiddens)
                _, fused_logits = fuse(
                    bt.final, side, np.ones(len(inputs), dtype=np.int64), model.base["out_proj"]
                )
                lp_on = nc.log_softmax_rows(fused_logits.data)[i, targets[i]]
                assert labels[i] == int(lp_on - lp_base > 0.0)

    def test_training_trace_labels_equal_cate_estimate_bitwise(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        reinit_side_and_gate(model, 13)
        tok = ByteTokenizer()
        for doc in pers.documents[:4]:
            ids = np.asarray(tok.encode_document(doc))[: CFG.max_seq_len]
            with nc.Tape():  # the trace as a training step builds it
                _, trace = token_loss(model, ids, "on")
            gains = cate_estimate(model, ids)
            assert np.array_equal(trace.cate(), gains)
            for margin in (0.0, *np.quantile(gains, (0.1, 0.25, 0.5, 0.75, 0.9))):
                want = (gains > margin).astype(np.int64)
                assert np.array_equal(gate_labels(trace, margin), want), margin


def fresh_model(seed=23):
    model = SpaModel.create(CFG, seed=seed)
    model.base.freeze()
    return model


def hex_logs(result):
    return [(e.train_loss.hex(), e.val_perplexity.hex(), e.gate_usage.hex())
            for e in result.epochs]


def reference_side_training(model, tcfg, corpus):
    """Side training as one forward of `side_objective` per batch, base
    included, and the scorer run afresh after every epoch: the formulation
    the table of base features must reproduce bit for bit."""
    tok = ByteTokenizer()
    train_docs, val_docs, _ = corpus.splits(tcfg.seed)
    blocks = token_blocks(train_docs, tok, tcfg.block_size)
    opt = Adam(model.side.tensors() + model.gate.tensors(), tcfg.learning_rate)
    rng = np.random.default_rng(tcfg.seed)
    logs = []
    for _ in range(tcfg.epochs):
        order = rng.permutation(len(blocks))
        losses = []
        for start in range(0, len(order), tcfg.batch_size):
            with Tape() as tape:
                loss = side_objective(model, blocks[order[start : start + tcfg.batch_size]], tcfg)
            opt.zero_grad()
            tape.backward(loss)
            opt.step()
            losses.append(loss.item())
        total, count, used = teacher_forced_nll(model, val_docs)["spa"]
        logs.append((float(np.mean(losses)).hex(), math.exp(total / count).hex(),
                     (used / count).hex()))
    return logs


class TestBaseFeatures:
    """Side training runs the frozen base once per training block and
    scored validation document for each base and corpus, and reads every
    batch and validation pass from that table."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"base_forward": [], "ladder": 0}
        real_forward, real_ladder = spa.model.base_forward, spa.model.ladder

        def forward(*args, **kwargs):
            calls["base_forward"].append(np.asarray(args[2]).copy())
            return real_forward(*args, **kwargs)

        def ladder_(*args, **kwargs):
            calls["ladder"] += 1
            return real_ladder(*args, **kwargs)

        for module in (spa.model, spa.training):
            monkeypatch.setattr(module, "base_forward", forward)
        monkeypatch.setattr(spa.model, "ladder", ladder_)
        return calls

    @staticmethod
    def split(corpus, tcfg):
        tok = ByteTokenizer()
        train_docs, val_docs, _ = corpus.splits(tcfg.seed)
        blocks = token_blocks(train_docs, tok, tcfg.block_size)
        val_ids = [np.asarray(tok.encode_document(d))[: CFG.max_seq_len] for d in val_docs]
        return blocks, [ids for ids in val_ids if ids.size >= 2]

    def test_base_runs_once_per_block_and_scored_document(self, monkeypatch):
        _, pers = small_corpora()
        tcfg = TrainConfig(**{**TCFG.to_dict(), "epochs": 3})
        blocks, scored = self.split(pers, tcfg)
        batches = math.ceil(len(blocks) / tcfg.batch_size)
        assert batches > 1 and len(blocks) % tcfg.batch_size and scored
        model = fresh_model()
        calls = self.count_calls(monkeypatch)
        train_side_and_gate(model, tcfg, pers)
        # the training blocks in block order, in chunks of batch_size, then
        # each scored validation document's inputs
        want = [blocks[i : i + tcfg.batch_size, :-1] for i in range(0, len(blocks), tcfg.batch_size)]
        want += [ids[:-1] for ids in scored]
        assert len(calls["base_forward"]) == len(want)
        for got, ids in zip(calls["base_forward"], want):
            assert np.array_equal(got, ids)
        # the ladder still runs once per batch and scored document, every epoch
        assert calls["ladder"] == tcfg.epochs * (batches + len(scored))

        calls["base_forward"].clear()
        calls["ladder"] = 0
        reinit_side_and_gate(model, 3)
        train_side_and_gate(model, tcfg, pers)
        assert calls["base_forward"] == []
        assert calls["ladder"] == tcfg.epochs * (batches + len(scored))

    def test_epoch_logs_equal_the_per_batch_formulation(self, pretrained):
        model, _, _ = pretrained
        _, pers = small_corpora()
        tcfg = TrainConfig(**{**TCFG.to_dict(), "epochs": 3})
        reinit_side_and_gate(model, 17)
        want = reference_side_training(model, tcfg, pers)
        want_params = (model.side.digest(), model.gate.digest())
        for _ in range(2):  # the call that fills the table, then one that reuses it
            reinit_side_and_gate(model, 17)
            result = train_side_and_gate(model, tcfg, pers)
            assert hex_logs(result) == want
            assert (model.side.digest(), model.gate.digest()) == want_params

    def test_second_call_equals_a_first_call_on_a_fresh_model(self):
        _, pers = small_corpora()
        warm = fresh_model()
        train_side_and_gate(warm, TCFG, pers)
        reinit_side_and_gate(warm, 5)
        second = train_side_and_gate(warm, TCFG, pers)
        cold = fresh_model()
        reinit_side_and_gate(cold, 5)
        assert hex_logs(second) == hex_logs(train_side_and_gate(cold, TCFG, pers))
        assert (warm.side.digest(), warm.gate.digest()) == (cold.side.digest(), cold.gate.digest())

    def test_a_changed_base_or_corpus_rebuilds_the_table(self, monkeypatch):
        base_corpus, pers = small_corpora()
        other = Corpus("o", base_corpus.documents[:24])
        tcfg = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})

        def perturb(model):
            model.base["layers.0.ffn.w1"].data[0, 0] += 0.5

        def expected(corpus, perturbed):
            model = fresh_model()
            if perturbed:
                perturb(model)
            reinit_side_and_gate(model, 5)
            return hex_logs(train_side_and_gate(model, tcfg, corpus))

        want_perturbed, want_other = expected(pers, True), expected(other, True)
        model = fresh_model()
        train_side_and_gate(model, tcfg, pers)  # the table of the unperturbed base
        calls = self.count_calls(monkeypatch)

        def assert_rebuilt(corpus, want):
            blocks, scored = self.split(corpus, tcfg)
            calls["base_forward"].clear()
            reinit_side_and_gate(model, 5)
            assert hex_logs(train_side_and_gate(model, tcfg, corpus)) == want
            assert len(calls["base_forward"]) == (
                math.ceil(len(blocks) / tcfg.batch_size) + len(scored))

        perturb(model)
        assert_rebuilt(pers, want_perturbed)
        assert_rebuilt(other, want_other)

    def test_table_is_not_part_of_the_models_value(self):
        _, pers = small_corpora()
        model = fresh_model()
        train_side_and_gate(model, TrainConfig(**{**TCFG.to_dict(), "epochs": 1}), pers)
        assert model.base_features is not None
        assert model == dataclasses.replace(model, base_features=None)
        assert "base_features" not in repr(model)


def assert_rel(actual, want, rel):
    """max |actual - want| within `rel` of max |want| (exact when want is 0)."""
    actual, want = np.asarray(actual, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert actual.shape == want.shape
    assert np.max(np.abs(actual - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@pytest.fixture(scope="module")
def gated_model():
    """A seeded model whose gate mixes both paths and whose side output is
    large enough for the side path's effect to be far from zero."""
    model = SpaModel.create(CFG, seed=31)
    rng = np.random.default_rng(31)
    model.gate["w"].data[:] = rng.standard_normal((CFG.d_model, 2)) * 0.8
    model.side["up.w"].data *= 25.0
    model.base.freeze()
    return model


def random_blocks(n, seed=5):
    return np.random.default_rng(seed).integers(0, VOCAB_SIZE, size=(n, 13))


class TestBatchedForward:
    """A (B, T+1) batch is the per-block forwards stacked, and its loss and
    gradients are those of the per-block losses averaged."""

    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_rows_are_the_per_block_traces_stacked(self, gated_model, gate_mode, n_blocks):
        blocks = random_blocks(n_blocks)
        with nc.no_grad():
            batched = teacher_forced(gated_model, blocks, gate_mode)
            per = [teacher_forced(gated_model, block, gate_mode) for block in blocks]
        assert np.array_equal(batched.targets, np.concatenate([t.targets for t in per]))
        assert_rel(batched.fused_logits.data,
                   np.concatenate([t.fused_logits.data for t in per]), 1e-12)
        assert_rel(batched.gate_trace, np.concatenate([t.gate_trace for t in per]), 1e-12)
        assert_rel(batched.fused_target_logprobs,
                   np.concatenate([t.fused_target_logprobs for t in per]), 1e-12)
        if gate_mode == "hard" and n_blocks > 1:
            assert 0 < batched.gate_trace.sum() < batched.gate_trace.size
        if n_blocks == 1:  # a one-block batch runs the 1-D path's numpy calls
            assert batched.fused_logits.data.tobytes() == per[0].fused_logits.data.tobytes()

    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_batch_loss_is_the_mean_of_block_losses(self, gated_model, n_blocks):
        blocks = random_blocks(n_blocks)
        with nc.no_grad():
            for gate_mode in GATE_MODES:
                want = np.mean([token_loss(gated_model, b, gate_mode)[0].item() for b in blocks])
                assert_rel(token_loss(gated_model, blocks, gate_mode)[0].item(), want, 1e-12)
            want = np.mean([side_objective(gated_model, b, TCFG).item() for b in blocks])
            assert_rel(side_objective(gated_model, blocks, TCFG).item(), want, 1e-12)

    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_gradients_match_the_per_block_summed_path(self, gated_model, n_blocks):
        blocks = random_blocks(n_blocks)
        params = gated_model.side.tensors() + gated_model.gate.tensors()
        for p in params:
            p.grad = None
        with Tape() as tape:  # the per-block path: sum of block losses / B
            total = side_objective(gated_model, blocks[0], TCFG)
            for block in blocks[1:]:
                total = nc.add(total, side_objective(gated_model, block, TCFG))
            total = nc.smul(total, 1.0 / n_blocks)
        tape.backward(total)
        per_block = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        with Tape() as tape:
            loss = side_objective(gated_model, blocks, TCFG)
        tape.backward(loss)
        for p, want in zip(params, per_block):
            assert_rel(p.grad, want, 1e-10)
        for p in params:
            p.grad = None

    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_a_precomputed_base_is_read_in_place_of_the_base(self, gated_model, n_blocks):
        blocks = random_blocks(n_blocks)
        ids = blocks[0] if n_blocks == 1 else blocks
        with nc.no_grad():
            base = base_forward(CFG, gated_model.base, ids[..., :-1])
            for gate_mode in GATE_MODES:
                want = teacher_forced(gated_model, ids, gate_mode)
                got = teacher_forced(gated_model, ids, gate_mode, base)
                assert got.base is base
                assert got.fused_logits.data.tobytes() == want.fused_logits.data.tobytes()
                assert got.gate_trace.tobytes() == want.gate_trace.tobytes()
            with pytest.raises(DimensionError):
                teacher_forced(gated_model, random_blocks(n_blocks + 1), "on", base)

    def test_one_dimensional_forward_is_the_composition_of_its_parts(self, gated_model):
        """The 1-D path runs base, gate, ladder and fusion on the sequence's
        own rows, bit for bit as the composed parts do."""
        ids = random_blocks(1, seed=9)[0]
        cfg, m = gated_model.config, gated_model
        with nc.no_grad():
            for gate_mode in GATE_MODES:
                trace = teacher_forced(m, ids, gate_mode)
                bt = base_forward(cfg, m.base, ids[:-1])
                glog = spa.model.gate_logits(m.gate, bt.final)
                bits = {"hard": spa.model.gate_decide(glog.data),
                        "on": np.ones(len(ids) - 1, dtype=np.int64)}[gate_mode]
                _, want = fuse(bt.final, ladder(cfg, m.side, bt.hiddens), bits, m.base["out_proj"])
                assert trace.fused_logits.data.tobytes() == want.data.tobytes()
                assert trace.gate_logits.data.tobytes() == glog.data.tobytes()
                assert trace.gate_trace.tobytes() == bits.tobytes()


class TestStoredBaseLogprobs:
    """Side-training batches carry the base's stored target log-probs in
    place of base logits, and `cate` from them is the full forward's."""

    @staticmethod
    def table(model, blocks):
        # a shallow copy, so the table is not installed on the shared fixture
        model = dataclasses.replace(model)
        return model, BaseFeatures.for_model(model, model.base_digest(), blocks, [], chunk=2)

    @pytest.mark.parametrize("gate_mode", GATE_MODES)
    def test_cate_from_the_table_equals_a_full_forward(self, gated_model, gate_mode):
        blocks = random_blocks(5)
        model, features = self.table(gated_model, blocks)
        batch = np.array([3, 0, 4])  # rows from three different build chunks
        base = features.batch(batch)
        assert base.logits is None
        assert base.target_logprobs.shape == (3 * (blocks.shape[1] - 1),)
        with nc.no_grad():
            got = teacher_forced(model, blocks[batch], gate_mode, base)
            want = teacher_forced(model, blocks[batch], gate_mode)
        assert got.fused_logits.data.tobytes() == want.fused_logits.data.tobytes()
        assert np.array_equal(got.base_target_logprobs(), want.base_target_logprobs())
        if gate_mode == "on":
            assert np.array_equal(got.cate(), want.cate())

    def test_validation_traces_carry_the_base_target_logprobs(self, gated_model):
        docs = ["the amber river", "a lantern by the quiet mill"]
        model = dataclasses.replace(gated_model)
        features = BaseFeatures.for_model(model, model.base_digest(), random_blocks(2), docs, 2)
        for ids, base in zip(scored_ids(docs, CFG.max_seq_len), features.val, strict=True):
            assert base.logits is None and base.kv == []
            logits = base_forward(CFG, model.base, ids[:-1]).logits.data
            want = nc.target_log_softmax(logits, ids[1:])
            assert base.target_logprobs.tobytes() == want.tobytes()

    def test_stored_logprobs_must_cover_every_target(self, gated_model):
        blocks = random_blocks(3)
        model, features = self.table(gated_model, blocks)
        base = features.batch(np.array([0, 1]))
        short = dataclasses.replace(base, target_logprobs=base.target_logprobs[:-1])
        with pytest.raises(DimensionError, match="log-probs"):
            teacher_forced(model, blocks[:2], "on", short)

    def test_cate_without_logits_or_stored_logprobs_is_a_contract_error(self, gated_model):
        blocks = random_blocks(2)
        model, features = self.table(gated_model, blocks)
        bare = dataclasses.replace(features.batch(np.array([0, 1])), target_logprobs=None)
        with nc.no_grad():
            trace = teacher_forced(model, blocks, "on", bare)
        with pytest.raises(ContractError, match="neither logits nor"):
            trace.cate()


class TestOneForwardPerBatch:
    """A side-training batch fits the "on" forward, whose fused logits are
    CATE's on-logits: the gate labels come from the fused NLL's own target
    log-probs, bit for bit the served fusion's, with no second pass."""

    @staticmethod
    def batch(model, n_blocks=4):
        # the batch as training runs it: base rows from the table of features
        blocks = random_blocks(n_blocks)
        model = dataclasses.replace(model)  # keep the table off the shared fixture
        features = BaseFeatures.for_model(model, model.base_digest(), blocks, [], chunk=2)
        batch = np.arange(n_blocks)[::-1]
        return model, blocks[batch], features.batch(batch)

    def test_on_trace_is_the_served_fusion_bit_for_bit(self, gated_model):
        model, ids, base = self.batch(gated_model)
        with nc.no_grad():
            trace = teacher_forced(model, ids, "on", base)
        served = spa.model.served_fusion(model.base, base.final.data, trace.side_out.data)
        for got, want in zip(trace.fused_logits.data, served):
            assert list(map(float.hex, got)) == list(map(float.hex, want))
        want_lp = nc.target_log_softmax(trace.fused_logits.data, trace.targets)
        assert trace.fused_target_logprobs.tobytes() == want_lp.tobytes()
        gains = nc.target_log_softmax(served, trace.targets) - base.target_logprobs
        assert 0 < (gains > 0).sum() < gains.size
        for margin in (0.0, *np.quantile(gains, (0.25, 0.5, 0.75))):
            want = (gains > margin).astype(np.int64)
            assert gate_labels(trace, margin).tobytes() == want.tobytes(), margin

    def test_a_batch_runs_one_output_projection_and_one_vocab_wide_log_softmax(
            self, gated_model, monkeypatch):
        model, ids, base = self.batch(gated_model)
        calls = {"served_fusion": [], "matmul": [], "log_softmax": []}

        def spy(module, name, key, pick):
            real = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[key].append(pick(args))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        spy(spa.model, "served_fusion", "served_fusion", lambda args: None)
        spy(nc, "matmul", "matmul", lambda args: args[1])
        for name in ("log_softmax_rows", "target_log_softmax"):
            spy(nc, name, "log_softmax", lambda args: args[0].shape[-1])
        with Tape() as tape:
            loss = side_objective(model, ids, TCFG, base)
        tape.backward(loss)
        assert calls["served_fusion"] == []
        assert len(calls["matmul"]) == 1 and calls["matmul"][0] is model.base["out_proj"]
        # the other log softmax is the gate cross-entropy's, two classes wide
        assert sorted(calls["log_softmax"]) == [2, CFG.vocab_size]

    def test_cate_needs_every_row_fused(self, gated_model):
        with nc.no_grad():
            trace = teacher_forced(gated_model, random_blocks(3), "hard")
        assert 0 < trace.gate_trace.sum() < trace.gate_trace.size
        with pytest.raises(ContractError, match="every row"):
            trace.cate()


class TestEpochLoss:
    """With lr 0 the parameters stay put, so an epoch's loss is the mean,
    over the epoch's seeded batches, of the stage's loss on each batch."""

    @staticmethod
    def frozen_epoch(corpus):
        tcfg = TrainConfig(**{**TCFG.to_dict(), "epochs": 1, "learning_rate": 0.0})
        blocks = token_blocks(corpus.splits(tcfg.seed)[0], ByteTokenizer(), tcfg.block_size)
        order = np.random.default_rng(tcfg.seed).permutation(len(blocks))
        batches = [blocks[order[i : i + tcfg.batch_size]]
                   for i in range(0, len(order), tcfg.batch_size)]
        assert len(batches) > 1 and len(batches[-1]) < tcfg.batch_size
        return batches, tcfg

    def test_pretraining_epoch_loss_is_the_mean_of_batch_losses(self):
        base_corpus, _ = small_corpora()
        batches, tcfg = self.frozen_epoch(base_corpus)
        model = SpaModel.create(CFG, seed=tcfg.seed)
        with nc.no_grad():
            want = np.mean([
                nc.cross_entropy(base_forward(CFG, model.base, b[:, :-1]).logits,
                                 b[:, 1:].reshape(-1)).item()
                for b in batches
            ])
        _, result = pretrain_base(CFG, tcfg, base_corpus)
        assert_rel(result.final.train_loss, want, 1e-12)

    def test_side_epoch_loss_is_the_mean_of_batch_losses(self, gated_model):
        _, pers = small_corpora()
        batches, tcfg = self.frozen_epoch(pers)
        with nc.no_grad():
            want = np.mean([side_objective(gated_model, b, tcfg).item() for b in batches])
        result = train_side_and_gate(gated_model, tcfg, pers)
        assert_rel(result.final.train_loss, want, 1e-12)


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
        # each run keeps its own trained bundles, and the winner's are installed
        assert runs[0].side is not runs[1].side and runs[0].gate is not runs[1].gate
        assert model.side is best.side and model.gate is best.gate

    def test_single_rate_run_on_a_built_base_model_is_the_grid_run(self, pretrained, tmp_path):
        """`spa train-side --lr X` (one run on `build_base_model(seed)`) and
        the grid's run at X start from the same side and gate draw."""
        model, _, _ = pretrained
        _, pers = small_corpora()
        path = tmp_path / "base.ckpt"
        save_model(model, path, kind="base")
        loaded = load_checkpoint(path)
        quick = TrainConfig(**{**TCFG.to_dict(), "epochs": 1})

        def hex_logs(result):
            return [(e.epoch, e.train_loss.hex(), e.val_perplexity.hex(), e.gate_usage.hex())
                    for e in result.epochs]

        single = loaded.build_base_model(seed=quick.seed)
        one = train_side_and_gate(single, quick, pers)
        _, runs = run_lr_grid(loaded.build_base_model(seed=quick.seed), quick, pers,
                              grid=(5e-4, quick.learning_rate))
        assert hex_logs(one) == hex_logs(runs[1].result)
        assert single.side.digest() == runs[1].side.digest()
        assert single.gate.digest() == runs[1].gate.digest()
