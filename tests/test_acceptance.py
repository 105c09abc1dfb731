"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.
"""

import contextlib
import itertools
import threading
import time
import warnings

import numpy as np
import pytest

from spa import numcore as nc
from spa.checkpoint import load_checkpoint
from spa.cloud import CloudEndpoint
from spa.decoding import (
    CloudStepModel,
    DecodeConfig,
    beam_decode,
    decode_monolithic,
    greedy_decode,
    local_side_provider,
)
from spa.device import SideBundle, run_device
from spa.gradcheck import grad_check
from spa.latency import LatencyProfile, build_comparison_table, format_rows
from spa.metrics import lcs_length, perplexity, rouge_l, usage_percentage
from spa.model import ModelConfig, SpaModel, token_loss
from spa.tokenizer import BOS, EOS, ByteTokenizer
from spa.training import TrainConfig, gate_labels, side_objective
from spa.wire import (
    BadFrameError,
    OversizeFrameError,
    TruncatedFrameError,
    decode_frame,
    encode_frame,
)

from conftest import STACK_SEED, tcp_pair


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def loopback_generate(model, bundle, prompt_ids, dcfg):
    endpoint = CloudEndpoint.from_model(model, wire_mode=dcfg.wire_mode, frame_timeout=30.0)
    dev_end, cloud_end = tcp_pair()
    box = {}

    def serve():
        box["record"] = endpoint.handle_session(cloud_end)

    thread = threading.Thread(target=serve)
    thread.start()
    result = run_device(bundle, dcfg, prompt_ids=prompt_ids, transport=dev_end,
                        frame_timeout=30.0)
    thread.join(timeout=60)
    return result, box["record"]


def test_criterion_1_transmission_ratios():
    with criterion(1, "transmission-ratio reproduction"):
        start = time.monotonic()
        rows = build_comparison_table(
            LatencyProfile(t_pretrained=3.29 / 50), usage=0.62, n_layers=32
        )
        ratios = [row.ratio for row in rows]
        assert ratios == [32.0, 64.0, 1.0, 0.62]  # exact equality
        assert time.monotonic() - start < 1.0


def test_criterion_2_latency_arithmetic():
    with criterion(2, "latency arithmetic under the 6.2 ms calibration"):
        profile = LatencyProfile(
            tau=2.0e-3, t_data=4.2e-3, f_data=0.0, t_pretrained=3.29 / 50
        )
        rows = {r.arch: r for r in build_comparison_table(profile, usage=0.62, n_layers=32)}
        assert rows["lst"].t_total == pytest.approx(3.60, abs=0.01)
        assert abs(rows["spa"].t_total - 3.48) / 3.48 < 0.03
        # modeled and reference columns must appear side by side; the lora /
        # adapter reference net-latency cells are declared non-reconcilable
        table = format_rows(list(rows.values()), "table")
        assert "RefNet" in table and "Net s" in table
        assert rows["lora"].ref_net == 6.37
        assert abs(rows["lora"].t_net - rows["lora"].ref_net) > 1.0


def test_criterion_3_split_monolithic_equivalence(trained_stack):
    with criterion(3, "split/monolithic equivalence over 100 prompts"):
        start = time.monotonic()
        model = load_checkpoint(trained_stack.paths["full"]).build_model()
        cloud = load_checkpoint(trained_stack.paths["cloud"])
        base, gate = cloud.build_cloud_parts()
        endpoint_model = SpaModel(cloud.config, base,
                                  SideBundle.from_checkpoint(
                                      trained_stack.paths["side"]).side, gate)
        bundle = SideBundle.from_checkpoint(trained_stack.paths["side"])
        rng = np.random.default_rng(100)
        tok = ByteTokenizer()
        docs = trained_stack.personal_corpus.documents
        mismatches = 0
        for i in range(100):
            if i % 2 == 0:
                head = docs[int(rng.integers(len(docs)))][: int(rng.integers(4, 14))]
                prompt = [BOS, *tok.encode(head)]
            else:
                prompt = [BOS, *(int(t) for t in rng.integers(32, 127, rng.integers(2, 10)))]
            dcfg = DecodeConfig(max_new_tokens=16, policy="spa")
            mono = decode_monolithic(model, prompt, dcfg, eos_id=EOS)
            split, record = loopback_generate(endpoint_model, bundle, prompt, dcfg)
            assert split.completed and split.error is None, f"prompt {i}: {split.error}"
            if split.tokens != mono.tokens or split.gate_trace != mono.gate_trace:
                mismatches += 1
        assert mismatches == 0
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def check_training_objective_gradients(seed, ids_shape):
    """Finite differences of `side_objective` over side and gate parameters,
    its gate labels held at the probe's point as within a training step."""
    cfg = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=64,
                      vocab_size=40, max_seq_len=32, side_reduction=8)
    tcfg = TrainConfig()
    model = SpaModel.create(cfg, seed=seed)
    model.base.freeze()
    ids = np.random.default_rng(seed).integers(0, cfg.vocab_size, size=ids_shape)
    labels = gate_labels(token_loss(model, ids, "on")[1], tcfg.gate_margin)
    report = grad_check(lambda *_: side_objective(model, ids, tcfg, labels=labels),
                        model.side.tensors() + model.gate.tensors())
    assert report.passed(1e-4), f"seed {seed}: {report.summary()}"


def test_criterion_4_gradient_correctness():
    with criterion(4, "finite-difference gradients of the full training loss"):
        for seed in range(10):
            check_training_objective_gradients(seed, 6)


def test_criterion_4_gradient_correctness_over_a_batch():
    with criterion(4, "finite-difference gradients of the training loss over a 2-block batch"):
        for seed in range(3):
            check_training_objective_gradients(seed, (2, 6))


def test_criterion_5_frozen_base_invariance(trained_stack):
    with criterion(5, "frozen-base checksum across the learning-rate grid"):
        runs = trained_stack.grid_runs
        assert sorted(r.learning_rate for r in runs) == [2e-4, 5e-4, 1e-3]
        for run in runs:
            assert len(run.result.epochs) == 15
            assert run.base_digest_before == trained_stack.pretrained_base_digest
            assert run.base_digest_after == trained_stack.pretrained_base_digest
        assert trained_stack.model.base_digest() == trained_stack.pretrained_base_digest


def test_criterion_6_personalization_trend(trained_stack):
    with criterion(6, "end-to-end personalization trend"):
        model = trained_stack.model
        _, val_docs, test_docs = trained_stack.personal_corpus.splits(STACK_SEED)
        held_out = val_docs + test_docs

        spa_ppl = perplexity(model, held_out, "spa")
        # (a) the frozen base alone, straight from the pretraining checkpoint
        base_alone = load_checkpoint(trained_stack.paths["base"]).build_base_model()
        ppl_base_alone = perplexity(base_alone, held_out, "base_only")
        # (b) the trained checkpoint with the gate forced off (side fusion off)
        ppl_forced_off = perplexity(model, held_out, "base_only")

        assert spa_ppl < ppl_base_alone, f"{spa_ppl:.3f} !< {ppl_base_alone:.3f}"
        assert spa_ppl < ppl_forced_off, f"{spa_ppl:.3f} !< {ppl_forced_off:.3f}"
        assert ppl_base_alone == pytest.approx(ppl_forced_off, rel=1e-12)

        usage = trained_stack.best_run.result.final.gate_usage
        assert 0.05 < usage < 0.95, f"gate usage {usage:.3f} collapsed"

        # trained side path helps on average: positive mean per-token gain
        from spa.model import cate_estimate

        tok_ = ByteTokenizer()
        gains = np.concatenate([
            cate_estimate(model, tok_.encode_document(doc)[: model.config.max_seq_len])
            for doc in held_out
        ])
        assert gains.mean() > 0.0, f"mean side gain {gains.mean():.4f}"

        # soft check: generation quality of the gated policy vs always-side
        tok = ByteTokenizer()
        spa_rouge, always_rouge = [], []
        for doc in test_docs[:6]:
            prompt = [BOS, *tok.encode(doc[:16])]
            reference = doc[16:]
            for policy, acc in (("spa", spa_rouge), ("always_side", always_rouge)):
                dcfg = DecodeConfig(max_new_tokens=40, policy=policy)
                out = decode_monolithic(model, prompt, dcfg, eos_id=EOS)
                acc.append(rouge_l(tok.decode(out.tokens), reference).f_measure)
        if np.mean(spa_rouge) < np.mean(always_rouge):
            warnings.warn(
                f"soft check: SPA ROUGE-L {np.mean(spa_rouge):.3f} fell below "
                f"always-side {np.mean(always_rouge):.3f} on the synthetic prompts"
            )

        assert trained_stack.wall_clock < 30 * 60, (
            f"pipeline took {trained_stack.wall_clock:.0f}s"
        )
        print(
            f"  [trend] spa ppl {spa_ppl:.3f} < base {ppl_base_alone:.3f}; "
            f"usage {usage:.3f}; rouge spa {np.mean(spa_rouge):.3f} vs "
            f"always-side {np.mean(always_rouge):.3f}; pipeline {trained_stack.wall_clock:.0f}s"
        )


def test_criterion_7_rouge_oracle_equivalence():
    with criterion(7, "ROUGE-L equals brute-force LCS enumeration"):
        def brute_force(a, b):
            best = 0
            for r in range(len(a), 0, -1):
                for combo in itertools.combinations(range(len(a)), r):
                    sub = [a[i] for i in combo]
                    it = iter(b)
                    if all(x in it for x in sub):
                        best = r
                        break
                if best:
                    break
            return best

        rng = np.random.default_rng(7)
        vocab = list("abcdefgh")
        for case in range(500):
            a = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 9))]
            b = [vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 9))]
            assert lcs_length(a, b) == brute_force(a, b), f"case {case}: {a} vs {b}"


def test_criterion_8_usage_accounting(trained_stack):
    with criterion(8, "usage percentage equals the counter's M"):
        model = load_checkpoint(trained_stack.paths["full"]).build_model()
        bundle = SideBundle.from_checkpoint(trained_stack.paths["side"])
        rng = np.random.default_rng(8)
        docs = trained_stack.personal_corpus.documents
        tok = ByteTokenizer()
        for i in range(6):
            head = docs[int(rng.integers(len(docs)))][: int(rng.integers(3, 12))]
            prompt = [BOS, *tok.encode(head)]
            dcfg = DecodeConfig(max_new_tokens=12, policy="spa")
            result, record = loopback_generate(model, bundle, prompt, dcfg)
            assert result.completed and result.gate_trace, f"session {i}"
            device_m = result.counter.transmissions_per_token
            cloud_m = record.counter.transmissions_per_token
            # greedy: one round trip per gated token, so M is the bit mean
            assert sum(result.gate_trace) / len(result.gate_trace) == device_m  # exact
            assert usage_percentage(result.gate_trace) == pytest.approx(100.0 * device_m)
            assert device_m == cloud_m


def test_criterion_9_protocol_robustness():
    with criterion(9, "frame round trips and malformed-frame outcomes"):
        from test_wire import random_message

        rng = np.random.default_rng(9)
        for i in range(10_000):
            msg = random_message(rng)
            decoded, consumed = decode_frame(encode_frame(msg))
            assert decoded == msg, f"message {i}"

        sample = encode_frame(random_message(np.random.default_rng(1)))
        for cut in range(len(sample)):
            with pytest.raises(TruncatedFrameError):
                decode_frame(sample[:cut])
        import struct

        with pytest.raises(OversizeFrameError):
            decode_frame(struct.pack(">I", 2**30) + b"\x01")
        with pytest.raises(BadFrameError):
            decode_frame(struct.pack(">I", 0) + b"\xee")


def test_criterion_10_beam_search(trained_stack):
    with criterion(10, "beam reductions and exhaustive agreement"):
        # width=1 equals greedy on 50 random prompts of the trained model
        model = trained_stack.model
        cfg = model.config
        provider = lambda: local_side_provider(cfg, model.side)
        rng = np.random.default_rng(10)
        for i in range(50):
            prompt = [BOS, *(int(t) for t in rng.integers(32, 127, rng.integers(1, 8)))]
            greedy = greedy_decode(
                CloudStepModel(cfg, model.base, model.gate, "spa", "all_layers",
                               provider(), itertools.count()),
                prompt, 6, eos_id=EOS,
            )
            beam1 = beam_decode(
                CloudStepModel(cfg, model.base, model.gate, "spa", "all_layers",
                               provider(), itertools.count()),
                prompt, 1, 6, eos_id=EOS,
            )
            assert beam1.tokens == greedy.tokens, f"prompt {i}"

        # width=V over a 2-step horizon equals exhaustive enumeration
        small_cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                                vocab_size=9, max_seq_len=16, side_reduction=8)
        eos_id = 0
        for seed in (3, 8, 13):
            small = SpaModel.create(small_cfg, seed=seed)
            small.base["out_proj"].data[:] *= 40.0
            small.gate["w"].data[:] = np.random.default_rng(seed).standard_normal(
                (small_cfg.d_model, 2)
            )
            small.base.freeze()

            def fresh_model():
                return CloudStepModel(
                    small_cfg, small.base, small.gate, "spa", "all_layers",
                    local_side_provider(small_cfg, small.side),
                    itertools.count(),
                )

            def score(tokens, prompt):
                ctx, total = list(prompt), 0.0
                for t in tokens:
                    logits, _ = fresh_model().logits_for([ctx])
                    total += float(nc.log_softmax_rows(logits)[0][t])
                    ctx.append(t)
                return total / len(tokens)

            prompt = [2, 4]
            candidates = []
            for t1 in range(small_cfg.vocab_size):
                if t1 == eos_id:
                    candidates.append((t1,))
                else:
                    candidates.extend((t1, t2) for t2 in range(small_cfg.vocab_size))
            best = min(((score(c, prompt), c) for c in candidates),
                       key=lambda sc: (-sc[0], sc[1]))
            beam = beam_decode(fresh_model(), prompt, small_cfg.vocab_size, 2, eos_id=eos_id)
            assert tuple(beam.tokens) == best[1], f"seed {seed}"
