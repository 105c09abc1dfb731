"""Experiment suite: report structure, determinism, missing-checkpoint rows."""

import numpy as np
import pytest

from spa.checkpoint import save_model
from spa.latency import LatencyProfile
from spa.model import ModelConfig, SpaModel
from spa.suite import SuiteConfig, run_experiment_suite
from spa.tokenizer import VOCAB_SIZE

CFG = ModelConfig(
    n_layers=1, d_model=16, n_heads=2, d_ff=32,
    vocab_size=VOCAB_SIZE, max_seq_len=64, side_reduction=8,
)


@pytest.fixture
def ckpt(tmp_path):
    model = SpaModel.create(CFG, seed=2)
    rng = np.random.default_rng(9)
    model.gate["w"].data[:] = rng.standard_normal((CFG.d_model, 2)) * 0.4
    model.base.freeze()
    path = tmp_path / "full.ckpt"
    save_model(model, path, kind="full")
    return path


def suite_config(ckpt, out, **kw):
    defaults = dict(
        checkpoints={"small": ckpt},
        corpus_seed=3,
        n_prompts=2,
        max_new_tokens=8,
        profile=LatencyProfile(t_pretrained=3.29 / 50),
        out_dir=out,
    )
    defaults.update(kw)
    return SuiteConfig(**defaults)


class TestSuite:
    def test_rows_cover_every_policy_and_files_embed_digest(self, ckpt, tmp_path):
        report = run_experiment_suite(suite_config(ckpt, tmp_path / "r"))
        assert {r.policy for r in report.rows} == {"base_only", "lst", "always_side", "spa"}
        assert report.digest in report.markdown_path.name
        assert report.digest in report.csv_path.name
        text = report.markdown_path.read_text()
        assert "Side usage by data tier" in text
        assert "Latency comparison" in text

    def test_rerun_reproduces_identical_files(self, ckpt, tmp_path):
        first = run_experiment_suite(suite_config(ckpt, tmp_path / "r1"))
        second = run_experiment_suite(suite_config(ckpt, tmp_path / "r2"))
        assert first.markdown_path.read_bytes() == second.markdown_path.read_bytes()
        assert first.csv_path.read_bytes() == second.csv_path.read_bytes()

    def test_missing_checkpoint_produces_error_rows_and_continues(self, ckpt, tmp_path):
        cfg = suite_config(
            ckpt, tmp_path / "r",
            checkpoints={"small": ckpt, "medium": tmp_path / "absent.ckpt"},
        )
        report = run_experiment_suite(cfg)
        medium_rows = [r for r in report.rows if r.tier == "medium"]
        assert medium_rows and all(r.error for r in medium_rows)
        small_rows = [r for r in report.rows if r.tier == "small"]
        assert small_rows and all(r.error is None for r in small_rows)

    def test_multiple_tiers_get_one_usage_row_each(self, ckpt, tmp_path):
        cfg = suite_config(
            ckpt, tmp_path / "r", checkpoints={"small": ckpt, "medium": ckpt}
        )
        report = run_experiment_suite(cfg)
        assert sorted(report.usage_by_tier) == ["medium", "small"]
        text = report.markdown_path.read_text()
        assert "| small |" in text and "| medium |" in text
        assert "side parameters:" in text  # size audit line

    def test_spa_ratio_matches_usage_accounting(self, ckpt, tmp_path):
        report = run_experiment_suite(suite_config(ckpt, tmp_path / "r"))
        spa = [r for r in report.rows if r.policy == "spa"][0]
        assert spa.usage_percent == pytest.approx(100.0 * spa.ratio)
        lst = [r for r in report.rows if r.policy == "lst"][0]
        assert lst.ratio == 1.0
        base = [r for r in report.rows if r.policy == "base_only"][0]
        assert base.ratio == 0.0
