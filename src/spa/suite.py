"""Experiment harness: per-tier, per-policy metric tables.

Produces three report sections mirroring the headline comparisons: side
usage by data tier, the modeled-vs-reference latency table at the measured
usage, and per-policy quality metrics (transmission ratio, ROUGE-L,
perplexity). Reports are deterministic: identical checkpoints and seeds
reproduce byte-identical files (wall-clock goes to the log only).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .corpus import make_synthetic_personalized_corpus
from .decoding import DecodeConfig, TransmissionCounter, decode_monolithic
from .latency import LatencyProfile, build_comparison_table, format_rows
from .metrics import perplexities, rouge_l, usage_percentage
from .model import SpaModel
from .tokenizer import BOS, EOS, ByteTokenizer

POLICY_ORDER = ("base_only", "always_side", "spa")
PROMPT_CHARS = 16  # each test document's head that prompts; the rest is the reference


@dataclass(frozen=True)
class SuiteConfig:
    checkpoints: dict[str, str | Path]  # tier -> full checkpoint path
    corpus_seed: int
    n_prompts: int
    max_new_tokens: int
    profile: LatencyProfile
    out_dir: str | Path


@dataclass
class ExperimentRow:
    run_id: str
    tier: str
    policy: str
    ratio: float | None = None
    usage_percent: float | None = None
    rouge_f: float | None = None
    perplexity: float | None = None
    error: str | None = None


@dataclass
class SuiteReport:
    digest: str
    rows: list[ExperimentRow] = field(default_factory=list)
    usage_by_tier: dict[str, float] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    markdown_path: Path | None = None
    csv_path: Path | None = None
    wall_clock: float = 0.0


def _suite_digest(cfg: SuiteConfig, tier_digests: dict[str, str]) -> str:
    payload = json.dumps(
        {
            "corpus_seed": cfg.corpus_seed,
            "n_prompts": cfg.n_prompts,
            "prompt_chars": PROMPT_CHARS,
            "max_new_tokens": cfg.max_new_tokens,
            "policies": list(POLICY_ORDER),
            "tiers": tier_digests,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_experiment_suite(cfg: SuiteConfig, log=None) -> SuiteReport:
    t_start = time.monotonic()
    tok = ByteTokenizer()
    say = log or (lambda _msg: None)

    loaded: dict[str, SpaModel | None] = {}
    tier_digests: dict[str, str] = {}
    errors: dict[str, str] = {}
    for tier, path in sorted(cfg.checkpoints.items()):
        try:
            ckpt = load_checkpoint(path)
            loaded[tier] = ckpt.build_model()
            tier_digests[tier] = ckpt.compat_digest
        except (CheckpointError, OSError) as e:
            loaded[tier] = None
            errors[tier] = str(e)
            tier_digests[tier] = "missing"
    report = SuiteReport(digest=_suite_digest(cfg, tier_digests))

    latency_sections: list[tuple[str, str]] = []
    for tier in sorted(cfg.checkpoints):
        model = loaded[tier]
        if model is None:
            for policy in POLICY_ORDER:
                report.rows.append(
                    ExperimentRow(
                        run_id=f"{tier}-{policy}", tier=tier, policy=policy,
                        error=errors[tier],
                    )
                )
            say(f"tier {tier}: checkpoint unavailable ({errors[tier]})")
            continue

        _, personalized = make_synthetic_personalized_corpus(cfg.corpus_seed, tier)
        _, _, test_docs = personalized.splits(cfg.corpus_seed)
        prompts = []
        for doc in test_docs[: cfg.n_prompts]:
            head, tail = doc[:PROMPT_CHARS], doc[PROMPT_CHARS:]
            prompts.append(([BOS, *tok.encode(head)], tail))
        tier_perplexities = perplexities(model, test_docs)

        for policy in POLICY_ORDER:
            run_id = f"{tier}-{policy}"
            dcfg = DecodeConfig(max_new_tokens=cfg.max_new_tokens, policy=policy)
            rouge_vals = []
            traces: list[int] = []
            trips = 0
            for prompt_ids, reference in prompts:
                result = decode_monolithic(model, prompt_ids, dcfg, eos_id=EOS)
                text = tok.decode(result.tokens)
                rouge_vals.append(rouge_l(text, reference).f_measure)
                traces.extend(result.gate_trace)
                trips += result.counter.hidden_round_trips
            counter = TransmissionCounter(hidden_round_trips=trips, tokens_generated=len(traces))
            row = ExperimentRow(
                run_id=run_id,
                tier=tier,
                policy=policy,
                ratio=counter.transmissions_per_token,
                usage_percent=usage_percentage(traces) if traces else None,
                rouge_f=float(np.mean(rouge_vals)) if rouge_vals else None,
                perplexity=tier_perplexities[policy],
            )
            report.rows.append(row)
            if policy == "spa":
                spa_row = row
            say(f"{run_id}: ratio {row.ratio:.3f} rouge {row.rouge_f:.3f} "
                f"ppl {row.perplexity:.2f}")

        report.usage_by_tier[tier] = spa_row.usage_percent or 0.0
        lat_rows = build_comparison_table(
            cfg.profile, spa_row.ratio, model.config.n_layers, n_tokens=cfg.max_new_tokens
        )
        audit = (
            f"side parameters: {100 * model.side_fraction():.2f}% of base; "
            f"side+gate: {100 * model.side_and_gate_fraction():.2f}%"
        )
        latency_sections.append((tier, audit + "\n\n" + format_rows(lat_rows, "table")))

    tiers = [t for t in ("small", "medium", "full") if t in report.usage_by_tier]
    usages = [report.usage_by_tier[t] for t in tiers]
    if len(usages) >= 2 and any(a < b for a, b in zip(usages, usages[1:])):
        report.warnings.append(
            "side-usage percentage is not monotonically decreasing across tiers "
            f"({dict(zip(tiers, [round(u, 1) for u in usages]))}); expected at scale, "
            "noisy at toy scale"
        )

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / f"report_{report.digest}.md"
    csv_path = out_dir / f"tables_{report.digest}.csv"
    md_path.write_text(_render_markdown(report, latency_sections), encoding="utf-8")
    csv_path.write_text(_render_csv(report), encoding="utf-8")
    report.markdown_path = md_path
    report.csv_path = csv_path
    report.wall_clock = time.monotonic() - t_start
    say(f"report written to {md_path} in {report.wall_clock:.1f}s")
    return report


def _fmt(value, spec=".3f") -> str:
    return "-" if value is None else format(value, spec)


def _render_markdown(report: SuiteReport, latency_sections) -> str:
    lines = [f"# Experiment report `{report.digest}`", ""]
    lines += ["## Side usage by data tier", "", "| tier | usage % |", "|---|---|"]
    for tier, usage in sorted(report.usage_by_tier.items()):
        lines.append(f"| {tier} | {usage:.1f} |")
    lines += ["", "## Policy metrics", "",
              "| tier | policy | ratio | usage % | rouge-l | perplexity | error |",
              "|---|---|---|---|---|---|---|"]
    for row in report.rows:
        lines.append(
            f"| {row.tier} | {row.policy} | {_fmt(row.ratio)} | "
            f"{_fmt(row.usage_percent, '.1f')} | {_fmt(row.rouge_f)} | "
            f"{_fmt(row.perplexity, '.2f')} | {row.error or '-'} |"
        )
    for tier, table in latency_sections:
        lines += ["", f"## Latency comparison (tier {tier}, modeled vs reference)", "",
                  "```", table.rstrip(), "```"]
    if report.warnings:
        lines += ["", "## Warnings", ""]
        lines += [f"- {w}" for w in report.warnings]
    lines.append("")
    return "\n".join(lines)


def _render_csv(report: SuiteReport) -> str:
    lines = ["run_id,tier,policy,ratio,usage_percent,rouge_f,perplexity,error"]
    for r in report.rows:
        lines.append(
            f"{r.run_id},{r.tier},{r.policy},{_fmt(r.ratio)},{_fmt(r.usage_percent, '.4f')},"
            f"{_fmt(r.rouge_f, '.6f')},{_fmt(r.perplexity, '.6f')},{r.error or ''}"
        )
    return "\n".join(lines) + "\n"
