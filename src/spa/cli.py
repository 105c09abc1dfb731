"""Single entry point wiring every module into subcommands.

Exit codes: 0 success, 1 usage/config error, 2 runtime error,
3 verification-check failure (grad-check).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import numcore as nc
from .checkpoint import load_checkpoint, save_model
from .cloud import serve_cloud
from .configfile import SCHEMA, resolve_config
from .corpus import load_text_dir, make_synthetic_personalized_corpus, write_text_dir
from .decoding import DecodeConfig, decode_monolithic
from .device import run_device
from .errors import ConfigError, ContractError, SpaError
from .gradcheck import grad_check
from .latency import LatencyProfile, build_comparison_table, format_rows, parse_profile
from .metrics import teacher_forced_nll
from .model import ModelConfig, SpaModel, token_loss
from .numcore import Tensor
from .suite import SuiteConfig, run_experiment_suite
from .tokenizer import BOS, EOS, VOCAB_SIZE, ByteTokenizer
from .training import (
    LR_GRID,
    TrainConfig,
    pretrain_base,
    run_lr_grid,
    train_side_and_gate,
)
from .wire import DEFAULT_WIRE_MODE, POLICIES, WIRE_MODES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3

POLICY_FLAGS = {p.replace("_", "-"): p for p in POLICIES}
WIRE_FLAGS = tuple(m.replace("_", "-") for m in WIRE_MODES)


class UsageError(SpaError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(message)


def _addr(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"expected host:port, got {value!r}")
    return host, int(port)


def _require_file(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: file not found: {p}")
    return p


def _require_dir(path: str, flag: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise UsageError(f"{flag}: directory not found: {p}")
    return p


# flags whose name is not their setting's key with "-" for "_"
_FLAG_NAMES = {"learning_rate": "--lr", "n_layers": "--layers", "n_heads": "--heads"}
# [train] keys that only side training reads
_SIDE_ONLY = ("gate_margin", "usage_weight")


def _setting_flags(parser, section: str, keys, helps=None) -> None:
    """One flag per config-file key; the flag's dest is the key itself."""
    for key in keys:
        parser.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key,
                            type=SCHEMA[section][key], default=None,
                            help=(helps or {}).get(key))


def build_parser() -> _Parser:
    parser = _Parser(prog="spa", description=__doc__)
    parser.add_argument("--config", help="key=value config file (env SPA_CONFIG as fallback)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("make-corpus", parents=[], help="write the synthetic corpora")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tier", choices=("small", "medium", "full"), default="small")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("pretrain", help="train and freeze the base model")
    p.add_argument("--corpus", required=True, help="directory of .txt documents")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    _setting_flags(p, "train", [k for k in SCHEMA["train"] if k not in _SIDE_ONLY])
    _setting_flags(p, "model", SCHEMA["model"])

    p = sub.add_parser("train-side", help="train side network + gate on a frozen base")
    p.add_argument("--base", required=True, help="base (or full) checkpoint")
    p.add_argument("--corpus", required=True, help="personalized .txt directory")
    p.add_argument("--out-dir", required=True)
    _setting_flags(p, "train", SCHEMA["train"],
                   {"learning_rate": "single learning rate (default: [train] learning_rate, "
                                     "else run the grid)"})

    p = sub.add_parser("serve", help="run the cloud endpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--listen", required=True, help="host:port")
    p.add_argument("--wire", choices=WIRE_FLAGS, default=DEFAULT_WIRE_MODE.replace("_", "-"))

    p = sub.add_parser("generate", help="generate text through a cloud session")
    p.add_argument("--connect", required=True, help="host:port of the cloud endpoint")
    p.add_argument("--side-checkpoint", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--policy", choices=sorted(POLICY_FLAGS), default="spa")
    p.add_argument("--beam", type=int, default=1, help="beam width; 1 = greedy")
    p.add_argument("--max-new", type=int, default=50)
    p.add_argument("--timeout", type=float, default=10.0)

    p = sub.add_parser("decode-local", help="monolithic decoding (split-path oracle)")
    p.add_argument("--checkpoint", required=True, help="full checkpoint")
    p.add_argument("--prompt", required=True)
    p.add_argument("--policy", choices=sorted(POLICY_FLAGS), default="spa")
    p.add_argument("--beam", type=int, default=1)
    p.add_argument("--max-new", type=int, default=50)
    p.add_argument("--wire", choices=WIRE_FLAGS, default=DEFAULT_WIRE_MODE.replace("_", "-"))

    p = sub.add_parser("bench-latency", help="emit the latency comparison table")
    p.add_argument("--profile", default=None, help="key=value latency profile file")
    p.add_argument("--layers", type=int, default=32)
    p.add_argument("--usage", type=float, default=0.62)
    p.add_argument("--tokens", type=int, default=50)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--cdev-divides", action="store_true",
                   help="divide by the device count instead of multiplying")
    p.add_argument("--arch-cost", action="append", default=[],
                   metavar="ARCH=SECONDS", help="per-architecture tau+T_data override")

    p = sub.add_parser("eval", help="perplexity / usage for a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True, help="full checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--policy", choices=sorted(POLICY_FLAGS), default="spa")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="run the experiment suite and write reports")
    p.add_argument("--checkpoint", action="append", default=[], metavar="TIER=PATH",
                   help="full checkpoint per tier (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prompts", type=int, default=6)
    p.add_argument("--max-new", type=int, default=40)
    p.add_argument("--profile", default=None)

    p = sub.add_parser("grad-check", help="finite-difference verification of backward rules")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


def _settings(cfg, args, section: str) -> dict:
    """The [section] settings: config-file values, overridden by any flag given."""
    values = dict(cfg.section(section))
    for key in SCHEMA[section]:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return values


def _cmd_make_corpus(cfg, args) -> int:
    base, personal = make_synthetic_personalized_corpus(args.seed, args.tier)
    out = Path(args.out)
    write_text_dir(base.documents, out / "base")
    write_text_dir(personal.documents, out / "personal")
    meta = {"seed": args.seed, "tier": args.tier,
            "base_docs": len(base.documents), "personal_docs": len(personal.documents)}
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote {meta['base_docs']} base and {meta['personal_docs']} personalized "
          f"documents under {out}")
    return EXIT_OK


def _epoch_dicts(result) -> list[dict]:
    return [
        {"epoch": e.epoch, "train_loss": e.train_loss,
         "val_perplexity": e.val_perplexity, "gate_usage": e.gate_usage}
        for e in result.epochs
    ]


def _cmd_pretrain(cfg, args) -> int:
    corpus = load_text_dir(_require_dir(args.corpus, "--corpus"))
    mcfg = ModelConfig(vocab_size=VOCAB_SIZE, **_settings(cfg, args, "model"))
    tcfg = TrainConfig(**_settings(cfg, args, "train"))
    model, result = pretrain_base(mcfg, tcfg, corpus, log=print)
    save_model(model, args.out, kind="base", train_config=tcfg.to_dict())
    log_path = Path(str(args.out) + ".log.json")
    log_path.write_text(
        json.dumps({"config": tcfg.to_dict(), "epochs": _epoch_dicts(result)},
                   indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print(f"base checkpoint written to {args.out} "
          f"(final val ppl {result.final.val_perplexity:.2f})")
    return EXIT_OK


def _cmd_train_side(cfg, args) -> int:
    loaded = load_checkpoint(_require_file(args.base, "--base"))
    corpus = load_text_dir(_require_dir(args.corpus, "--corpus"))
    settings = _settings(cfg, args, "train")
    tcfg = TrainConfig(**settings)
    model = loaded.build_base_model(seed=tcfg.seed)
    if "learning_rate" in settings:  # set by the file or --lr: one run at that rate
        result = train_side_and_gate(model, tcfg, corpus, log=print)
        chosen_lr = tcfg.learning_rate
        final_ppl = result.final.val_perplexity
        run_logs = {f"{chosen_lr:g}": _epoch_dicts(result)}
    else:
        best, runs = run_lr_grid(model, tcfg, corpus, grid=LR_GRID, log=print)
        chosen_lr = best.learning_rate
        final_ppl = best.result.final.val_perplexity
        run_logs = {f"{r.learning_rate:g}": _epoch_dicts(r.result) for r in runs}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chosen_cfg = replace(tcfg, learning_rate=chosen_lr)
    for kind in ("full", "cloud", "side"):
        save_model(model, out_dir / f"{kind}.ckpt", kind=kind,
                   train_config=chosen_cfg.to_dict())
    (out_dir / "train_log.json").write_text(
        json.dumps({"chosen_lr": chosen_lr, "runs": run_logs}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print(f"side training done (lr {chosen_lr:g}, val ppl {final_ppl:.2f}); "
          f"full/cloud/side checkpoints under {out_dir}")
    return EXIT_OK


def _cmd_serve(cfg, args) -> int:
    host, port = _addr(args.listen)
    wire = args.wire.replace("-", "_")
    server = serve_cloud(_require_file(args.checkpoint, "--checkpoint"),
                         (host, port), wire_mode=wire, start=False)
    # flush: callers watching a pipe need the address before serve blocks
    print(f"cloud endpoint listening on {server.address[0]}:{server.address[1]} "
          f"(wire mode {wire})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return EXIT_OK


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(
        max_new_tokens=args.max_new,
        strategy="beam" if args.beam > 1 else "greedy",
        beam_width=max(args.beam, 1),
        policy=POLICY_FLAGS[args.policy],
        wire_mode=getattr(args, "wire", DEFAULT_WIRE_MODE).replace("-", "_"),
    )


def _cmd_generate(cfg, args) -> int:
    dcfg = _decode_config(args)
    result = run_device(
        _require_file(args.side_checkpoint, "--side-checkpoint"),
        dcfg,
        prompt_text=args.prompt,
        connect=_addr(args.connect),
        frame_timeout=args.timeout,
    )
    print(result.text)
    counter = result.counter
    print(
        f"[{dcfg.policy}] tokens={counter.tokens_generated} "
        f"M={counter.transmissions_per_token:.3f} "
        f"round_trips_per_token={counter.round_trips_per_token:.3f} "
        f"round_trips={counter.hidden_round_trips} "
        f"frames_out={counter.frames_sent} frames_in={counter.frames_received}",
        file=sys.stderr,
    )
    if not result.completed:
        print(f"session incomplete: {result.error}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_decode_local(cfg, args) -> int:
    loaded = load_checkpoint(_require_file(args.checkpoint, "--checkpoint"))
    model = loaded.build_model()
    dcfg = _decode_config(args)
    ids = [BOS, *ByteTokenizer().encode(args.prompt)]
    result = decode_monolithic(model, ids, dcfg, eos_id=EOS)
    print(ByteTokenizer().decode(result.tokens))
    print(
        f"[{dcfg.policy}] tokens={len(result.tokens)} "
        f"M={result.counter.transmissions_per_token:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_bench_latency(cfg, args) -> int:
    profile_path = args.profile or cfg.section("latency").get("profile")
    profile = parse_profile(_require_file(profile_path, "--profile")) if profile_path \
        else LatencyProfile()
    per_arch = {}
    for spec in args.arch_cost:
        arch, _, cost = spec.partition("=")
        try:
            per_arch[arch.strip()] = float(cost)
        except ValueError:
            raise UsageError(f"--arch-cost: expected ARCH=SECONDS, got {spec!r}") from None
    rows = build_comparison_table(
        profile, args.usage, args.layers, n_tokens=args.tokens,
        cdev_divides=args.cdev_divides, per_arch_cost=per_arch or None,
    )
    print(format_rows(rows, args.format), end="")
    return EXIT_OK


def _cmd_eval(cfg, args) -> int:
    loaded = load_checkpoint(_require_file(args.checkpoint, "--checkpoint"))
    model = loaded.build_model()
    corpus = load_text_dir(_require_dir(args.corpus, "--corpus"))
    _, _, test_docs = corpus.splits(args.seed)
    docs = test_docs or corpus.documents
    policy = POLICY_FLAGS[args.policy]
    # perplexity and usage of the same scored positions
    total, positions, side_used = teacher_forced_nll(model, docs, policy)
    if not positions:
        raise ContractError("eval: the corpus holds no scorable positions")
    print(
        f"policy={policy} docs={len(docs)} perplexity={math.exp(total / positions):.4f} "
        f"usage={100.0 * side_used / positions:.1f}%"
    )
    return EXIT_OK


def _cmd_report(cfg, args) -> int:
    checkpoints = {}
    for spec in args.checkpoint:
        tier, _, path = spec.partition("=")
        if not path:
            raise UsageError(f"--checkpoint: expected TIER=PATH, got {spec!r}")
        checkpoints[tier.strip()] = path.strip()
    if not checkpoints:
        raise UsageError("--checkpoint: at least one TIER=PATH is required")
    profile_path = args.profile or cfg.section("latency").get("profile")
    profile = parse_profile(_require_file(profile_path, "--profile")) if profile_path \
        else LatencyProfile(t_pretrained=3.29 / 50)
    suite_cfg = SuiteConfig(
        checkpoints=checkpoints,
        corpus_seed=args.seed,
        n_prompts=args.prompts,
        max_new_tokens=args.max_new,
        profile=profile,
        out_dir=args.out,
    )
    report = run_experiment_suite(suite_cfg, log=print)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_grad_check(cfg, args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    def run(name, f, tensors):
        nonlocal failures
        report = grad_check(f, tensors, h=1e-5)
        status = "ok" if report.passed(args.tol) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{name:<22} max rel err {report.max_rel_err:.3e}  {status}")

    for trial in range(args.trials):
        r = np.random.default_rng(args.seed + trial)
        run(f"matmul[{trial}]",
            lambda a, b: nc.matmul(a, b).sum(),
            [Tensor(r.standard_normal((3, 4))), Tensor(r.standard_normal((4, 2)))])
        run(f"layer_norm[{trial}]",
            lambda x, g, b: nc.mul(nc.layer_norm(x, g, b), nc.layer_norm(x, g, b)).sum(),
            [Tensor(r.standard_normal((2, 6))), Tensor(r.standard_normal(6)),
             Tensor(r.standard_normal(6))])
        run(f"attention[{trial}]",
            lambda q, k, v: nc.causal_attention(q, k, v, 2).sum(),
            [Tensor(r.standard_normal((4, 8))) for _ in range(3)])
        targets = r.integers(0, 11, size=4)
        run(f"cross_entropy[{trial}]",
            lambda x: nc.cross_entropy(x, targets),
            [Tensor(r.standard_normal((4, 11)))])

        mcfg = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                           vocab_size=31, max_seq_len=16, side_reduction=8)
        model = SpaModel.create(mcfg, seed=args.seed + trial)
        model.base.freeze()
        ids = r.integers(0, mcfg.vocab_size, size=6)
        params = model.side.tensors() + model.gate.tensors()
        run(f"side+gate loss[{trial}]",
            lambda *_: token_loss(model, ids, gate_mode="soft")[0], params)

    if failures:
        print(f"{failures} check(s) failed at tol {args.tol}")
        return EXIT_CHECK_FAILED
    print(f"all checks passed at tol {args.tol}")
    return EXIT_OK


_COMMANDS = {
    "make-corpus": _cmd_make_corpus,
    "pretrain": _cmd_pretrain,
    "train-side": _cmd_train_side,
    "serve": _cmd_serve,
    "generate": _cmd_generate,
    "decode-local": _cmd_decode_local,
    "bench-latency": _cmd_bench_latency,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        cfg = resolve_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SpaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
