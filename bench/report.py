"""Metric definitions and the arithmetic that turns samples and spans into them.

End-to-end metrics come from an untraced phase. Per-layer metrics come
from a traced phase (spans), except the `e2e.*` rows, which repeat the
end-to-end figures of the untraced half of a traced run that do not apply
to every workload, and are therefore not in BENCHMARK.json's end-to-end
list. A per-layer metric reads 0 on a workload that never enters that
layer.
"""

from __future__ import annotations

import statistics

import numpy as np

import spa.latency

from tracing import WIRE_TYPES, SpanIndex

# name -> unit; the first five are the end-to-end metrics every workload has
E2E_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "tokens/s",
    "token_ms_p50": "ms",
    "token_ms_tail": "ms",
    "peak_rss_mb": "MiB",
    "ttft_ms_p50": "ms",
    "ttft_ms_tail": "ms",
    "tpot_ms_p50": "ms",
    "tpot_ms_tail": "ms",
    "round_trips_per_token": "count",
    "wire_bytes_per_token": "bytes",
    "train_tokens_per_s": "tokens/s",
    "failed_share": "ratio",
}
BOUNDED_E2E = ("setup_s", "tokens_per_s", "token_ms_p50", "token_ms_tail", "peak_rss_mb")
WORKLOAD_E2E = tuple(k for k in E2E_UNITS if k not in BOUNDED_E2E and k != "failed_share")

FRAME_TYPES = tuple(t for t in WIRE_TYPES.values() if t != "ERROR")
NUMCORE_OPS = ("causal_attention", "matmul", "gelu", "layer_norm")

LAYER_UNITS = {
    "transport.round_trip_ms_p50": "ms",
    "transport.round_trip_ms_tail": "ms",
    "transport.recv_wait_ms_per_token": "ms",
    "transport.send_ms_per_token": "ms",
    "wire.encode_us_per_frame": "us",
    "wire.decode_us_per_frame": "us",
    "wire.frames_per_token": "count",
    **{f"wire.bytes_per_token.{t}": "bytes" for t in FRAME_TYPES},
    "cloud.session_ms": "ms",
    "cloud.model_ms_per_token": "ms",
    "cloud.wait_ms_per_token": "ms",
    "device.side_ms_per_round_trip": "ms",
    "device.checkpoint_load_ms": "ms",
    "model.base_forward.calls_per_token": "count",
    "model.base_forward.ms_per_call": "ms",
    "model.base_forward.positions_per_token": "count",
    "model.base_forward.ms_per_token": "ms",
    "model.base_forward.self_ms_per_token": "ms",
    "model.base_forward.share_of_token_ms": "ratio",
    "model.side_step.calls_per_token": "count",
    "model.side_step.us_per_call": "us",
    **{f"numcore.{op}.ms_per_token": "ms" for op in NUMCORE_OPS},
    **{f"numcore.{op}.calls_per_token": "count" for op in NUMCORE_OPS},
    "numcore.causal_attention.flops_per_token": "flops",
    "decoding.logits_for.calls_per_token": "count",
    "decoding.beam_self_ms_per_token": "ms",
    "decoding.gate_usage": "ratio",
    "decoding.m_reported": "count",
    "checkpoint.load_ms": "ms",
    "checkpoint.save_ms": "ms",
    "training.gate_labels_ms_per_batch": "ms",
    "training.token_loss_ms_per_batch": "ms",
    "training.backward_ms_per_batch": "ms",
    "training.adam_ms_per_batch": "ms",
    "training.val_eval_ms_per_epoch": "ms",
    "latency.per_tx_ms_fit": "ms",
    "latency.t_pretrained_ms_fit": "ms",
    "latency.model_rel_error": "ratio",
    "trace.overhead_ratio": "ratio",
    **{f"e2e.{k}": E2E_UNITS[k] for k in WORKLOAD_E2E + ("failed_share",)},
}

TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest rank with ten samples beyond it.

    With fewer than 21 samples that rank would sit below the median, so
    the maximum is reported instead (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * rank / max(1, n - 1), n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def m_reported(samples) -> float:
    """Token-weighted `TransmissionCounter.transmissions_per_token`: the M
    the package reports, to set beside the round trips actually made."""
    return _ratio(sum(s.m_reported * s.tokens for s in samples), sum(s.tokens for s in samples))


def e2e_metrics(phase, setups, peak_rss_mb, is_train, is_tcp, is_greedy_tcp):
    """All thirteen end-to-end metrics, None where one does not apply, and
    notes: each tail's percentile and sample count, and the reported M."""
    samples = phase.samples
    token_ms = [1000.0 * s.wall_s / s.tokens for s in samples if s.tokens]
    ttft = [1000.0 * s.ttft_s for s in samples if s.ttft_s is not None]
    tpot = [1000.0 * s.tpot_s for s in samples if s.tpot_s is not None]
    # a phase is whole passes over the job list and a job's counts repeat
    # exactly, so these ratios depend on the seed alone
    tokens = sum(s.tokens for s in samples)
    notes = {} if is_train else {"round_trips_per_token": {"m_reported": m_reported(samples)}}

    def tail_of(name, values):
        value, pct, n = tail(values)
        notes[name] = {"percentile": round(pct, 2), "samples": n}
        return value

    values = {
        "setup_s": _median(setups),
        "tokens_per_s": phase.tokens_per_s,
        "token_ms_p50": _median(token_ms),
        "token_ms_tail": tail_of("token_ms_tail", token_ms),
        "peak_rss_mb": peak_rss_mb,
        "ttft_ms_p50": _median(ttft) if is_tcp else None,
        "ttft_ms_tail": tail_of("ttft_ms_tail", ttft) if is_tcp else None,
        "tpot_ms_p50": _median(tpot) if is_greedy_tcp else None,
        "tpot_ms_tail": tail_of("tpot_ms_tail", tpot) if is_greedy_tcp else None,
        "round_trips_per_token": None if is_train else _ratio(
            sum(s.round_trips for s in samples), tokens),
        "wire_bytes_per_token": _ratio(
            sum(s.wire_bytes for s in samples), tokens) if is_tcp else None,
        "train_tokens_per_s": phase.tokens_per_s if is_train else None,
        "failed_share": _ratio(sum(1 for s in samples if s.error), len(samples)),
    }
    return values, notes


def latency_fit(samples, profile_path):
    """Fit per-session wall time = t_pretrained * tokens + per_tx * round trips
    over all three policies, write it as a key=value profile, load it back
    with `spa.latency.parse_profile`, and return the fit with the median
    relative error of `spa.latency.t_total` on the spa sessions."""
    rows = [s for s in samples if s.tokens and not s.error]
    if not rows:
        return {k: 0.0 for k in LAYER_UNITS if k.startswith("latency.")}
    design = np.array([[s.tokens, s.round_trips] for s in rows], dtype=np.float64)
    walls = np.array([s.wall_s for s in rows])
    (t_pre, per_tx), *_ = np.linalg.lstsq(design, walls, rcond=None)
    t_pre, per_tx = max(float(t_pre), 0.0), max(float(per_tx), 0.0)
    profile_path.write_text(
        "# Latency profile fitted on loopback TCP sessions of tcp_greedy_mix.\n"
        "# Every round trip carries the same payload, so tau and t_data cannot be\n"
        "# separated: tau holds the whole per-transmission cost and t_data is 0.\n"
        f"tau = {per_tx!r}\nt_data = 0\nf_e = 1e9\nF_data = 0\nC_devices = 1\n"
        f"t_pretrained = {t_pre!r}\n",
        encoding="utf-8",
    )
    profile = spa.latency.parse_profile(profile_path)
    errors = [
        abs(spa.latency.t_total(profile, s.round_trips / s.tokens, s.tokens) - s.wall_s) / s.wall_s
        for s in rows
        if s.policy == "spa"
    ]
    return {
        "latency.per_tx_ms_fit": 1000.0 * (profile.tau + profile.t_data),
        "latency.t_pretrained_ms_fit": 1000.0 * profile.t_pretrained,
        "latency.model_rel_error": _median(errors),
    }


def _round_trips(cloud: SpanIndex, device: SpanIndex) -> list[float]:
    """Cloud-side BASE_HIDDENS send start to SIDE_OUTPUT receive end, minus
    the device's side computation for that step, in ms."""
    sent, rtts = {}, []
    for i in cloud.by_name.get("transport.send", ()):
        span = cloud.spans[i]
        if span["info"][0] == "BASE_HIDDENS":
            sent[(span["session"], span["info"][1])] = span["start"]
    side = {
        (device.spans[i]["session"], device.spans[i]["info"]): device.dur(i)
        for i in device.by_name.get("device.side_provider", ())
    }
    for i in cloud.by_name.get("transport.recv", ()):
        span = cloud.spans[i]
        key = (span["session"], span["info"][1])
        if span["info"][0] == "SIDE_OUTPUT" and key in sent:
            rtts.append(1000.0 * (span["end"] - sent[key] - side.get(key, 0.0)))
    return rtts


def layer_metrics(client_spans, cloud_spans, untraced, traced, e2e_untraced, fit):
    c, s = SpanIndex(client_spans), SpanIndex(cloud_spans)
    both = (c, s)
    # spans cover the warm-up round too, so every per-token figure does
    samples = traced.checked
    tokens = sum(x.tokens for x in samples)

    def total(name):
        return sum(ix.total(name) for ix in both)

    def count(name):
        return sum(ix.count(name) for ix in both)

    def per_token_ms(name):
        return _ratio(1000.0 * total(name), tokens)

    m = {}
    rtts = _round_trips(s, c)
    m["transport.round_trip_ms_p50"] = _median(rtts)
    m["transport.round_trip_ms_tail"] = tail(rtts)[0]
    m["transport.recv_wait_ms_per_token"] = _ratio(1000.0 * c.total("transport.recv"), tokens)
    m["transport.send_ms_per_token"] = per_token_ms("transport.send")
    m["wire.encode_us_per_frame"] = _ratio(1e6 * total("wire.encode"), count("wire.encode"))
    m["wire.decode_us_per_frame"] = _ratio(1e6 * total("wire.decode"), count("wire.decode"))
    frames = sum(x.counter["frames_sent"] + x.counter["frames_received"] for x in samples if x.counter)
    m["wire.frames_per_token"] = _ratio(frames, tokens)
    for kind in FRAME_TYPES:
        m[f"wire.bytes_per_token.{kind}"] = _ratio(
            sum(x.bytes_by_type.get(kind, 0) for x in samples), tokens)
    sessions = [1000.0 * s.dur(i) for i in s.by_name.get("cloud.session", ())]
    m["cloud.session_ms"] = _median(sessions)
    model_s = sum(
        s.dur(i) - s.child_total(i, "transport.") for i in s.by_name.get("decoding.logits_for", ())
    )
    m["cloud.model_ms_per_token"] = _ratio(1000.0 * model_s, tokens)
    m["cloud.wait_ms_per_token"] = _ratio(1000.0 * s.total("transport.recv"), tokens)
    m["device.side_ms_per_round_trip"] = _ratio(
        1000.0 * c.total("device.side_provider"), c.count("device.side_provider"))
    m["device.checkpoint_load_ms"] = _ratio(
        1000.0 * c.total("device.checkpoint_load"), c.count("device.checkpoint_load"))
    calls = count("model.base_forward")
    m["model.base_forward.calls_per_token"] = _ratio(calls, tokens)
    m["model.base_forward.ms_per_call"] = _ratio(1000.0 * total("model.base_forward"), calls)
    m["model.base_forward.positions_per_token"] = _ratio(
        sum(ix.info_sum("model.base_forward") for ix in both), tokens)
    m["model.base_forward.ms_per_token"] = per_token_ms("model.base_forward")
    m["model.base_forward.self_ms_per_token"] = _ratio(
        1000.0 * sum(ix.self_total("model.base_forward") for ix in both), tokens)
    m["model.base_forward.share_of_token_ms"] = _ratio(
        total("model.base_forward"), sum(x.wall_s for x in samples))
    side_calls = count("model.side_step")
    m["model.side_step.calls_per_token"] = _ratio(side_calls, tokens)
    m["model.side_step.us_per_call"] = _ratio(1e6 * total("model.side_step"), side_calls)
    for op in NUMCORE_OPS:
        m[f"numcore.{op}.ms_per_token"] = per_token_ms(f"numcore.{op}")
        m[f"numcore.{op}.calls_per_token"] = _ratio(count(f"numcore.{op}"), tokens)
    m["numcore.causal_attention.flops_per_token"] = _ratio(
        sum(ix.info_sum("numcore.causal_attention") for ix in both), tokens)
    m["decoding.logits_for.calls_per_token"] = _ratio(count("decoding.logits_for"), tokens)
    m["decoding.beam_self_ms_per_token"] = _ratio(
        1000.0 * sum(ix.self_total("decoding.beam_decode") for ix in both), tokens)
    spa_runs = [x for x in untraced.samples if x.policy == "spa" and not x.error]
    m["decoding.gate_usage"] = _ratio(
        sum(x.gate_bits for x in spa_runs), sum(x.tokens for x in spa_runs))
    m["decoding.m_reported"] = m_reported(untraced.samples)
    loads = count("checkpoint.load") + count("device.checkpoint_load")
    m["checkpoint.load_ms"] = _ratio(
        1000.0 * (total("checkpoint.load") + total("device.checkpoint_load")), loads)
    m["checkpoint.save_ms"] = _ratio(1000.0 * total("checkpoint.save"), count("checkpoint.save"))
    batches = c.count("training.adam")
    m["training.gate_labels_ms_per_batch"] = _ratio(1000.0 * c.total("training.gate_labels"), batches)
    m["training.token_loss_ms_per_batch"] = _ratio(
        1000.0 * c.total("training.token_loss", lambda i: not c.under(i, "training.val_eval")),
        batches)
    m["training.backward_ms_per_batch"] = _ratio(1000.0 * c.total("training.backward"), batches)
    m["training.adam_ms_per_batch"] = _ratio(1000.0 * c.total("training.adam"), batches)
    m["training.val_eval_ms_per_epoch"] = _ratio(
        1000.0 * c.total("training.val_eval"), c.count("training.val_eval"))
    m.update(fit or {k: 0.0 for k in LAYER_UNITS if k.startswith("latency.")})
    m["trace.overhead_ratio"] = _ratio(traced.tokens_per_s, untraced.tokens_per_s)
    for key in WORKLOAD_E2E + ("failed_share",):
        value = e2e_untraced[key]
        m[f"e2e.{key}"] = 0.0 if value is None else value
    return m
