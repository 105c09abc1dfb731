"""Benchmark of the split cloud/device decoder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: tcp_greedy_mix, tcp_beam4,
local_long_greedy, train_side (see BENCHMARK.json for why each exists).
Every input is generated from --seed. Each run sets up several times and
reports the median set-up time, then runs a closed loop of whole passes
over the workload's job list until --seconds have passed and at least 21
sessions are done, then checks every output outside the timed region.
One pass of tcp_greedy_mix is 48 sessions of about 0.8 s each, so with
--seconds 12 that workload measures about 40 s (80 s traced) on a
2-vCPU host.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run is split: the first half is untraced, the second half
wraps spa's public functions (see tracing.py) in the client and the cloud
process, and the last line carries the per-layer metrics. All metrics,
tail percentiles, run metadata and (traced) spans are also written under
bench/out/. Traffic crosses loopback (127.0.0.1) only, never a real link.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads_per_process": {v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "network": "loopback TCP on 127.0.0.1 only, not a real link",
        "load": "closed loop, one client, sessions back to back",
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        min_samples: int | None = None) -> dict:
    """One benchmark run; `min_samples` overrides the session floor
    `workloads.MIN_SAMPLES` (the self-test uses a small one)."""
    import report
    import tracing
    import workloads

    stem = f"{name}-seed{seed}-trace{int(trace)}"
    out_dir = HERE / "out"
    work = out_dir / stem
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, work)
    is_tcp = isinstance(wl, workloads.TcpWorkload)
    min_samples = min_samples or workloads.MIN_SAMPLES
    half = seconds / 2 if trace else seconds
    with wl:
        setups = [wl.setup(trace=False) for _ in range(wl.setup_reps)]
        untraced = workloads.measure(wl, half, min_samples)
        cloud = wl.stop()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += cloud["maxrss_kb"] if cloud else 0
        wl.check(untraced.checked, cloud)
        e2e, notes = report.e2e_metrics(
            untraced, setups, rss_kb / 1024.0,
            is_train=isinstance(wl, workloads.TrainSide),
            is_tcp=is_tcp,
            is_greedy_tcp=is_tcp and wl.strategy == "greedy",
        )
        fit = None
        if name == "tcp_greedy_mix":
            fit = report.latency_fit(untraced.samples, out_dir / f"{stem}.profile")
        samples = list(untraced.checked)
        layers = None
        if trace:
            tracer = tracing.install(tracing.Tracer())
            try:
                wl.setup(trace=True)
                traced = workloads.measure(wl, half, min_samples, tracer)
            finally:
                tracer.uninstall()
            cloud = wl.stop()
            wl.check(traced.checked, cloud)
            samples += traced.checked
            client_spans = tracer.export()
            cloud_spans = cloud["spans"] if cloud else []
            tracing.write_spans(client_spans, out_dir / f"{stem}-client-spans.jsonl")
            tracing.write_spans(cloud_spans, out_dir / f"{stem}-cloud-spans.jsonl")
            layers = report.layer_metrics(
                client_spans, cloud_spans, untraced, traced, e2e, fit)
    failures = [s.error for s in samples if s.error]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "metadata": metadata(),
        "setup_s_runs": setups,
        "end_to_end": {k: {"value": v, "unit": report.E2E_UNITS[k]} for k, v in e2e.items()},
        "notes": notes,
        "latency_fit": fit,
        "per_layer": None if layers is None else {
            k: {"value": layers[k], "unit": report.LAYER_UNITS[k]} for k in report.LAYER_UNITS},
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures[:10],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tcp_greedy_mix", "tcp_beam4", "local_long_greedy", "train_side"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spa" / "__init__.py").is_file():
        print(f"error: the spa package is not under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["end_to_end"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        note = ", ".join(f"{k} {v}" for k, v in result["notes"].get(key, {}).items())
        print(f"{key:36s} {value:>14s} {metric['unit']}" + (f"  ({note})" if note else ""))
    if result["per_layer"]:
        for key, metric in result["per_layer"].items():
            print(f"{key:42s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result_line(result)))
    return 0


def result_line(result: dict) -> dict:
    """The last stdout line: the per-layer metrics of a traced run, else the
    bounded end-to-end metrics."""
    import report

    names = report.LAYER_UNITS if result["trace"] else report.BOUNDED_E2E
    source = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(source[k]["value"]), "unit": source[k]["unit"]} for k in names},
    }


if __name__ == "__main__":
    sys.exit(main())
