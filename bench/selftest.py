"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks span self-time arithmetic on a synthetic span tree and the tail
rule, that deliberately corrupted outputs are counted as failed, that
BENCHMARK.json names exactly the metrics the harness emits, that a tiny
in-process run of every workload (one prompt, three sessions), untraced
and traced, emits every named metric with its unit, that the benchmark
command prints a complete result line for one workload at its real size,
and that it fails without printing a result when the spa sources are
missing. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# tiny runs: every workload cuts one prompt, so a pass is one to three sessions
workloads.N_PROMPTS = 1


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent, "session": 1, "info": None}


def check_span_arithmetic() -> None:
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: union of a and b is [1, 5]
        span("c", 8.0, 12.0, 0),  # runs past the root: only [8, 10] counts
        span("a.child", 1.5, 2.5, 1),  # a grandchild does not reduce root
    ]
    selfs = tracing.self_times(spans)
    expect(abs(selfs[0] - 4.0) < 1e-12, "root self time = 10 - |[1,5] u [8,10]| = 4")
    expect(abs(selfs[1] - 1.0) < 1e-12, "child self time excludes its own child")
    expect(selfs[2] == 3.0 and selfs[4] == 1.0, "leaf self time is its duration")
    expect(tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0, "interval union")


def check_tail_rule() -> None:
    value, pct, n = report.tail(range(100))
    expect((value, n) == (89, 100) and abs(pct - 89.0 / 0.99) < 1e-9,
           "tail of 100 samples has exactly 10 beyond it")
    expect(report.tail(range(15))[:2] == (14, 100.0), "tail of 15 samples is the maximum")


class ThreeJobs(workloads.Workload):
    """A workload of three instant jobs, to test the loop's stopping rule."""

    pass_size = 3

    def run(self, index: int) -> workloads.Sample:
        return workloads.Sample(index % self.pass_size, 0.0, tokens=1)


def check_stopping_rule() -> None:
    wl = ThreeJobs(0, HERE)
    phase = workloads.measure(wl, 0.0, 4)
    expect([s.job for s in phase.samples] == [0, 1, 2, 0, 1, 2] and not any(
        s.error for s in phase.checked), "the timed loop stops only after a whole pass")
    saved, workloads.MAX_EXTRA_S = workloads.MAX_EXTRA_S, -1.0
    try:
        phase = workloads.measure(wl, 0.0, 4)
    finally:
        workloads.MAX_EXTRA_S = saved
    expect(len(phase.samples) == 1 and phase.samples[0].error,
           "a phase cut by the hard stop counts its sessions as failed")


def check_corruption_counted() -> None:
    work = HERE / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    with workloads.WORKLOADS["local_long_greedy"](5, work) as wl:
        wl.setup(trace=False)
        phase = workloads.measure(wl, 0.0, 2)
        bad = phase.samples[1]
        bad.output = ((bad.output[0][0] + 1,) + bad.output[0][1:], bad.output[1])
        wl.check(phase.checked, None)
    e2e, _ = report.e2e_metrics(phase, [1.0], 1.0, False, False, False)
    expect(bad.error is not None and phase.samples[0].error is None,
           "corrupted greedy token is caught by the teacher-forced check")
    expect(e2e["failed_share"] == 0.5, "corrupted session counts in failed_share")
    with workloads.WORKLOADS["train_side"](5, work) as wl:
        wl.setup(trace=False)
        phase = workloads.measure(wl, 0.0, 2)
        phase.samples[-1].output = (phase.samples[-1].output[0] + 1e-12, phase.samples[-1].output[1])
        wl.check(phase.checked, None)
    expect([s.error is None for s in phase.checked] == [True, True, False],
           "a training epoch with a different final loss is counted as failed")


def check_benchmark_json() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == {k: report.E2E_UNITS[k] for k in report.BOUNDED_E2E},
           "BENCHMARK.json end_to_end matches the harness")
    expect(layers == report.LAYER_UNITS, "BENCHMARK.json per_layer matches the harness")
    expect({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads match the harness")
    return bench


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_result_line(res: dict, wanted: list[dict], what: str) -> None:
    expect(set(res) == {"correct", "attempted", "failed", "metrics"}
           and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
           f"{what}: result line is complete and correct")
    expect({k: v["unit"] for k, v in res["metrics"].items()}
           == {m["name"]: m["unit"] for m in wanted},
           f"{what}: every named metric is emitted with its unit")


def check_smoke_runs(bench: dict) -> None:
    for trace in (0, 1):
        wanted = bench["per_layer"] if trace else bench["end_to_end"]
        for name in workloads.WORKLOADS:
            result = run.run(name, 3, 0.2, bool(trace), min_samples=3)
            check_result_line(run.result_line(result), wanted, f"{name} trace {trace}")
            expect(set(result["end_to_end"]) == set(report.E2E_UNITS),
                   f"{name} trace {trace}: all thirteen end-to-end metrics are written")


def check_command(bench: dict) -> None:
    cmd = [*bench["command"], "--workload", "train_side", "--seed", "3", "--seconds", "0.2",
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(out.returncode == 0, "the benchmark command exits 0 on train_side")
    check_result_line(last_json(out.stdout), bench["end_to_end"], "train_side command")


def check_fails_without_sources(bench: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [*bench["command"], "--workload", "train_side", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without the spa sources the benchmark fails and prints no result")


def main() -> int:
    check_span_arithmetic()
    check_tail_rule()
    check_stopping_rule()
    check_corruption_counted()
    bench = check_benchmark_json()
    check_fails_without_sources(bench)
    check_command(bench)
    check_smoke_runs(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
