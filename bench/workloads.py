"""The four workloads: inputs from a seed, set-up, one timed closed loop, checks.

Every workload uses the acceptance-suite model shape with weights from
`SpaModel.create(config, MODEL_SEED)` and a standard-normal gate drawn from
the same seed (a zero gate never fires). A trained stack is not used:
training one costs about a minute, and decode cost depends on trained
weights only through gate usage.

The model is the system under test and stays fixed; --seed draws the
inputs (prompts and the training corpus). A gate drawn per run seed fires
on 0.38 to 0.74 of tokens depending on the seed, which would make the
seed, not the code, set the figures. MODEL_SEED was picked among 4, 7, 9,
10 and 11 as the one whose gate usage lies in 0.50-0.62, near the trained
stack's 0.545, and varies least across prompt seeds (0.505, sd 0.015 over
eight prompt seeds).

Load is a closed loop: one client, sessions back to back, at most two
processes (client and cloud server), one BLAS thread each.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import spa.checkpoint
import spa.decoding
import spa.device
import spa.training
from spa import numcore as nc
from spa.corpus import make_synthetic_personalized_corpus
from spa.decoding import DecodeConfig
from spa.errors import SpaError
from spa.model import ModelConfig, SpaModel, token_loss
from spa.tokenizer import EOS, ByteTokenizer
from spa.transport import SocketTransport
from spa.wire import Prompt, Token

from cloud_proc import CloudProcess
from tracing import WIRE_TYPES

CONFIG = ModelConfig(
    n_layers=2, d_model=64, n_heads=4, d_ff=128, vocab_size=259, max_seq_len=128, side_reduction=8
)
MODEL_SEED = 11
POLICY_CYCLE = ("spa", "always_side", "base_only")
N_PROMPTS = 16
# every run completes at least this many sessions, so the
# tail percentile has ten samples beyond it and sits at or above the median
MIN_SAMPLES = 21
# a phase that has not reached its last whole pass this long after its
# deadline is cut and its sessions count as failed, well inside the time limit
MAX_EXTRA_S = 60.0


def build_model() -> SpaModel:
    model = SpaModel.create(CONFIG, MODEL_SEED)
    rng = np.random.default_rng([MODEL_SEED, 1])
    model.gate.load_arrays(
        {"w": rng.standard_normal((CONFIG.d_model, 2)), "b": rng.standard_normal(2)}
    )
    model.base.freeze()
    return model


def cut_prompts(seed: int, count: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Token windows of lo..hi tokens cut from the seeded personalized corpus."""
    _, personal = make_synthetic_personalized_corpus(seed, "small")
    tok = ByteTokenizer()
    stream = [t for doc in personal.documents for t in tok.encode_document(doc)]
    rng = np.random.default_rng([seed, 2])
    prompts = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, len(stream) - n))
        prompts.append(tuple(stream[start : start + n]))
    return prompts


@dataclass
class Sample:
    """One session (or one training epoch) of the timed loop."""

    job: int
    wall_s: float
    tokens: int = 0
    output: tuple = ()
    policy: str = ""
    round_trips: int = 0
    wire_bytes: int = 0
    m_reported: float = 0.0
    gate_bits: int = 0
    ttft_s: float | None = None
    tpot_s: float | None = None
    bytes_by_type: dict = field(default_factory=dict)
    counter: dict | None = None
    error: str | None = None


@dataclass
class Phase:
    samples: list[Sample]
    wall_s: float
    warmup: list[Sample] = field(default_factory=list)

    @property
    def checked(self) -> list[Sample]:
        """Every session run, warm-up included, in the order the cloud saw them."""
        return self.warmup + self.samples

    @property
    def tokens(self) -> int:
        return sum(s.tokens for s in self.samples)

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.wall_s


class FrameClock:
    """Transport wrapper that timestamps PROMPT and TOKEN frames and counts
    bytes by frame type; the only instrument in an untraced run."""

    def __init__(self, inner: SocketTransport):
        self.inner = inner
        self.prompt_sent: float | None = None
        self.token_times: list[float] = []
        self.bytes_by_type: dict[str, int] = {}

    def _count(self, msg, nbytes: int) -> None:
        kind = WIRE_TYPES[type(msg).__name__]
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + nbytes

    def send(self, msg) -> None:
        if isinstance(msg, Prompt):
            self.prompt_sent = time.perf_counter()
        before = self.inner.bytes_sent
        self.inner.send(msg)
        self._count(msg, self.inner.bytes_sent - before)

    def recv(self, timeout=None):
        before = self.inner.bytes_received
        msg = self.inner.recv(timeout)
        if isinstance(msg, Token):
            self.token_times.append(time.perf_counter())
        self._count(msg, self.inner.bytes_received - before)
        return msg

    def close(self) -> None:
        self.inner.close()

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Workload:
    warmup_size = 1
    setup_reps = 5

    @property
    def pass_size(self) -> int:
        """Sessions in one pass over the job list; the loop stops only between passes."""
        return 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self, trace: bool) -> float:
        raise NotImplementedError

    def run(self, index: int) -> Sample:
        raise NotImplementedError

    def stop(self) -> dict | None:
        """End the phase; return the cloud's report where there is a cloud."""
        return None

    def check(self, samples: list[Sample], report: dict | None) -> None:
        """Set `error` on every sample whose output or accounting is wrong."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TcpWorkload(Workload):
    """Cloud in its own process, one device client over loopback TCP."""

    warmup_size = len(POLICY_CYCLE)

    def __init__(self, seed, work, strategy: str, new_tokens: int):
        super().__init__(seed, work)
        self.strategy = strategy
        self.new_tokens = new_tokens
        self.prompts = cut_prompts(seed, N_PROMPTS, 8, 24)
        self.cloud: CloudProcess | None = None
        self._starts = 0
        self._refs: dict[int, tuple] = {}

    @property
    def pass_size(self) -> int:
        return len(self.prompts) * len(POLICY_CYCLE)

    def _job(self, index: int) -> tuple[tuple[int, ...], DecodeConfig]:
        prompt = self.prompts[(index // len(POLICY_CYCLE)) % len(self.prompts)]
        dcfg = DecodeConfig(
            max_new_tokens=self.new_tokens,
            strategy=self.strategy,
            beam_width=4,
            policy=POLICY_CYCLE[index % len(POLICY_CYCLE)],
            wire_mode="final",
        )
        return prompt, dcfg

    def setup(self, trace: bool) -> float:
        self.close()
        cloud_ckpt, side_ckpt = self.work / "cloud.ckpt", self.work / "side.ckpt"
        t0 = time.perf_counter()
        self.model = build_model()
        spa.checkpoint.save_model(self.model, cloud_ckpt, kind="cloud")
        spa.checkpoint.save_model(self.model, side_ckpt, kind="side")
        self._starts += 1
        self.cloud = CloudProcess(cloud_ckpt, self.work / f"cloud-{self._starts}.json", trace)
        self.bundle = spa.device.SideBundle.from_checkpoint(side_ckpt)
        return time.perf_counter() - t0

    def run(self, index: int) -> Sample:
        job = index % self.pass_size
        prompt, dcfg = self._job(job)
        t0 = time.perf_counter()
        try:
            clock = FrameClock(SocketTransport.connect(*self.cloud.address))
            res = spa.device.run_device(self.bundle, dcfg, prompt_ids=prompt, transport=clock)
        except (OSError, SpaError) as e:
            return Sample(job, time.perf_counter() - t0, policy=dcfg.policy, error=str(e))
        wall = time.perf_counter() - t0
        times = clock.token_times
        counter = res.counter
        return Sample(
            job=job,
            wall_s=wall,
            tokens=len(res.tokens),
            output=(tuple(res.tokens), tuple(res.gate_trace)),
            policy=dcfg.policy,
            round_trips=counter.hidden_round_trips,
            wire_bytes=counter.bytes_sent + counter.bytes_received,
            m_reported=counter.transmissions_per_token,
            gate_bits=sum(res.gate_trace),
            ttft_s=times[0] - clock.prompt_sent if times and clock.prompt_sent else None,
            tpot_s=(times[-1] - times[0]) / (len(times) - 1) if len(times) > 1 else None,
            bytes_by_type=dict(clock.bytes_by_type),
            counter=asdict(counter),
            error=None if res.completed and not res.error else f"session failed: {res.error}",
        )

    def stop(self) -> dict:
        report = self.cloud.stop()
        self.cloud = None
        return report

    def check(self, samples: list[Sample], report: dict | None) -> None:
        cloud = report["sessions"] if report else []
        if len(cloud) != len(samples):
            for s in samples:
                s.error = s.error or f"cloud saw {len(cloud)} sessions, device ran {len(samples)}"
            return
        for s, rec in zip(samples, cloud):
            if s.error:
                continue
            mismatch = _counter_mismatch(s.counter, rec["counter"])
            if mismatch:
                s.error = f"cloud/device accounting differs: {mismatch}"
                continue
            if s.job not in self._refs:
                prompt, dcfg = self._job(s.job)
                ref = spa.decoding.decode_monolithic(self.model, prompt, dcfg, eos_id=EOS)
                self._refs[s.job] = (tuple(ref.tokens), tuple(ref.gate_trace))
            if s.output != self._refs[s.job]:
                s.error = "split output differs from decode_monolithic"

    def close(self) -> None:
        if self.cloud is not None:
            self.cloud.kill()
            self.cloud = None


def _counter_mismatch(device: dict, cloud: dict | None) -> str | None:
    if cloud is None:
        return "cloud kept no counter"
    pairs = (
        ("frames_sent", "frames_received"),
        ("frames_received", "frames_sent"),
        ("bytes_sent", "bytes_received"),
        ("bytes_received", "bytes_sent"),
        ("hidden_round_trips", "hidden_round_trips"),
        ("tokens_generated", "tokens_generated"),
        ("gate_trace", "gate_trace"),
    )
    for dev_key, cloud_key in pairs:
        if device[dev_key] != cloud[cloud_key]:
            return f"device {dev_key}={device[dev_key]} cloud {cloud_key}={cloud[cloud_key]}"
    return None


class LocalLongGreedy(Workload):
    """In process, spa with the all-layers wire, long prompts sliding past max_seq_len."""

    new_tokens = 48

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.prompts = cut_prompts(seed, N_PROMPTS, 64, 112)
        self.dcfg = DecodeConfig(
            max_new_tokens=self.new_tokens, strategy="greedy", policy="spa", wire_mode="all_layers"
        )
        self._refs: dict[int, tuple] = {}

    @property
    def pass_size(self) -> int:
        return len(self.prompts)

    def setup(self, trace: bool) -> float:
        path = self.work / "full.ckpt"
        t0 = time.perf_counter()
        spa.checkpoint.save_model(build_model(), path, kind="full")
        self.model = spa.checkpoint.load_checkpoint(path).build_model()
        return time.perf_counter() - t0

    def run(self, index: int) -> Sample:
        job = index % len(self.prompts)
        t0 = time.perf_counter()
        try:
            res = spa.decoding.decode_monolithic(self.model, self.prompts[job], self.dcfg, eos_id=EOS)
        except SpaError as e:
            return Sample(job, time.perf_counter() - t0, policy="spa", error=str(e))
        return Sample(
            job=job,
            wall_s=time.perf_counter() - t0,
            tokens=len(res.tokens),
            output=(tuple(res.tokens), tuple(res.gate_trace)),
            policy="spa",
            round_trips=res.counter.hidden_round_trips,
            m_reported=res.counter.transmissions_per_token,
            gate_bits=sum(res.gate_trace),
        )

    def check(self, samples: list[Sample], report: dict | None) -> None:
        for s in samples:
            if s.error:
                continue
            if s.job not in self._refs:
                self._refs[s.job] = teacher_forced(self.model, self.prompts[s.job], s.output[0])
            if s.output != self._refs[s.job]:
                s.error = "greedy tokens or gate bits differ from teacher-forced argmax"


def teacher_forced(model: SpaModel, prompt, tokens) -> tuple[tuple, tuple]:
    """Argmax token and hard gate bit at each generated position, from
    `token_loss(gate_mode="hard")` over the same window of at most
    max_seq_len tokens that greedy decoding saw."""
    seq = list(prompt) + list(tokens)
    window = model.config.max_seq_len
    want_tok, want_gate = [], []
    with nc.no_grad():
        unslid = [a for a in range(len(prompt), len(seq)) if a <= window]
        if unslid:
            _, trace = token_loss(model, seq[: unslid[-1] + 1], gate_mode="hard")
            for a in unslid:
                want_tok.append(int(np.argmax(trace.fused_logits.data[a - 1])))
                want_gate.append(int(trace.gate_trace[a - 1]))
        for a in range(max(len(prompt), window + 1), len(seq)):
            _, trace = token_loss(model, seq[a - window : a + 1], gate_mode="hard")
            want_tok.append(int(np.argmax(trace.fused_logits.data[-1])))
            want_gate.append(int(trace.gate_trace[-1]))
    return tuple(want_tok), tuple(want_gate)


class TrainSide(Workload):
    """One epoch of `train_side_and_gate` per sample, on a frozen seeded base."""

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.tcfg = spa.training.TrainConfig(epochs=1, batch_size=8, block_size=48, seed=seed)

    def setup(self, trace: bool) -> float:
        path = self.work / "base.ckpt"
        t0 = time.perf_counter()
        spa.checkpoint.save_model(build_model(), path, kind="base")
        self.model = spa.checkpoint.load_checkpoint(path).build_base_model(MODEL_SEED)
        _, self.corpus = make_synthetic_personalized_corpus(self.seed, "small")
        train_docs, _, _ = self.corpus.splits(self.seed)
        blocks = spa.training.token_blocks(train_docs, ByteTokenizer(), self.tcfg.block_size)
        self.tokens_per_epoch = blocks.shape[0] * self.tcfg.block_size
        self.digest = self.model.base_digest()
        return time.perf_counter() - t0

    def run(self, index: int) -> Sample:
        spa.training.reinit_side_and_gate(self.model, self.seed)
        t0 = time.perf_counter()
        try:
            result = spa.training.train_side_and_gate(self.model, self.tcfg, self.corpus)
        except SpaError as e:
            return Sample(0, time.perf_counter() - t0, error=str(e))
        return Sample(
            job=0,
            wall_s=time.perf_counter() - t0,
            tokens=self.tokens_per_epoch,
            output=(result.final.train_loss, self.model.base_digest()),
        )

    def check(self, samples: list[Sample], report: dict | None) -> None:
        done = [s for s in samples if not s.error]
        want = (done[0].output[0], self.digest) if done else None
        for s in done:
            if s.output != want:
                s.error = f"epoch gave (loss, base digest) {s.output}, first gave {want}"


WORKLOADS = {
    "tcp_greedy_mix": lambda seed, work: TcpWorkload(seed, work, "greedy", 32),
    "tcp_beam4": lambda seed, work: TcpWorkload(seed, work, "beam", 16),
    "local_long_greedy": LocalLongGreedy,
    "train_side": TrainSide,
}


def measure(wl: Workload, seconds: float, min_samples: int, tracer=None) -> Phase:
    """Closed loop: untimed warm-up sessions, then whole passes over the job
    list until `seconds` have passed and at least `min_samples` sessions
    are done. Stopping only between passes makes a seed time the same job
    mix whatever the host's speed; timed sessions start again at job 0.
    A phase cut short by the hard stop marks every session failed, since
    its figures would come from another job mix."""
    session = 0

    def run(index: int) -> Sample:
        nonlocal session
        session += 1
        if tracer is not None:
            tracer.session = session
        return wl.run(index)

    warmup = [run(index) for index in range(wl.warmup_size)]
    samples: list[Sample] = []
    t0 = time.perf_counter()
    deadline, hard_stop = t0 + seconds, t0 + seconds + MAX_EXTRA_S
    while True:
        samples.append(run(len(samples)))
        now = time.perf_counter()
        whole = len(samples) % wl.pass_size == 0
        if whole and now >= deadline and len(samples) >= min_samples:
            return Phase(samples, now - t0, warmup)
        if now >= hard_stop:
            cut = f"phase cut by the hard stop after {len(samples)} sessions"
            for s in samples:
                s.error = s.error or cut
            return Phase(samples, now - t0, warmup)
