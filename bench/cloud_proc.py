"""The cloud half of the TCP workloads, run in its own process.

Run as a script it serves one cloud checkpoint (final-hidden wire mode)
on 127.0.0.1 with an OS-chosen port, prints ``READY <port>`` and serves
until a ``stop`` line (or end of input) arrives on stdin. It then writes
the transmission counter of every session, its own peak RSS and, when
traced, its spans to the ``--out`` JSON file and exits.

`CloudProcess` is the client's handle on that process; leaving its `with`
block kills the process if it is still running, on every exit path.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import select
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class CloudProcess:
    def __init__(self, checkpoint: Path, out: Path, trace: bool):
        self.out = out
        cmd = [sys.executable, str(HERE / "cloud_proc.py"), "--checkpoint", str(checkpoint),
               "--out", str(out)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"cloud process did not start (got {line!r})")
            self.address = ("127.0.0.1", int(line.split()[1]))
        except BaseException:
            self.kill()
            raise

    def stop(self) -> dict:
        """Ask the server to shut down; return its counters, RSS and spans."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"cloud process exited with code {code}")
        return json.loads(self.out.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "CloudProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    import spa.cloud
    import tracing

    tracer = tracing.install(tracing.Tracer()) if args.trace else None
    server = spa.cloud.serve_cloud(args.checkpoint, ("127.0.0.1", 0), wire_mode="final")
    print(f"READY {server.address[1]}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.shutdown()
    # a handler thread finishes its session record after the device has
    # seen EOS; give the last one a moment to fill in its counter
    deadline = time.monotonic() + 5.0
    while any(r.counter is None for r in server.sessions) and time.monotonic() < deadline:
        time.sleep(0.01)
    if tracer is not None:
        tracer.uninstall()
    report = {
        "sessions": [
            {"session_id": r.session_id, "error": r.error,
             "counter": None if r.counter is None else asdict(r.counter)}
            for r in sorted(server.sessions, key=lambda r: r.session_id)
        ],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.export() if tracer is not None else [],
    }
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
