"""End-to-end CLI pipeline smoke: corpus -> pretrain -> side -> serve/generate
-> eval -> report, everything through the real subcommands."""

import re
import subprocess
import sys
import time

import pytest

from spa.cli import EXIT_OK, main

TINY_MODEL = ["--layers", "1", "--d-model", "32", "--heads", "4", "--d-ff", "64",
              "--max-seq-len", "64"]


@pytest.mark.slow
def test_full_cli_pipeline(tmp_path, capsys):
    start = time.monotonic()
    corpora = tmp_path / "corpora"
    out = tmp_path / "run"
    reports = tmp_path / "reports"

    assert main(["make-corpus", "--seed", "5", "--tier", "small",
                 "--out", str(corpora)]) == EXIT_OK

    assert main(["pretrain", "--corpus", str(corpora / "base"),
                 "--out", str(tmp_path / "base.ckpt"),
                 "--seed", "5", "--epochs", "1", "--lr", "1e-3",
                 "--block-size", "32", *TINY_MODEL]) == EXIT_OK

    assert main(["train-side", "--base", str(tmp_path / "base.ckpt"),
                 "--corpus", str(corpora / "personal"),
                 "--out-dir", str(out),
                 "--seed", "5", "--epochs", "1", "--lr", "1e-3",
                 "--block-size", "32"]) == EXIT_OK
    for kind in ("full", "cloud", "side"):
        assert (out / f"{kind}.ckpt").exists()
    assert (out / "train_log.json").exists()
    assert (tmp_path / "base.ckpt.log.json").exists()

    assert main(["decode-local", "--checkpoint", str(out / "full.ckpt"),
                 "--prompt", "the quiet", "--max-new", "8"]) == EXIT_OK

    capsys.readouterr()

    with subprocess.Popen(
        [sys.executable, "-c",
         "from spa.cli import main; import sys; "
         "sys.exit(main(['serve', '--checkpoint', sys.argv[1], "
         "'--listen', '127.0.0.1:0']))",
         str(out / "cloud.ckpt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as server:  # leaving the block closes the pipes
        try:
            banner = server.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert match, f"no listen banner: {banner!r}"
            addr = f"{match.group(1)}:{match.group(2)}"

            for policy in ("spa", "base-only", "always-side"):
                code = main(["generate", "--connect", addr,
                             "--side-checkpoint", str(out / "side.ckpt"),
                             "--prompt", "the quiet", "--policy", policy,
                             "--max-new", "6"])
                assert code == EXIT_OK, policy
                err = capsys.readouterr().err
                assert "M=" in err

            # empty prompt = BOS only; must still generate and terminate cleanly
            assert main(["generate", "--connect", addr,
                         "--side-checkpoint", str(out / "side.ckpt"),
                         "--prompt", "", "--policy", "spa", "--max-new", "5"]) == EXIT_OK
            capsys.readouterr()

            # determinism across two identical sessions
            outputs = []
            for _ in range(2):
                assert main(["generate", "--connect", addr,
                             "--side-checkpoint", str(out / "side.ckpt"),
                             "--prompt", "a worn", "--policy", "spa",
                             "--max-new", "8"]) == EXIT_OK
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

            # the split decode over the wire agrees with the local decoder
            assert main(["generate", "--connect", addr,
                         "--side-checkpoint", str(out / "side.ckpt"),
                         "--prompt", "the quiet", "--policy", "spa",
                         "--max-new", "8"]) == EXIT_OK
            over_wire = capsys.readouterr().out
            assert main(["decode-local", "--checkpoint", str(out / "full.ckpt"),
                         "--prompt", "the quiet", "--policy", "spa",
                         "--max-new", "8"]) == EXIT_OK
            local = capsys.readouterr().out
            assert over_wire == local
        finally:
            server.terminate()
            server.wait(timeout=10)

    assert main(["eval", "--checkpoint", str(out / "full.ckpt"),
                 "--corpus", str(corpora / "personal"),
                 "--policy", "base-only"]) == EXIT_OK

    assert main(["report", "--checkpoint", f"small={out / 'full.ckpt'}",
                 "--out", str(reports), "--seed", "5",
                 "--prompts", "2", "--max-new", "8"]) == EXIT_OK
    written = list(reports.glob("report_*.md"))
    assert written, "report markdown missing"

    assert main(["bench-latency", "--layers", "32", "--usage", "0.62"]) == EXIT_OK

    elapsed = time.monotonic() - start
    assert elapsed < 30 * 60, f"pipeline took {elapsed:.0f}s"
    print(f"[pipeline] full CLI pipeline in {elapsed:.1f}s")
