"""CLI contract: exit codes, subcommand wiring, config file handling."""

import dataclasses
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import spa.cli
import spa_console

from spa.checkpoint import load_checkpoint, save_model
from spa.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from spa.cloud import serve_cloud
from spa.configfile import SCHEMA
from spa.corpus import load_text_dir
from spa.latency import LatencyProfile
from spa.metrics import teacher_forced_nll
from spa.model import ModelConfig, SpaModel
from spa.suite import SuiteReport
from spa.tokenizer import VOCAB_SIZE
from spa.training import TrainConfig
from spa.transport import SocketTransport, TransportClosed
from spa.wire import PROTOCOL_VERSION, ErrorCode, ErrorFrame, Hello, Prompt, Token


@pytest.fixture
def full_ckpt(tmp_path):
    cfg = ModelConfig(
        n_layers=1, d_model=16, n_heads=2, d_ff=32,
        vocab_size=VOCAB_SIZE, max_seq_len=48, side_reduction=8,
    )
    model = SpaModel.create(cfg, seed=1)
    rng = np.random.default_rng(5)
    model.gate["w"].data[:] = rng.standard_normal((cfg.d_model, 2)) * 0.5
    model.base.freeze()
    path = tmp_path / "full.ckpt"
    save_model(model, path, kind="full")
    return path


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "make-corpus" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bench-latency", "--warp-speed"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_names_it(self, capsys):
        assert main(["pretrain", "--out", "x.ckpt"]) == EXIT_USAGE
        assert "--corpus" in capsys.readouterr().err

    def test_nonexistent_corpus_dir_names_flag(self, capsys, tmp_path):
        code = main(["pretrain", "--corpus", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "x.ckpt")])
        assert code == EXIT_USAGE
        assert "--corpus" in capsys.readouterr().err


class TestMakeCorpus:
    def test_writes_both_corpora_and_meta(self, tmp_path, capsys):
        out = tmp_path / "corpora"
        assert main(["make-corpus", "--seed", "3", "--tier", "small",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "base" / "0000.txt").exists()
        assert (out / "personal" / "0000.txt").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["tier"] == "small"

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["make-corpus", "--seed", "3", "--out", str(a)])
        main(["make-corpus", "--seed", "3", "--out", str(b)])
        assert (a / "base" / "0000.txt").read_text() == (b / "base" / "0000.txt").read_text()


class TestBenchLatency:
    def test_table_format(self, capsys):
        assert main(["bench-latency", "--layers", "32", "--usage", "0.62"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "lora" in out and "spa" in out

    def test_csv_and_profile(self, tmp_path, capsys):
        profile = tmp_path / "p.profile"
        profile.write_text("tau = 0.002\nt_data = 0.0042\nt_pretrained = 0.0658\n")
        code = main(["bench-latency", "--profile", str(profile), "--layers", "32",
                     "--usage", "0.62", "--format", "csv"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        lst = [l for l in lines if l.startswith("lst,")][0]
        assert "0.31" in lst

    def test_bad_arch_cost_is_usage_error(self):
        assert main(["bench-latency", "--arch-cost", "lora=fast"]) == EXIT_USAGE

    def test_missing_profile_file_is_usage_error(self, tmp_path):
        assert main(["bench-latency", "--profile", str(tmp_path / "nope")]) == EXIT_USAGE


class TestDecodeAndEval:
    def test_decode_local_runs(self, full_ckpt, capsys):
        code = main(["decode-local", "--checkpoint", str(full_ckpt),
                     "--prompt", "the quiet", "--max-new", "6"])
        assert code == EXIT_OK
        assert "M=" in capsys.readouterr().err

    def test_decode_local_beam(self, full_ckpt, capsys):
        code = main(["decode-local", "--checkpoint", str(full_ckpt),
                     "--prompt", "a", "--beam", "2", "--max-new", "3",
                     "--policy", "always-side"])
        assert code == EXIT_OK

    def test_eval_prints_perplexity(self, full_ckpt, tmp_path, capsys):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(6):
            (corpus / f"{i}.txt").write_text(f"the quiet river {i}")
        code = main(["eval", "--checkpoint", str(full_ckpt), "--corpus", str(corpus),
                     "--policy", "base-only"])
        assert code == EXIT_OK
        assert "perplexity=" in capsys.readouterr().out

    def test_eval_usage_is_that_of_the_scored_positions(self, full_ckpt, tmp_path, capsys):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(6):
            (corpus / f"{i}.txt").write_text(f"the amber lantern {i} glows over the quiet river")
        code = main(["eval", "--checkpoint", str(full_ckpt), "--corpus", str(corpus)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        loaded = load_text_dir(corpus)
        docs = loaded.splits(0)[2] or loaded.documents
        total, positions, used = teacher_forced_nll(
            load_checkpoint(full_ckpt).build_model(), docs)["spa"]
        assert 0 < used < positions, "the gate should fire on part of the positions"
        assert f"perplexity={math.exp(total / positions):.4f}" in out
        assert f"usage={100.0 * used / positions:.1f}%" in out

    def test_eval_without_a_scorable_position_is_runtime_error(self, tmp_path, capsys):
        # a model whose window holds one token scores no position of any document
        cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                          vocab_size=VOCAB_SIZE, max_seq_len=1, side_reduction=8)
        ckpt = tmp_path / "full.ckpt"
        save_model(SpaModel.create(cfg, seed=1), ckpt, kind="full")
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(3):
            (corpus / f"{i}.txt").write_text(f"the quiet river {i}")
        code = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)])
        assert code == EXIT_RUNTIME
        assert "no scorable positions" in capsys.readouterr().err

    def test_generate_without_connect_is_usage_error(self, full_ckpt, tmp_path):
        side = tmp_path / "side.ckpt"
        model = load_checkpoint(full_ckpt).build_model()
        save_model(model, side, kind="side")
        assert main(["generate", "--side-checkpoint", str(side),
                     "--prompt", "hi"]) == EXIT_USAGE

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"SPA1" + b"\x00" * 64)
        code = main(["decode-local", "--checkpoint", str(bad), "--prompt", "x"])
        assert code == EXIT_RUNTIME


class TestDevicePathErrors:
    @pytest.fixture
    def side_ckpt(self, full_ckpt, tmp_path):
        side = tmp_path / "side.ckpt"
        save_model(load_checkpoint(full_ckpt).build_model(), side, kind="side")
        return side

    def test_generate_with_no_server_listening_is_runtime_error(self, side_ckpt, capsys):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # the port is free again and nothing listens on it
        code = main(["generate", "--connect", f"127.0.0.1:{port}",
                     "--side-checkpoint", str(side_ckpt), "--prompt", "hi"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(f"error: cannot connect to 127.0.0.1:{port}")

    @pytest.mark.parametrize("flag, value", [("--max-new", "70000"), ("--beam", "65536")])
    def test_generate_with_a_wire_field_out_of_range_is_runtime_error(
        self, full_ckpt, side_ckpt, capsys, flag, value
    ):
        server = serve_cloud(full_ckpt)
        try:
            host, port = server.address
            code = main(["generate", "--connect", f"{host}:{port}", "--side-checkpoint",
                         str(side_ckpt), "--prompt", "hi", flag, value])
        finally:
            server.shutdown()
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: Prompt: field out of range")

    def test_cloud_error_after_tokens_is_an_incomplete_session(self, side_ckpt, capsys):
        # a scripted cloud streams two tokens, then fails; the device must
        # report the cloud's error, not trip over its own accounting
        digest = load_checkpoint(side_ckpt).compat_digest
        listener = socket.create_server(("127.0.0.1", 0))

        def cloud():
            conn, _ = listener.accept()
            end = SocketTransport(conn)
            try:
                assert isinstance(end.recv(timeout=5), Hello)
                end.send(Hello(PROTOCOL_VERSION, "all_layers", digest))
                assert isinstance(end.recv(timeout=5), Prompt)
                end.send(Token(0, ord("o"), 1))
                end.send(Token(1, ord("k"), 0))
                end.send(ErrorFrame(ErrorCode.INTERNAL, "scripted failure"))
                end.recv(timeout=5)  # until the device closes
            except TransportClosed:
                pass
            finally:
                end.close()

        t = threading.Thread(target=cloud)
        t.start()
        try:
            host, port = listener.getsockname()
            code = main(["generate", "--connect", f"{host}:{port}", "--side-checkpoint",
                         str(side_ckpt), "--prompt", "hi", "--policy", "spa"])
        finally:
            t.join(timeout=10)
            listener.close()
        assert not t.is_alive()
        assert code == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == "ok\n"
        assert "tokens=2 M=0.500" in err
        assert (f"session incomplete: cloud error {ErrorCode.INTERNAL.value}: "
                "scripted failure") in err

    @pytest.mark.parametrize("command", ["generate", "decode-local", "eval"])
    def test_lst_is_not_a_decoding_policy(self, full_ckpt, side_ckpt, tmp_path, command, capsys):
        args = {
            "generate": ["--connect", "127.0.0.1:1", "--side-checkpoint", str(side_ckpt),
                         "--prompt", "hi"],
            "decode-local": ["--checkpoint", str(full_ckpt), "--prompt", "hi"],
            "eval": ["--checkpoint", str(full_ckpt), "--corpus", str(tmp_path)],
        }[command]
        assert main([command, *args, "--policy", "lst"]) == EXIT_USAGE
        assert "invalid choice: 'lst'" in capsys.readouterr().err

    def test_decode_local_with_negative_max_new_is_runtime_error(self, full_ckpt, capsys):
        code = main(["decode-local", "--checkpoint", str(full_ckpt), "--prompt", "x",
                     "--max-new", "-3"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: max_new_tokens must be >= 0")


class TestServeCommand:
    def test_ctrl_c_stops_the_server_and_exits_ok(self, full_ckpt):
        src = str(Path(__file__).resolve().parents[1] / "src")
        with subprocess.Popen(
            [sys.executable, "-c",
             "from spa.cli import main; import sys; "
             "sys.exit(main(['serve', '--checkpoint', sys.argv[1], '--listen', '127.0.0.1:0']))",
             str(full_ckpt)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as server:  # leaving the block closes the pipes
            try:
                banner = server.stdout.readline()
                assert "listening on" in banner, banner
                time.sleep(0.2)  # into serve_forever's loop, past the banner
                server.send_signal(signal.SIGINT)
                code = server.wait(timeout=2)  # raises TimeoutExpired past 2 s
                err = server.stderr.read()
            finally:
                server.kill()
                server.wait(timeout=10)
        assert code == EXIT_OK, err


class TestGradCheckCommand:
    def test_passes_and_prints_per_check_lines(self, capsys):
        assert main(["grad-check", "--trials", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul[0]" in out and "side+gate loss[0]" in out
        assert "all checks passed" in out

    def test_impossible_tolerance_fails_with_exit_3(self, capsys):
        assert main(["grad-check", "--trials", "1", "--tol", "1e-18"]) == EXIT_CHECK_FAILED


class TestConfigFile:
    def test_every_setting_is_reachable(self):
        """Each training and model setting is a config-file key and a flag;
        only vocab_size is fixed, by the tokenizer."""
        train = {f.name for f in dataclasses.fields(TrainConfig)}
        model = {f.name for f in dataclasses.fields(ModelConfig)}
        assert train == set(SCHEMA["train"])
        assert model == set(SCHEMA["model"]) | {"vocab_size"}

    def test_config_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[latency]\nprofile = " + str(tmp_path / "p.profile") + "\n")
        (tmp_path / "p.profile").write_text("tau = 0.001\nt_data = 0.001\nt_pretrained = 0\n")
        code = main(["--config", str(cfg), "bench-latency", "--layers", "2",
                     "--usage", "0.5", "--tokens", "50", "--format", "csv"])
        assert code == EXIT_OK
        lst = [l for l in capsys.readouterr().out.splitlines() if l.startswith("lst,")][0]
        assert "0.1" in lst  # 50 * 1 * 0.002

    def test_without_a_profile_the_default_profile_is_read(self, monkeypatch, tmp_path):
        """bench-latency and report read LatencyProfile() when neither
        --profile nor a [latency] profile names a file."""
        monkeypatch.delenv("SPA_CONFIG", raising=False)
        seen = []

        def table(profile, *args, **kwargs):
            seen.append(profile)
            return []

        def suite(cfg, log=None):
            seen.append(cfg.profile)
            return SuiteReport(digest="-")

        monkeypatch.setattr(spa.cli, "build_comparison_table", table)
        monkeypatch.setattr(spa.cli, "run_experiment_suite", suite)
        assert main(["bench-latency"]) == EXIT_OK
        assert main(["report", "--checkpoint", "small=x.ckpt", "--out", str(tmp_path)]) == EXIT_OK
        assert seen == [LatencyProfile(), LatencyProfile()]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[train]\nwarp = 9\n")
        assert main(["--config", str(cfg), "bench-latency"]) == EXIT_USAGE

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[propulsion]\nx = 1\n")
        assert main(["--config", str(cfg), "bench-latency"]) == EXIT_USAGE

    def test_paths_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[paths]\nout_dir = out\n")
        assert main(["--config", str(cfg), "bench-latency"]) == EXIT_USAGE
        assert "unknown section [paths]" in capsys.readouterr().err

    def test_settings_take_default_then_file_then_flag(self, tmp_path, capsys):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(10):
            (corpus / f"{i}.txt").write_text(f"the quiet river {i} runs under the old bridge")
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[model]\nn_layers = 1\nd_model = 16\nn_heads = 2\nd_ff = 32\n"
                       "max_seq_len = 32\n"
                       "[train]\nepochs = 5\nbatch_size = 4\nblock_size = 16\n"
                       "learning_rate = 0.002\n")
        out = tmp_path / "base.ckpt"
        code = main(["--config", str(cfg), "pretrain", "--corpus", str(corpus),
                     "--out", str(out), "--epochs", "1", "--d-model", "32", "--heads", "4"])
        assert code == EXIT_OK
        loaded = load_checkpoint(out)
        # flags: d_model, n_heads, epochs; file: the rest it sets; defaults: the others
        assert loaded.config == ModelConfig(
            n_layers=1, d_model=32, n_heads=4, d_ff=32, vocab_size=VOCAB_SIZE,
            max_seq_len=32, side_reduction=ModelConfig().side_reduction,
        )
        assert loaded.train_config == {
            **TrainConfig().to_dict(),
            "epochs": 1, "batch_size": 4, "block_size": 16, "learning_rate": 0.002,
        }

    def test_pretrain_makes_the_parent_directory_of_out(self, tmp_path):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(10):
            (corpus / f"{i}.txt").write_text(f"a low wall {i} runs along the lane")
        out = tmp_path / "missing" / "dir" / "base.ckpt"
        code = main(["pretrain", "--corpus", str(corpus), "--out", str(out),
                     "--layers", "1", "--d-model", "16", "--heads", "2", "--d-ff", "32",
                     "--max-seq-len", "32", "--epochs", "1", "--batch-size", "4",
                     "--block-size", "16"])
        assert code == EXIT_OK
        assert load_checkpoint(out).config.d_model == 16
        assert json.loads(Path(str(out) + ".log.json").read_text())["epochs"]

    def test_file_learning_rate_selects_a_single_side_run(self, full_ckpt, tmp_path):
        corpus = tmp_path / "docs"
        corpus.mkdir()
        for i in range(10):
            (corpus / f"{i}.txt").write_text(f"a worn path {i} leads past the mill")
        settings = "[train]\nepochs = 1\nbatch_size = 4\nblock_size = 16\n"
        (tmp_path / "file.cfg").write_text(settings + "learning_rate = 0.003\n")
        (tmp_path / "flag.cfg").write_text(settings)
        runs = {"file": [], "flag": ["--lr", "0.003"]}
        for name, extra in runs.items():
            assert main(["--config", str(tmp_path / f"{name}.cfg"), "train-side",
                         "--base", str(full_ckpt), "--corpus", str(corpus),
                         "--out-dir", str(tmp_path / name), *extra]) == EXIT_OK
            # a set rate is a grid of one
            log = json.loads((tmp_path / name / "train_log.json").read_text())
            assert log["chosen_lr"] == 0.003 and list(log["runs"]) == ["0.003"]
        side = load_checkpoint(tmp_path / "file" / "side.ckpt")
        assert side.train_config["learning_rate"] == 0.003
        for written in ("train_log.json", "full.ckpt", "cloud.ckpt", "side.ckpt"):
            file_set = (tmp_path / "file" / written).read_bytes()
            assert file_set == (tmp_path / "flag" / written).read_bytes(), written

    def test_env_var_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "spa.cfg"
        cfg.write_text("[train]\nepochs = 1\n")
        monkeypatch.setenv("SPA_CONFIG", str(cfg))
        assert main(["bench-latency", "--layers", "4", "--usage", "0.5"]) == EXIT_OK
        monkeypatch.setenv("SPA_CONFIG", str(tmp_path / "missing.cfg"))
        assert main(["bench-latency"]) == EXIT_USAGE


class TestConsoleScript:
    """The `spa` console script pins BLAS to one thread before numpy loads."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")
    PROBE = (
        "import json, os, sys\n"
        "import spa_console\n"
        "assert 'numpy' not in sys.modules, 'spa_console imported numpy'\n"
        "import spa.cli\n"
        "spa.cli.console_entry = lambda: print(json.dumps("
        "{k: os.environ.get(k) for k in spa_console.PINNED}))\n"
        "spa_console.main()\n"
    )

    def run(self, code, **env_values):
        env = {k: v for k, v in os.environ.items() if k not in spa_console.PINNED}
        env.update(env_values, PYTHONPATH=self.SRC)
        return subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )

    def test_pins_one_thread_by_default(self):
        proc = self.run(self.PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == dict.fromkeys(spa_console.PINNED, "1")

    def test_keeps_a_value_the_user_set(self):
        proc = self.run(self.PROBE, OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "1"
        }

    def test_runs_the_cli(self):
        proc = self.run("import sys, spa_console\nsys.argv = ['spa', '--help']\nspa_console.main()\n")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "make-corpus" in proc.stdout
