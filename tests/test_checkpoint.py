"""Checkpoint format: round trips, corruption handling, schema checks."""

import hashlib
import struct

import numpy as np
import pytest

from spa.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointChecksumError,
    CheckpointMagicError,
    CheckpointSchemaError,
    CheckpointVersionError,
    load_checkpoint,
    read_raw,
    save_model,
    write_raw,
)
from spa.model import ModelConfig, SpaModel

from conftest import STACK_MODEL_CONFIG

CFG = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=23, max_seq_len=16, side_reduction=8
)


@pytest.fixture
def model():
    m = SpaModel.create(CFG, seed=3)
    m.base.freeze()
    return m


class TestRoundTrip:
    def test_load_reproduces_every_parameter_bitwise(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        loaded = load_checkpoint(path)
        rebuilt = loaded.build_model()
        for (name, orig), (_, new) in zip(model.all_named(), rebuilt.all_named()):
            assert np.array_equal(orig.data, new.data), name

    def test_save_load_save_is_byte_identical(self, model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(model, p1, kind="full")
        save_model(load_checkpoint(p1).build_model(), p2, kind="full")
        assert p1.read_bytes() == p2.read_bytes()

    def test_base_digest_survives_round_trip(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        loaded = load_checkpoint(path)
        assert loaded.build_model().base_digest() == model.base_digest()
        assert loaded.base_digest == model.base_digest()

    def test_train_config_recorded_verbatim(self, model, tmp_path):
        from spa.training import TrainConfig

        tc = TrainConfig(learning_rate=2e-4, seed=9)
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full", train_config=tc.to_dict())
        assert load_checkpoint(path).train_config == tc.to_dict()


class TestKinds:
    def test_cloud_checkpoint_has_base_and_gate_only(self, model, tmp_path):
        path = tmp_path / "cloud.ckpt"
        save_model(model, path, kind="cloud")
        loaded = load_checkpoint(path)
        base, gate = loaded.build_cloud_parts()
        assert base.digest() == model.base.digest()
        assert gate.digest() == model.gate.digest()
        with pytest.raises(CheckpointSchemaError):
            loaded.build_side_parts()

    def test_side_checkpoint_holds_exactly_the_side_net(self, model, tmp_path):
        path = tmp_path / "side.ckpt"
        save_model(model, path, kind="side")
        _, arrays = read_raw(path)
        assert set(arrays) == {f"side.{n}" for n, _ in model.side.named()}
        loaded = load_checkpoint(path)
        assert loaded.build_side_parts().digest() == model.side.digest()
        with pytest.raises(CheckpointSchemaError):
            loaded.build_cloud_parts()

    def test_side_checkpoint_carries_no_gate(self, model, tmp_path):
        path = tmp_path / "side.ckpt"
        save_model(model, path, kind="side")
        meta, arrays = read_raw(path)
        assert arrays and not [n for n in arrays if n.startswith("gate.")]
        arrays.update({f"gate.{n}": t.data for n, t in model.gate.named()})
        write_raw(path, meta, arrays)
        with pytest.raises(CheckpointSchemaError) as e:
            load_checkpoint(path)
        assert "gate." in str(e.value)

    def test_side_checkpoint_with_the_old_embedding_cache_is_refused(self, model, tmp_path):
        # side files written before protocol v3 also carried these base arrays
        path = tmp_path / "side.ckpt"
        save_model(model, path, kind="side")
        meta, arrays = read_raw(path)
        arrays.update({f"cache.{n}": model.base[n].data for n in ("tok_emb", "pos_emb", "out_proj")})
        write_raw(path, meta, arrays)
        with pytest.raises(CheckpointSchemaError) as e:
            load_checkpoint(path)
        assert "cache." in str(e.value)

    def test_acceptance_shape_side_checkpoint_is_the_side_net_alone(self, tmp_path):
        path = tmp_path / "side.ckpt"
        save_model(SpaModel.create(STACK_MODEL_CONFIG, seed=0), path, kind="side")
        # 15,240 bytes of side parameters plus names, shapes and metadata
        assert path.stat().st_size < 16_500

    def test_compat_digest_matches_between_cloud_and_side(self, model, tmp_path):
        save_model(model, tmp_path / "c.ckpt", kind="cloud")
        save_model(model, tmp_path / "s.ckpt", kind="side")
        assert (
            load_checkpoint(tmp_path / "c.ckpt").compat_digest
            == load_checkpoint(tmp_path / "s.ckpt").compat_digest
        )


class TestCorruption:
    def test_truncated_file_is_a_checksum_error_not_a_crash(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        blob = path.read_bytes()
        for cut in (len(blob) - 7, len(blob) // 2, 41):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointChecksumError):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_flipped_byte_fails_checksum(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointChecksumError):
            load_checkpoint(path)

    def test_version_mismatch_is_distinct_error(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        blob = bytearray(path.read_bytes())[:-32]
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        blob += hashlib.sha256(bytes(blob)).digest()  # keep checksum valid
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_unknown_parameter_name_is_schema_error(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        meta, arrays = read_raw(path)
        arrays["base.mystery"] = np.zeros(3)
        write_raw(path, meta, arrays)
        with pytest.raises(CheckpointSchemaError) as e:
            load_checkpoint(path)
        assert "mystery" in str(e.value)

    def test_missing_parameter_is_schema_error(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        meta, arrays = read_raw(path)
        arrays.pop("gate.b")
        write_raw(path, meta, arrays)
        with pytest.raises(CheckpointSchemaError):
            load_checkpoint(path)

    def test_magic_is_spa1(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        assert path.read_bytes()[:4] == MAGIC == b"SPA1"
