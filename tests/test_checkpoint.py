"""Checkpoint format: round trips, corruption handling, schema checks."""

import hashlib
import struct

import numpy as np
import pytest

from spa.checkpoint import (
    FORMAT_VERSION,
    KIND_GROUPS,
    KINDS,
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
from spa.cloud import CloudEndpoint
from spa.device import SideBundle
from spa.model import BaseParams, GateParams, ModelConfig, SideParams, SpaModel

from conftest import STACK_MODEL_CONFIG

CFG = ModelConfig(
    n_layers=2, d_model=16, n_heads=2, d_ff=32, vocab_size=23, max_seq_len=16, side_reduction=8
)


@pytest.fixture
def model():
    m = SpaModel.create(CFG, seed=3)
    m.base.freeze()
    return m


def all_named(model):
    """Every parameter of the model as ("group.name", tensor)."""
    return [(f"{group}.{name}", t) for group in ("base", "side", "gate")
            for name, t in getattr(model, group).named()]


class TestRoundTrip:
    def test_load_reproduces_every_parameter_bitwise(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        loaded = load_checkpoint(path)
        rebuilt = loaded.build_model()
        for (name, orig), (_, new) in zip(all_named(model), all_named(rebuilt)):
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

    def test_raw_arrays_of_any_shape_round_trip(self, tmp_path):
        arrays = {
            "scalar": np.asarray(1.5),
            "empty": np.zeros((3, 0)),
            "strided": np.arange(12.0).reshape(3, 4)[:, ::2],
            "int": np.arange(4),
        }
        path = tmp_path / "raw.ckpt"
        write_raw(path, {"k": 1}, arrays)
        meta, back = read_raw(path)
        assert meta == {"k": 1} and list(back) == sorted(arrays)
        for name, arr in arrays.items():
            # stored at least 1-D, as a Tensor holds it
            want = np.atleast_1d(arr)
            # read-only views of the file's bytes: only a build copies them
            assert back[name].dtype == np.float64 and not back[name].flags.writeable
            assert back[name].shape == want.shape and np.array_equal(back[name], want), name

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

    # one parameter per kind; the transposed ffn weight keeps its element count
    @pytest.mark.parametrize(
        "kind,name,bad_shape",
        [
            ("full", "side.up.w", (2, 17)),
            ("full", "base.layers.1.ffn.w1", (32, 16)),
            ("base", "base.out_proj", (16, 24)),
            ("cloud", "gate.w", (16, 3)),
            ("side", "side.up.w", (2, 17)),
            ("side", "side.mix.1", (2,)),
        ],
    )
    def test_wrong_shaped_parameter_is_schema_error(self, model, tmp_path, kind, name, bad_shape):
        path = tmp_path / f"{kind}.ckpt"
        save_model(model, path, kind=kind)
        meta, arrays = read_raw(path)
        good_shape = arrays[name].shape
        arrays[name] = np.zeros(bad_shape)
        write_raw(path, meta, arrays)
        with pytest.raises(CheckpointSchemaError) as e:
            load_checkpoint(path)
        assert name in str(e.value)
        assert str(bad_shape) in str(e.value) and str(good_shape) in str(e.value)


def _forbid_draws(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a load path drew parameters")

    for cls in (SpaModel, BaseParams, SideParams, GateParams):
        monkeypatch.setattr(cls, "create", draw)
    monkeypatch.setattr(np.random, "default_rng", draw)


class TestLoadingDrawsNothing:
    """Every load path but `build_base_model` copies the file's arrays: no
    model, bundle or generator is created."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_load_path_draws(self, model, tmp_path, monkeypatch, kind):
        path = tmp_path / f"{kind}.ckpt"
        save_model(model, path, kind=kind)
        _forbid_draws(monkeypatch)
        loaded = load_checkpoint(path)
        groups = KIND_GROUPS[kind]
        if kind == "full":
            built = loaded.build_model()
            assert built.base.frozen
            assert all(t.requires_grad for t in built.trainable_tensors())
            for (name, orig), (_, new) in zip(all_named(model), all_named(built)):
                assert np.array_equal(orig.data, new.data), name
        if "gate" in groups:
            base, gate = loaded.build_cloud_parts()
            assert base.frozen and gate.frozen
            assert (base.digest(), gate.digest()) == (model.base.digest(), model.gate.digest())
            endpoint = CloudEndpoint.from_checkpoint(path)
            assert endpoint.base.digest() == model.base.digest()
            assert endpoint.digest == loaded.compat_digest
        if "side" in groups:
            side = loaded.build_side_parts()
            assert side.frozen and side.digest() == model.side.digest()
            # the parts own a writable copy of the loaded arrays
            assert side["up.w"].data.flags.writeable
            assert not np.shares_memory(side["up.w"].data, loaded.arrays["side.up.w"])
            assert SideBundle.from_checkpoint(path).side.digest() == model.side.digest()
        if "base" in groups:
            # it draws a fresh side and gate (`fresh_side_and_gate`)
            with pytest.raises(AssertionError, match="drew parameters"):
                loaded.build_base_model(seed=1)


class TestBuildsShareNoMemory:
    def test_two_builds_from_one_load_are_independent(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(model, path, kind="full")
        loaded = load_checkpoint(path)
        a, b = loaded.build_model(), loaded.build_model()
        want = [(name, t.data.tobytes()) for name, t in all_named(b)]
        for _, t in all_named(a):
            t.data -= 1.0
        assert [(name, t.data.tobytes()) for name, t in all_named(b)] == want
        assert a.side.digest() != b.side.digest()
        assert loaded.build_side_parts().digest() == b.side.digest() == model.side.digest()

    def test_a_built_base_model_owns_its_base(self, model, tmp_path):
        path = tmp_path / "base.ckpt"
        save_model(model, path, kind="base")
        loaded = load_checkpoint(path)
        a, b = loaded.build_base_model(seed=1), loaded.build_base_model(seed=1)
        a.base["out_proj"].data += 1.0
        assert b.base_digest() == model.base_digest() != a.base_digest()
        assert a.side.digest() == b.side.digest()


# Recorded from `SpaModel.create` at the acceptance shape before each bundle
# declared its parameters in one place; a declaration that reorders, reshapes
# or re-inits a parameter moves them.
PINNED_DIGESTS = {
    0: (
        "f62485478de8d6f2148d2a72607343278e943ccc3aea1edfd152a6dc51bee231",
        "db1254aadd407bb4d3d837a8927662ee925a6275ed2723ca8280f2266bf4b04f",
        "b7c9cb732f17de57b7a9acdc87b578898aacfa9d60c1c7e21ab2b312973a2f2d",
    ),
    11: (
        "fb9fd2c7a50756efff3b97293e4c68dd296f239e438db4b390cef5ca1a5baaea",
        "ed1bcd2cfc2c91386ee248d4fb0ff133e547e3b71ef4c87562110339f2fce48f",
        "b7c9cb732f17de57b7a9acdc87b578898aacfa9d60c1c7e21ab2b312973a2f2d",
    ),
}
# sha256 of the full checkpoint `save_model` writes for seed 11
PINNED_FULL_SHA256 = "e23215ea7479d1f613034db1b42cd512bbd5031bbd6ca13cddf49cbee2f8ac40"


class TestDrawOrderPinned:
    @pytest.mark.parametrize("seed", sorted(PINNED_DIGESTS))
    def test_create_digests(self, seed):
        m = SpaModel.create(STACK_MODEL_CONFIG, seed=seed)
        assert (m.base.digest(), m.side.digest(), m.gate.digest()) == PINNED_DIGESTS[seed]

    def test_full_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "full.ckpt"
        save_model(SpaModel.create(STACK_MODEL_CONFIG, seed=11), path, kind="full")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_FULL_SHA256

    def test_create_follows_the_declarations(self):
        m = SpaModel.create(STACK_MODEL_CONFIG, seed=0)
        for bundle in (m.base, m.side, m.gate):
            shapes = type(bundle).shapes(STACK_MODEL_CONFIG)
            assert {n: t.shape for n, t in bundle.named()} == shapes
