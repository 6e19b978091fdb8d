"""Checkpoint format: bit-exact round trips and categorized corruption errors."""

import errno
import json
import struct
from contextlib import contextmanager

import numpy as np
import pytest

import mole.checkpoint
from mole.adapters import ADAPTED_TAGS
from mole.allocation import AllocationPlan
from mole.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    BaseMismatchError,
    CorruptHeaderError,
    ShapeMismatchError,
    TruncatedBlobError,
    VersionMismatchError,
    load,
    save,
)
from mole.model import AdamW, AdaptedModel, ToyTransformerConfig, train_step
from mole.tasks import generate_task
from mole.tensor import Rng


def small_config(**overrides):
    base = dict(num_layers=2, d_model=16, d_ffn=24, num_heads=2, vocab_size=256,
                max_seq_len=16, allocation=AllocationPlan((2, 2), k=2), rank=2,
                seed=8, dropout=0.05)
    base.update(overrides)
    return ToyTransformerConfig(**base)


def read_header(path) -> tuple[dict, int]:
    """The JSON header of a checkpoint file and the offset of its first blob."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4 + 8
    (length,) = struct.unpack("<Q", raw[len(MAGIC) + 4:start])
    return json.loads(raw[start:start + length]), start + length


def rewrite_header(path, header: dict) -> None:
    raw = path.read_bytes()
    _, blobs = read_header(path)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:len(MAGIC) + 4] + struct.pack("<Q", len(text)) + text + raw[blobs:])


def trained_model(steps=5):
    model = AdaptedModel.build(small_config())
    task = generate_task("modular_add", 20, seed=9)
    opt = AdamW(model.trainable_parameters(), lr=5e-3)
    rng = Rng(10)
    for _ in range(steps):
        train_step(model, task.train[:6], opt, rng)
    return model


class TestRoundTrip:
    def test_forward_bitwise_identical(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.ckpt"
        save(model, path)
        restored = load(path)
        assert restored.step == model.step
        ids = [5, 99, 3, 61]
        np.testing.assert_array_equal(restored.forward(ids).logits.data,
                                      model.forward(ids).logits.data)

    def test_every_parameter_bit_exact(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.ckpt"
        save(model, path)
        restored = load(path)
        for name, p in model.named_parameters().items():
            q = restored.named_parameters()[name]
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_save_is_deterministic(self, tmp_path):
        model = trained_model()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save(model, a)
        save(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_float32_round_trip(self, tmp_path):
        model = AdaptedModel.build(small_config(precision="f32"))
        path = tmp_path / "model32.ckpt"
        save(model, path)
        restored = load(path)
        assert restored.config.dtype == np.float32
        for name, p in model.named_parameters().items():
            assert p.data.tobytes() == restored.named_parameters()[name].data.tobytes()


class TestSharedBase:
    def test_loads_share_one_read_only_base(self, tmp_path):
        model = trained_model(steps=1)
        path = tmp_path / "model.ckpt"
        save(model, path)
        first, second = load(path), load(path)
        for name, p in first.named_parameters().items():
            assert (p.data is second.named_parameters()[name].data) == (not p.requires_grad), name
        with pytest.raises(ValueError, match="read-only"):
            first.blocks[0].adapted["q"].frozen.data[0, 0] = 1.0
        # a built model keeps private, writable arrays
        assert model.blocks[0].adapted["q"].frozen.data.flags.writeable
        private = load(path)
        for p in private.named_parameters().values():
            if not p.requires_grad:
                p.data = p.data.copy()
        ids = [[5, 99, 3, 61], [7, 1, 1, 30]]
        for record in (True, False):
            np.testing.assert_array_equal(first.forward(ids, record=record).logits.data,
                                          private.forward(ids, record=record).logits.data)

    def test_other_base_shares_nothing(self, tmp_path):
        path, other_path = tmp_path / "model.ckpt", tmp_path / "other.ckpt"
        save(trained_model(steps=1), path)
        save(AdaptedModel.build(small_config(seed=9)), other_path)
        held, other = load(path), load(other_path)

        def arrays(model):
            """Every array the model owns: its frozen base and its stacked tensors."""
            frozen = [p.data for p in model.named_parameters().values() if not p.requires_grad]
            return frozen + [p.data for p in model.trainable_parameters().values()]

        held_arrays = arrays(held)
        assert not any(np.shares_memory(a, b) for a in arrays(other) for b in held_arrays)
        with pytest.raises(BaseMismatchError):
            load(path, config=small_config(seed=9))


class TestLoadDraws:
    def test_load_draws_no_adapter_initialisation(self, tmp_path, monkeypatch):
        # the file overwrites every router and expert factor, so a load draws
        # only the frozen base
        model = trained_model(steps=2)
        path = tmp_path / "model.ckpt"
        save(model, path)
        labels = []
        child = Rng.child

        def counted_child(self, *names):
            labels.append(names[0])
            return child(self, *names)

        monkeypatch.setattr(Rng, "child", counted_child)
        loaded = load(path)
        assert labels and not {"expert", "router"} & set(labels)
        for name, p in model.named_parameters().items():
            assert loaded.named_parameters()[name].data.tobytes() == p.data.tobytes(), name


class TestAdapterOnly:
    def test_file_holds_only_trainable_parameters(self, tmp_path):
        model = trained_model(steps=1)
        path = tmp_path / "model.ckpt"
        save(model, path)
        header, blobs = read_header(path)
        # each matrix's router, then every expert's two factors, as before the
        # factors were stored stacked
        names, shapes = [], []
        for j, block in enumerate(model.blocks):
            for tag in ADAPTED_TAGS:
                layer = block.adapted[tag]
                names.append(f"layer{j}.{tag}.router")
                shapes.append([layer.in_dim, 2])
                for i in range(2):
                    names += [f"layer{j}.{tag}.expert{i}.out_factor",
                              f"layer{j}.{tag}.expert{i}.in_factor"]
                    shapes += [[layer.out_dim, 2], [2, layer.in_dim]]
        assert [e["name"] for e in header["params"]] == names
        assert [e["shape"] for e in header["params"]] == shapes
        assert path.stat().st_size == blobs + 8 * model.trainable_param_total()

    def test_a_write_through_an_expert_view_reaches_forward_and_file(self, tmp_path):
        model = trained_model(steps=1)
        ids = [5, 99, 3, 61]
        before = model.forward(ids).logits.data.copy()
        save(model, tmp_path / "before.ckpt")
        expert = model.blocks[1].adapted["v"].experts[1]
        expert.out_factor.data[0, 0] += 0.5
        expert.in_factor.data[1, 2] += 0.5
        assert np.any(model.forward(ids).logits.data != before)
        save(model, tmp_path / "after.ckpt")
        old, new = ((tmp_path / name).read_bytes() for name in ("before.ckpt", "after.ckpt"))
        assert len(old) == len(new) and old != new
        restored = load(tmp_path / "after.ckpt").blocks[1].adapted["v"].experts[1]
        assert restored.out_factor.data[0, 0] == expert.out_factor.data[0, 0]
        assert restored.in_factor.data[1, 2] == expert.in_factor.data[1, 2]

    def test_other_seed_is_base_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        with pytest.raises(BaseMismatchError, match="digest"):
            load(path, config=small_config(seed=9))

    def test_edited_base_digest_is_base_mismatch(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        header, _ = read_header(path)
        header["base_sha256"] = "0" * 64
        rewrite_header(path, header)
        with pytest.raises(BaseMismatchError):
            load(path)

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        model = trained_model(steps=1)
        path = tmp_path / "model.ckpt"
        save(model, path)
        earlier = path.read_bytes()
        real_atomic_write = mole.checkpoint.atomic_write

        class FullDisk:
            """A file that takes `room` bytes and then fails as a full disk does."""

            def __init__(self, fh, room):
                self.fh, self.room = fh, room

            def write(self, data):
                self.room -= memoryview(data).nbytes
                if self.room < 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        @contextmanager
        def one_byte_short(target, mode="w", **kwargs):
            with real_atomic_write(target, mode, **kwargs) as fh:
                yield FullDisk(fh, len(earlier) - 1)

        # the last trainable blob cannot be written, so the save fails part-way
        monkeypatch.setattr(mole.checkpoint, "atomic_write", one_byte_short)
        with pytest.raises(OSError, match="No space"):
            save(model, path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class TestCorruption:
    def test_truncated_blob(self, tmp_path):
        model = trained_model(steps=1)
        path = tmp_path / "model.ckpt"
        save(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(TruncatedBlobError, match="blob"):
            load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeaderError, match="magic"):
            load(path)

    @pytest.mark.parametrize("version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1],
                             ids=["older", "newer"])
    def test_version_mismatch(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError, match="version"):
            load(path)

    def test_mangled_header_json(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 12] = ord("X")  # first header byte: breaks the JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeaderError, match="header"):
            load(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CorruptHeaderError, match="trailing"):
            load(path)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        wrong = small_config(d_ffn=32)
        with pytest.raises(ShapeMismatchError, match=r"layer0\..*shape"):
            load(path, config=wrong)

    def test_param_set_mismatch_reported(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        wrong = small_config(allocation=AllocationPlan((2, 3), k=2))
        with pytest.raises(ShapeMismatchError, match="expert"):
            load(path, config=wrong)

    def test_reordered_manifest_reported(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(trained_model(steps=1), path)
        header, _ = read_header(path)
        header["params"][:2] = header["params"][1::-1]
        rewrite_header(path, header)
        with pytest.raises(ShapeMismatchError, match="order"):
            load(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: [h], "malformed header"),
        (lambda h: dict(h, params=[5] + h["params"]), "malformed header"),
        (lambda h: dict(h, params=[{"name": "x"}]), "missing field 'shape'"),
        (lambda h: dict(h, params=7), "malformed header"),
        (lambda h: dict(h, params=[{"name": 3, "shape": [2]}]), "names must be strings"),
        (lambda h: dict(h, step="x"), "step must be a non-negative integer"),
        (lambda h: {k: v for k, v in h.items() if k != "base_sha256"},
         "missing field 'base_sha256'"),
        (lambda h: dict(h, config=dict(h["config"], precision="f16")), "invalid stored config"),
    ], ids=["list", "int-entry", "no-shape", "int-params", "int-name", "string-step",
            "no-digest", "bad-config"])
    def test_wrong_shaped_header(self, tmp_path, edit, match):
        path = tmp_path / "model.ckpt"
        save(AdaptedModel.build(small_config()), path)
        header, _ = read_header(path)
        rewrite_header(path, edit(header))
        with pytest.raises(CorruptHeaderError, match=match):
            load(path)

    def test_header_length_checked_against_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save(AdaptedModel.build(small_config()), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC) + 4:len(MAGIC) + 12] = struct.pack("<Q", 1 << 62)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeaderError, match="bytes left"):
            load(path)

    def test_missing_file_is_not_a_crash(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "absent.ckpt")
