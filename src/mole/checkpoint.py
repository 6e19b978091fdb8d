"""Binary checkpoint format: the trained adapters and routers, bit-exact.

The frozen base regenerates from the config's seed, so only the trainable
parameters (router weights and expert factors) are stored. Layout: an 8-byte
magic, a little-endian u32 format version, a little-endian u64 header length,
a JSON header (config echo with the seed, step, SHA-256 of the regenerated
base, trainable parameter names and shapes in order), then the raw trainable
blobs as little-endian 64-bit floats in header order. Failure modes are
distinct exception types so callers can tell a corrupt header from a truncated
blob from a shape mismatch from a base that no longer regenerates.

Loaded models share their frozen base: every live model loaded on one base
digest holds the same read-only arrays, so keeping many loaded models costs
one base, not one each. A model built directly keeps private, writable
arrays. No load draws the adapter initialisations that the file
overwrites.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .model import AdaptedModel, ToyTransformerConfig

MAGIC = b"MOLECKPT"
FORMAT_VERSION = 3


# (base digest, parameter name) -> the read-only frozen array that loaded
# models of that base share. An entry lives as long as some model holds it.
_SHARED_BASE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class CheckpointError(Exception):
    """Base class for checkpoint failures."""


class CorruptHeaderError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedBlobError(CheckpointError):
    pass


class ShapeMismatchError(CheckpointError):
    pass


class BaseMismatchError(CheckpointError):
    """The seed no longer regenerates the frozen base the checkpoint was trained on."""


def _base_sha256(model: AdaptedModel) -> str:
    """SHA-256 over each frozen parameter's name and little-endian f64 bytes."""
    digest = hashlib.sha256()
    for name, p in model.named_parameters().items():
        if not p.requires_grad:
            digest.update(name.encode("utf-8"))
            digest.update(np.ascontiguousarray(p.data, dtype="<f8"))
    return digest.hexdigest()


@contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a file beside `path` for writing and rename it over `path` when
    the block ends, so a write that fails part-way leaves any earlier file
    untouched and no temporary file behind. `mode` and `kwargs` go to open."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(model: AdaptedModel, path) -> None:
    """Write the trainable parameters and the base digest to `path`,
    atomically (:func:`atomic_write`)."""
    params = model.trainable_parameters()
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "step": model.step,
        "base_sha256": _base_sha256(model),
        "params": [{"name": name, "shape": list(p.shape)} for name, p in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for p in params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8"))


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedBlobError(f"unexpected end of file while reading {what}")
    return data


def load(path, config: ToyTransformerConfig | None = None) -> AdaptedModel:
    """Rebuild a model from `path`; every parameter is restored bit-exactly.

    The frozen base is regenerated from the config's seed and must match the
    stored digest; the model then shares the read-only base arrays of any
    live model loaded on the same digest. When `config` is given it must
    agree with the stored parameter shapes; otherwise the model is built from
    the config echoed in the header.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CorruptHeaderError(f"bad magic {magic!r}; not a checkpoint file")
        version = struct.unpack("<I", _read_exact(fh, 4, "version"))[0]
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"checkpoint format version {version}, expected {FORMAT_VERSION}")
        header_len = struct.unpack("<Q", _read_exact(fh, 8, "header length"))[0]
        try:
            header = json.loads(_read_exact(fh, header_len, "header"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise CorruptHeaderError(f"unreadable header: {err}") from err
        try:
            entries = header["params"]
            stored_config = header["config"]
            step = header["step"]
            base_sha256 = header["base_sha256"]
        except KeyError as err:
            raise CorruptHeaderError(f"header missing field {err.args[0]!r}") from err
        if config is None:
            try:
                config = ToyTransformerConfig.from_dict(stored_config)
            except (TypeError, ValueError, KeyError) as err:
                raise CorruptHeaderError(f"invalid stored config: {err}") from err
        model = AdaptedModel(config, draw_adapters=False)
        params = model.trainable_parameters()
        if [e["name"] for e in entries] != list(params.keys()):
            stored = {e["name"] for e in entries}
            missing = (sorted(set(params) - stored) + sorted(stored - set(params))
                       or ["the parameter order"])
            raise ShapeMismatchError(
                f"parameter set disagrees with config (first difference: {missing[0]})")
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            target = params[name]
            if shape != target.shape:
                raise ShapeMismatchError(
                    f"parameter {name}: stored shape {shape}, model expects {target.shape}")
            blob = _read_exact(fh, target.data.size * 8, f"blob for {name}")
            target.data[...] = np.frombuffer(blob, dtype="<f8").reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise CorruptHeaderError("trailing bytes after final parameter blob")
    regenerated = _base_sha256(model)
    if regenerated != base_sha256:
        raise BaseMismatchError(
            f"seed {config.seed} regenerates a base with digest {regenerated[:12]}..., "
            f"checkpoint was trained on {str(base_sha256)[:12]}...")
    for name, p in model.named_parameters().items():
        if not p.requires_grad:
            shared = _SHARED_BASE.get((base_sha256, name))
            if shared is None:
                p.data.flags.writeable = False
                _SHARED_BASE[(base_sha256, name)] = p.data
            else:
                p.data = shared
    model.step = step
    return model
