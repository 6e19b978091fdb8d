"""Binary checkpoint format with a bit-exact parameter round trip.

Layout: an 8-byte magic, a little-endian u32 format version, a little-endian
u64 header length, a JSON header (config echo with the seed, step, parameter
names and shapes in order), then the raw parameter blobs as little-endian
64-bit floats in header order. Failure modes are distinct exception types so
callers can tell a corrupt header from a truncated blob from a shape mismatch.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import AdaptedModel, ToyTransformerConfig

MAGIC = b"MOLECKPT"
FORMAT_VERSION = 2


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


def save(model: AdaptedModel, path) -> None:
    """Write the model (all parameters, frozen included) to `path`."""
    params = model.named_parameters()
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "step": model.step,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in params.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for p in params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedBlobError(f"unexpected end of file while reading {what}")
    return data


def load(path, config: ToyTransformerConfig | None = None) -> AdaptedModel:
    """Rebuild a model from `path`; every parameter is restored bit-exactly.

    When `config` is given it must agree with the stored parameter shapes;
    otherwise the model is built from the config echoed in the header.
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
        except KeyError as err:
            raise CorruptHeaderError(f"header missing field {err.args[0]!r}") from err
        if config is None:
            try:
                config = ToyTransformerConfig.from_dict(stored_config)
            except (TypeError, ValueError, KeyError) as err:
                raise CorruptHeaderError(f"invalid stored config: {err}") from err
        model = AdaptedModel.build(config)
        params = model.named_parameters()
        if [e["name"] for e in entries] != list(params.keys()):
            stored = {e["name"] for e in entries}
            missing = sorted(set(params) - stored) + sorted(stored - set(params))
            raise ShapeMismatchError(
                f"parameter set disagrees with config (first difference: {missing[0]})")
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            target = params[name]
            if shape != target.shape:
                raise ShapeMismatchError(
                    f"parameter {name}: stored shape {shape}, model expects {target.shape}")
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            blob = _read_exact(fh, count * 8, f"blob for {name}")
            values = np.frombuffer(blob, dtype="<f8").reshape(shape)
            target.data[...] = values.astype(target.dtype)
        trailing = fh.read(1)
        if trailing:
            raise CorruptHeaderError("trailing bytes after final parameter blob")
    model.step = step
    return model
