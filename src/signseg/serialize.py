"""Binary weights format.

Layout, all little-endian:

    bytes 0..5    magic "SGSEG1"
    bytes 6..7    format version, uint16 (currently 1)
    bytes 8..35   config block: layers, heads, d_model, d_ff, window,
                  input_dim, classes as seven uint32 values
    remainder     the model's flat parameter buffer (ModelWeights.flat)
                  as raw float32: every parameter tensor in C order, in
                  the canonical order of param_shapes(), which is the
                  field order of ModelWeights and LayerWeights

Parameters are kept in memory as float32 too, so a save/load round trip
reproduces the buffer bit for bit.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    WeightsFormatError,
    WeightsMagicError,
    WeightsTruncationError,
    WeightsVersionError,
)
from .model import ModelConfig, ModelWeights, param_count

MAGIC = b"SGSEG1"
FORMAT_VERSION = 1
_VERSION_STRUCT = struct.Struct("<H")
_CONFIG_STRUCT = struct.Struct("<7I")


def save_weights(weights: ModelWeights) -> bytes:
    """Serialize weights plus their config to the binary format."""
    cfg = weights.config
    return b"".join([
        MAGIC,
        _VERSION_STRUCT.pack(FORMAT_VERSION),
        _CONFIG_STRUCT.pack(
            cfg.layers, cfg.heads, cfg.d_model, cfg.d_ff, cfg.window, cfg.input_dim, cfg.classes
        ),
        # joined as a buffer, so the payload is copied once, into the blob
        memoryview(np.ascontiguousarray(weights.flat, dtype="<f4")),
    ])


def load_weights(data: bytes) -> ModelWeights:
    """Parse a weights blob; the config rides inside the returned object.

    Raises:
        WeightsMagicError: the blob does not start with "SGSEG1".
        WeightsVersionError: the declared format version is unsupported.
        WeightsTruncationError: the blob ends before all parameters.
        WeightsFormatError: other structural damage (trailing bytes,
            invalid config block).
    """
    if len(data) < len(MAGIC):
        raise WeightsTruncationError(f"blob has {len(data)} bytes, shorter than the magic header")
    if data[: len(MAGIC)] != MAGIC:
        raise WeightsMagicError(f"bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    offset = len(MAGIC)

    if len(data) < offset + _VERSION_STRUCT.size:
        raise WeightsTruncationError("blob ends inside the version field")
    (version,) = _VERSION_STRUCT.unpack_from(data, offset)
    if version != FORMAT_VERSION:
        raise WeightsVersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    offset += _VERSION_STRUCT.size

    if len(data) < offset + _CONFIG_STRUCT.size:
        raise WeightsTruncationError("blob ends inside the config block")
    fields = _CONFIG_STRUCT.unpack_from(data, offset)
    offset += _CONFIG_STRUCT.size
    try:
        config = ModelConfig(*fields)
    except ConfigError as exc:
        raise WeightsFormatError(f"invalid config block: {exc}") from exc

    # sized from the config alone, so a header claiming billions of layers
    # fails here before any per-layer work
    count = param_count(config)
    payload = len(data) - offset
    if payload < count * 4:
        raise WeightsTruncationError(f"parameter payload has {payload} bytes, expected {count * 4}")
    if payload > count * 4:
        raise WeightsFormatError(f"{payload - count * 4} trailing bytes after the parameters")
    # one copy of the payload: frombuffer reads the blob in place
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(np.float32)
    return ModelWeights(config, flat)


def save_weights_file(weights: ModelWeights, path: str | Path) -> None:
    """Write the blob to disk via a temp file and an atomic rename."""
    from .ioutil import atomic_write_bytes

    atomic_write_bytes(Path(path), save_weights(weights))


def load_weights_file(path: str | Path) -> ModelWeights:
    return load_weights(Path(path).read_bytes())
