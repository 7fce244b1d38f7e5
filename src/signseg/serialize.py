"""Binary weights format.

Layout, all little-endian:

    bytes 0..5    magic "SGSEG1"
    bytes 6..7    format version, uint16 (currently 1)
    bytes 8..35   config block: layers, heads, d_model, d_ff, window,
                  input_dim, classes as seven uint32 values
    remainder     every parameter tensor as raw float32, C order, in the
                  canonical order of param_shapes(), which is the
                  field order of ModelWeights and LayerWeights

Parameters are stored and kept in memory as float32, so a save/load round
trip reproduces the weights bit for bit.
"""
from __future__ import annotations

import struct
from math import prod
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    WeightsFormatError,
    WeightsMagicError,
    WeightsTruncationError,
    WeightsVersionError,
)
from .model import ModelConfig, ModelWeights, dict_to_weights, param_count, param_shapes, weights_to_dict

MAGIC = b"SGSEG1"
FORMAT_VERSION = 1
_VERSION_STRUCT = struct.Struct("<H")
_CONFIG_STRUCT = struct.Struct("<7I")


def save_weights(weights: ModelWeights) -> bytes:
    """Serialize weights plus their config to the binary format."""
    cfg = weights.config
    parts = [
        MAGIC,
        _VERSION_STRUCT.pack(FORMAT_VERSION),
        _CONFIG_STRUCT.pack(
            cfg.layers, cfg.heads, cfg.d_model, cfg.d_ff, cfg.window, cfg.input_dim, cfg.classes
        ),
    ]
    for arr in weights_to_dict(weights).values():
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


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
    expected = param_count(config) * 4
    body = data[offset:]
    if len(body) < expected:
        raise WeightsTruncationError(f"parameter payload has {len(body)} bytes, expected {expected}")
    if len(body) > expected:
        raise WeightsFormatError(f"{len(body) - expected} trailing bytes after the parameters")

    params = {}
    pos = 0
    for name, shape in param_shapes(config).items():
        count = prod(shape)
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=pos)
        params[name] = arr.astype(np.float32).reshape(shape)
        pos += count * 4
    return dict_to_weights(params, config)


def save_weights_file(weights: ModelWeights, path: str | Path) -> None:
    """Write the blob to disk via a temp file and an atomic rename."""
    from .ioutil import atomic_write_bytes

    atomic_write_bytes(Path(path), save_weights(weights))


def load_weights_file(path: str | Path) -> ModelWeights:
    return load_weights(Path(path).read_bytes())
