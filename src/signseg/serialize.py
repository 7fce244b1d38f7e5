"""Binary weights format.

Layout, all little-endian:

    bytes 0..5    magic "SGSEG1"
    bytes 6..7    format version, uint16 (currently 1)
    bytes 8..35   config block: ModelConfig's seven fields in their
                  declared order (layers, heads, d_model, d_ff, window,
                  input_dim, classes) as uint32 values
    remainder     the model's flat parameter buffer (ModelWeights.flat)
                  as raw float32: every parameter tensor in C order, in
                  the canonical order of param_shapes(), which is the
                  field order of ModelWeights and LayerWeights

Parameters are kept in memory as float32 too, so a save/load round trip
reproduces the buffer bit for bit. The file functions move the payload
straight between a regular file and the parameter buffer, so they never
hold a second copy of it.
"""
from __future__ import annotations

import os
import stat
import struct
from dataclasses import astuple
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
_HEADER_SIZE = len(MAGIC) + _VERSION_STRUCT.size + _CONFIG_STRUCT.size


def _header(cfg: ModelConfig) -> bytes:
    # ModelConfig's field order, which _parse_header reads back with ModelConfig(*...)
    return MAGIC + _VERSION_STRUCT.pack(FORMAT_VERSION) + _CONFIG_STRUCT.pack(*astuple(cfg))


def _payload(weights: ModelWeights) -> memoryview:
    # no copy for the stored float32 buffer on a little-endian machine
    return memoryview(np.ascontiguousarray(weights.flat, dtype="<f4"))


def _parse_header(head) -> tuple[ModelConfig, int]:
    """The config and parameter count a blob declares; `head` holds at
    least its first _HEADER_SIZE bytes, or all of a shorter blob."""
    if len(head) < len(MAGIC):
        raise WeightsTruncationError(f"blob has {len(head)} bytes, shorter than the magic header")
    if head[: len(MAGIC)] != MAGIC:
        raise WeightsMagicError(f"bad magic {head[:len(MAGIC)]!r}, expected {MAGIC!r}")
    offset = len(MAGIC)

    if len(head) < offset + _VERSION_STRUCT.size:
        raise WeightsTruncationError("blob ends inside the version field")
    (version,) = _VERSION_STRUCT.unpack_from(head, offset)
    if version != FORMAT_VERSION:
        raise WeightsVersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    offset += _VERSION_STRUCT.size

    if len(head) < offset + _CONFIG_STRUCT.size:
        raise WeightsTruncationError("blob ends inside the config block")
    try:
        config = ModelConfig(*_CONFIG_STRUCT.unpack_from(head, offset))
    except ConfigError as exc:
        raise WeightsFormatError(f"invalid config block: {exc}") from exc
    # sized from the config alone, so a header claiming billions of layers
    # fails at the payload check before any per-layer work
    return config, param_count(config)


def _check_payload(payload: int, count: int) -> None:
    """Fail unless `payload` bytes follow the header: `count` float32s exactly."""
    if payload < count * 4:
        raise WeightsTruncationError(f"parameter payload has {payload} bytes, expected {count * 4}")
    if payload > count * 4:
        raise WeightsFormatError(f"{payload - count * 4} trailing bytes after the parameters")


def save_weights(weights: ModelWeights) -> bytes:
    """Serialize weights plus their config to the binary format."""
    # joined as a buffer, so the payload is copied once, into the blob
    return b"".join([_header(weights.config), _payload(weights)])


def load_weights(data: bytes) -> ModelWeights:
    """Parse a weights blob; the config rides inside the returned object.

    Raises:
        WeightsMagicError: the blob does not start with "SGSEG1".
        WeightsVersionError: the declared format version is unsupported.
        WeightsTruncationError: the blob ends before all parameters.
        WeightsFormatError: other structural damage (trailing bytes,
            invalid config block).
    """
    config, count = _parse_header(data)
    _check_payload(len(data) - _HEADER_SIZE, count)
    # one copy of the payload: frombuffer reads the blob in place
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=_HEADER_SIZE).astype(np.float32)
    return ModelWeights(config, flat)


def save_weights_file(weights: ModelWeights, path: str | Path) -> None:
    """Write the header, then the parameter buffer's own bytes, to disk via
    a temp file and an atomic rename; the bytes are those of save_weights."""
    from .ioutil import atomic_write_bytes  # here, so importing signseg never loads uuid

    atomic_write_bytes(Path(path), _header(weights.config), _payload(weights))


def load_weights_file(path: str | Path) -> ModelWeights:
    """Read a weights file into a fresh parameter buffer, the payload's one
    copy in memory; fails with the error load_weights raises on its bytes."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            # a pipe has no size to check before the buffer is allocated
            return load_weights(f.read())
        config, count = _parse_header(f.read(_HEADER_SIZE))
        # checked by size first, so a header claiming billions of layers
        # fails before any allocation; then by what the file yields, in
        # case it changed meanwhile
        _check_payload(info.st_size - _HEADER_SIZE, count)
        flat = np.empty(count, dtype="<f4")
        got = f.readinto(flat)  # in bytes
        _check_payload(got + len(f.read()), count)
    return ModelWeights(config, flat.astype(np.float32, copy=False))
