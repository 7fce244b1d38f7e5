import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signseg.ioutil
from signseg import (
    ModelConfig,
    WeightsFormatError,
    WeightsMagicError,
    WeightsTruncationError,
    WeightsVersionError,
    init_weights,
    load_weights,
    load_weights_file,
    save_weights,
    save_weights_file,
)
from signseg.model import param_count, weights_to_dict
from signseg.serialize import FORMAT_VERSION, MAGIC

# the 12-layer shape recordings_wide decodes: its 9.8 MB payload makes any second copy show
DEFAULT_MCFG = ModelConfig(layers=12, heads=8, d_model=128, d_ff=512, window=50, input_dim=12, classes=10)


@pytest.fixture()
def weights(tiny_mcfg):
    return init_weights(tiny_mcfg, 123)


@pytest.fixture(scope="module")
def default_weights():
    return init_weights(DEFAULT_MCFG, 0)


def _traced_peak(fn):
    """fn's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _load_via_file(blob: bytes):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.bin"
        path.write_bytes(blob)
        return load_weights_file(path)


def _load_via_pipe(blob: bytes):
    # a pipe has no size to check before the buffer is allocated
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "wb") as w:  # a tiny blob fits in the pipe's buffer
            w.write(blob)
        return load_weights_file(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def _outcome(load, blob: bytes):
    """What a reader makes of a blob: its config and parameter bytes, or
    its error's class and message."""
    try:
        loaded = load(blob)
    except WeightsFormatError as exc:
        return type(exc), str(exc)
    return loaded.config, loaded.flat.dtype, loaded.flat.tobytes()


def test_round_trip_bit_exact(tiny_mcfg, weights):
    loaded = load_weights(save_weights(weights))
    assert loaded.config == tiny_mcfg
    a = weights_to_dict(weights)
    b = weights_to_dict(loaded)
    for key in a:
        assert a[key].dtype == b[key].dtype == np.float32
        assert a[key].tobytes() == b[key].tobytes()


def test_round_trip_keeps_the_buffer(weights):
    loaded = load_weights(save_weights(weights))
    assert loaded.flat.tobytes() == weights.flat.tobytes()


def test_load_copies_the_payload_once(default_weights):
    blob = save_weights(default_weights)
    payload = param_count(DEFAULT_MCFG) * 4
    load_weights(blob)  # build the cached layout outside the measurement
    loaded, peak = _traced_peak(lambda: load_weights(blob))
    assert loaded.flat.nbytes == payload
    assert peak <= 1.2 * payload


def test_load_weights_file_holds_the_payload_once(tmp_path, default_weights):
    # the file is read straight into the parameter buffer, never into a blob first
    path = tmp_path / "model.bin"
    save_weights_file(default_weights, path)
    payload = param_count(DEFAULT_MCFG) * 4
    load_weights_file(path)  # build the cached layout outside the measurement
    loaded, peak = _traced_peak(lambda: load_weights_file(path))
    assert loaded.flat.tobytes() == default_weights.flat.tobytes()
    assert peak <= 1.2 * payload


def test_save_weights_file_writes_the_buffer_in_place(tmp_path, default_weights):
    # the header, then the parameter buffer's own bytes: no joined blob
    path = tmp_path / "model.bin"
    payload = param_count(DEFAULT_MCFG) * 4
    _, peak = _traced_peak(lambda: save_weights_file(default_weights, path))
    assert path.read_bytes() == save_weights(default_weights)
    assert peak <= 0.2 * payload


def test_header_layout(tiny_mcfg, weights):
    blob = save_weights(weights)
    assert blob[:6] == MAGIC
    (version,) = struct.unpack_from("<H", blob, 6)
    assert version == FORMAT_VERSION
    config = struct.unpack_from("<7I", blob, 8)
    assert config == (
        tiny_mcfg.layers,
        tiny_mcfg.heads,
        tiny_mcfg.d_model,
        tiny_mcfg.d_ff,
        tiny_mcfg.window,
        tiny_mcfg.input_dim,
        tiny_mcfg.classes,
    )


def test_corrupt_magic(weights):
    blob = bytearray(save_weights(weights))
    blob[0] ^= 0xFF
    with pytest.raises(WeightsMagicError):
        load_weights(bytes(blob))


def test_unknown_version(weights):
    blob = bytearray(save_weights(weights))
    struct.pack_into("<H", blob, 6, FORMAT_VERSION + 1)
    with pytest.raises(WeightsVersionError):
        load_weights(bytes(blob))


def test_truncations(weights):
    blob = save_weights(weights)
    for cut in (0, 3, 7, 20, len(blob) - 1):
        with pytest.raises(WeightsTruncationError):
            load_weights(blob[:cut])


def test_trailing_garbage_rejected(weights):
    with pytest.raises(WeightsFormatError):
        load_weights(save_weights(weights) + b"\x00\x00\x00\x00")


def test_corruption_errors_are_distinct_types():
    kinds = {WeightsMagicError, WeightsVersionError, WeightsTruncationError}
    assert len(kinds) == 3
    for kind in kinds:
        assert issubclass(kind, WeightsFormatError)


def test_file_round_trip(tmp_path, tiny_mcfg, weights):
    path = tmp_path / "model.bin"
    save_weights_file(weights, path)
    loaded = load_weights_file(path)
    assert loaded.config == tiny_mcfg
    assert save_weights(loaded) == save_weights(weights)
    # atomic write leaves no temp droppings
    assert list(tmp_path.iterdir()) == [path]


class _DiskFullAt100Bytes(io.BufferedWriter):
    """A file whose disk fills up after its first 100 bytes."""

    def write(self, chunk):
        room = 100 - self.tell()
        chunk = memoryview(chunk).cast("B")
        if len(chunk) > room:
            super().write(chunk[:room])
            raise OSError("No space left on device")
        return super().write(chunk)


def test_failed_save_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch, tiny_mcfg, weights):
    path = tmp_path / "model.bin"
    save_weights_file(weights, path)
    monkeypatch.setattr(
        signseg.ioutil, "open", lambda fd, mode: _DiskFullAt100Bytes(io.FileIO(fd, "w")), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        save_weights_file(init_weights(tiny_mcfg, 124), path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == save_weights(weights)


def test_different_configs_round_trip():
    for layers, heads, d_model in ((0, 1, 2), (1, 2, 8), (3, 4, 16)):
        cfg = ModelConfig(
            layers=layers, heads=heads, d_model=d_model, d_ff=5, window=3, input_dim=2, classes=4
        )
        w = init_weights(cfg, layers)
        assert save_weights(load_weights(save_weights(w))) == save_weights(w)


def test_huge_layer_count_in_header_fails_fast():
    # the payload size is computed from the header before any per-layer work
    import time

    header = MAGIC + struct.pack("<H", FORMAT_VERSION) + struct.pack("<7I", 2**32 - 1, 1, 2, 1, 1, 1, 1)
    start = time.monotonic()
    with pytest.raises(WeightsTruncationError):
        load_weights(header)
    assert time.monotonic() - start < 0.5


def _set_version(blob: bytes) -> bytes:
    damaged = bytearray(blob)
    struct.pack_into("<H", damaged, 6, FORMAT_VERSION + 1)
    return bytes(damaged)


_DAMAGE = {
    "intact": lambda blob: blob,
    "corrupt-magic": lambda blob: bytes([blob[0] ^ 0xFF]) + blob[1:],
    "unknown-version": _set_version,
    **{f"cut-{cut}": (lambda blob, cut=cut: blob[:cut]) for cut in (0, 3, 7, 20, 36)},
    "cut-last-byte": lambda blob: blob[:-1],
    "trailing-bytes": lambda blob: blob + b"\x00\x00\x00\x00",
    "invalid-config": lambda blob: blob[:8] + struct.pack("<7I", 1, 3, 8, 1, 1, 1, 1) + blob[36:],
    "huge-layer-count": lambda blob: blob[:8] + struct.pack("<7I", 2**32 - 1, 1, 2, 1, 1, 1, 1),
}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_file_reader_fails_exactly_like_the_bytes_reader(weights, damage):
    blob = _DAMAGE[damage](save_weights(weights))
    expected = _outcome(load_weights, blob)
    assert _outcome(_load_via_file, blob) == expected
    assert (damage == "intact") == (expected[0] == weights.config)


@pytest.mark.parametrize("damage", ["intact", "cut-last-byte", "trailing-bytes", "huge-layer-count"])
def test_file_reader_reads_a_pipe_like_the_bytes_reader(weights, damage):
    blob = _DAMAGE[damage](save_weights(weights))
    assert _outcome(_load_via_pipe, blob) == _outcome(load_weights, blob)


_FUZZ_BLOB = save_weights(
    init_weights(ModelConfig(layers=1, heads=2, d_model=4, d_ff=3, window=2, input_dim=2, classes=2), 5)
)


def _flip_bit(bit: int) -> bytes:
    blob = bytearray(_FUZZ_BLOB)
    blob[bit // 8] ^= 1 << (bit % 8)
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, 8 * len(_FUZZ_BLOB) - 1).map(_flip_bit),
        st.integers(0, len(_FUZZ_BLOB) - 1).map(lambda cut: _FUZZ_BLOB[:cut]),
    )
)
def test_damaged_blob_loads_whole_or_raises_a_format_error(blob):
    # one flipped bit or a cut anywhere: a model of the declared size, or a
    # WeightsFormatError subclass, never another exception; a file holding
    # the blob loads or fails exactly as the blob does
    assert _outcome(_load_via_file, blob) == _outcome(load_weights, blob)
    try:
        loaded = load_weights(blob)
    except WeightsFormatError:
        return
    assert loaded.flat.shape == (param_count(loaded.config),)
    assert len(blob) == 36 + 4 * param_count(loaded.config)  # header, then float32s
