import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.fixture()
def weights(tiny_mcfg):
    return init_weights(tiny_mcfg, 123)


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


def test_load_copies_the_payload_once():
    # 12-layer default: the payload is 9.8 MB, so a second copy would show
    cfg = ModelConfig(layers=12, heads=8, d_model=128, d_ff=512, window=50, input_dim=12, classes=10)
    blob = save_weights(init_weights(cfg, 0))
    payload = param_count(cfg) * 4
    load_weights(blob)  # build the cached layout outside the measurement
    tracemalloc.start()
    try:
        loaded = load_weights(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.flat.nbytes == payload
    assert peak <= 1.2 * payload


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
    # WeightsFormatError subclass, never another exception
    try:
        loaded = load_weights(blob)
    except WeightsFormatError:
        return
    assert loaded.flat.shape == (param_count(loaded.config),)
    assert len(blob) == 36 + 4 * param_count(loaded.config)  # header, then float32s
