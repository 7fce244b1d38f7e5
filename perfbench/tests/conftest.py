import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture
def tiny():
    """Sizes small enough for a smoke run of every workload in seconds."""
    from signseg import ModelConfig
    from workloads import Sizes

    return Sizes(
        gate=ModelConfig(layers=1, heads=2, d_model=16, d_ff=32, window=10, input_dim=6, classes=3),
        wide=ModelConfig(layers=1, heads=2, d_model=16, d_ff=32, window=10, input_dim=120, classes=3),
        per_class=10,
        train_epochs=8,
        decode_epochs=8,
        streams=2,
        signs=3,
        wide_per_class=2,
        wide_raw_len=12,
        recordings=2,
        recording_signs=3,
        wide_stride=4,
    )
