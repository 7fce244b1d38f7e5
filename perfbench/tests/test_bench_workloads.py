import json
import re
from pathlib import Path

import numpy as np
import pytest

from signseg import ModelConfig
from model_costs import backward_flops, forward_flops
from run import run
from workloads import FULL, WORKLOADS, brute_force_decode, reference_features

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_flops_by_hand_at_the_gate_shape():
    assert FULL.gate == ModelConfig(layers=2, heads=4, d_model=64, d_ff=256, window=50, input_dim=12, classes=10)
    # embed 2*50*12*64 = 76,800
    # per layer: projections 8*50*64^2 = 1,638,400, scores and a@v 4*50^2*64 = 640,000,
    #   feed-forward 4*50*64*256 = 3,276,800, so 5,555,200 per layer and 11,110,400 for two
    # head 2*50*64*10 = 64,000
    assert forward_flops(FULL.gate) == 76_800 + 11_110_400 + 64_000 == 11_251_200
    # backward adds the embed weight gradient 76,800, twice each layer's
    # products 22,220,800, and the head's outer product plus matvec 3*50*64*10 = 96,000
    assert backward_flops(FULL.gate) == 11_251_200 + 76_800 + 22_220_800 + 96_000 == 33_644_800


def test_brute_force_decode_thresholds_and_collapses():
    rows = np.array([[0.9, 0.1], [0.8, 0.2], [0.5, 0.5], [0.3, 0.7], [0.6, 0.4]])
    assert brute_force_decode(rows, 0.51) == [(0, 0, 0.9), (1, 3, 0.7), (0, 4, 0.6)]


def test_reference_features_match_normalize_frame():
    from signseg import normalize_frame

    rng = np.random.default_rng(0)
    hands = rng.normal(size=(4, 2, 21, 3))
    expected = np.stack([normalize_frame(frame) for frame in hands])
    np.testing.assert_allclose(reference_features(hands), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_passes_checks_and_names_match(name, trace, tiny, tmp_path):
    result = run(WORKLOADS[name], tiny, seed=3, seconds=0.0, trace=trace, workdir=tmp_path / "work")
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value, unit = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert unit == metric["unit"]
        assert np.isfinite(value)
    for row_name, _, _ in result["rows"]:
        assert NAME.fullmatch(row_name)

    if trace:
        m = {k: v for k, (v, _) in result["metrics"].items()}
        if name == "train_gate":
            assert m["gradients.backward.calls"] > 0 and m["training.epochs"] == tiny.train_epochs
        else:
            assert m["gradients.backward.calls"] == 0
            assert m["segmentation.windows"] > 0
        assert (m["keypoints.frames"] > 0) == (name == "recordings_wide")
