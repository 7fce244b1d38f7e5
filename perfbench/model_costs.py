"""Model costs at a workload's shape: FLOPs computed from the config, and
stage times measured through the public names the acceptance tests pin.

FLOPs count matrix products only, at 2 per multiply-add (an outer product
counts 1 per multiply). Layer norm, softmax, ReLU and bias adds are left
out, so the counts are a computed floor, not a hardware measurement.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import replace

import numpy as np

from signseg import ModelConfig, attention_weights, encoder_forward, forward_probs, init_weights


def forward_flops(cfg: ModelConfig) -> int:
    """Matmul FLOPs of one forward_probs call on one window."""
    t, d, f = cfg.window, cfg.d_model, cfg.d_ff
    embed = 2 * t * cfg.input_dim * d
    # q, k, v and output projections 8td^2; scores and a@v 4t^2d; feed-forward 4tdf
    layer = 8 * t * d * d + 4 * t * t * d + 4 * t * d * f
    head = 2 * t * d * cfg.classes
    return embed + cfg.layers * layer + head


def backward_flops(cfg: ModelConfig) -> int:
    """Matmul FLOPs of one backward call on one sample, its forward included."""
    t, d, f = cfg.window, cfg.d_model, cfg.d_ff
    embed = 2 * t * cfg.input_dim * d  # weight gradient only; frames need none
    # each forward product needs two: one for its input, one for its weight
    layer = 2 * (8 * t * d * d + 4 * t * t * d + 4 * t * d * f)
    head = 3 * t * d * cfg.classes  # outer product for the weight, matvec for the input
    return forward_flops(cfg) + embed + cfg.layers * layer + head


def _median_times(fns: dict, budget_s: float, min_reps: int = 5) -> dict[str, float]:
    """Median seconds per call of each fn, calling them in turn so that a
    change in machine speed during the budget hits all of them alike."""
    for fn in fns.values():
        fn()  # warm-up
    times: dict[str, list[float]] = {name: [] for name in fns}
    deadline = time.perf_counter() + budget_s
    while min(len(t) for t in times.values()) < min_reps or time.perf_counter() < deadline:
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(t) for name, t in times.items()}


def stage_times(cfg: ModelConfig, seed: int, budget_s: float = 1.5) -> dict[str, float]:
    """Seconds per window of each forward stage at cfg's shape.

    embed: encoder_forward at 0 layers without positions; position: the
    same with positions, minus embed; encoder_layer: encoder_forward at
    cfg.layers minus 0 layers, per layer; head: forward_probs minus
    encoder_forward; attention_core: attention_weights at (window, d_k),
    once per head of one layer. Differences of medians can come out
    slightly negative when a stage is tiny.
    """
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(cfg.window, cfg.input_dim))
    full = init_weights(cfg, seed)
    bare = init_weights(replace(cfg, layers=0), seed)
    q = rng.normal(size=(cfg.window, cfg.d_k))
    k = rng.normal(size=(cfg.window, cfg.d_k))

    t = _median_times(
        {
            "embed": lambda: encoder_forward(frames, bare, use_positions=False),
            "embed_pos": lambda: encoder_forward(frames, bare, use_positions=True),
            "encoder": lambda: encoder_forward(frames, full),
            "forward": lambda: forward_probs(full, frames),
            "attention": lambda: attention_weights(q, k, cfg.d_k),
        },
        budget_s,
    )
    return {
        "model.stage.embed_s": t["embed"],
        "model.stage.position_s": t["embed_pos"] - t["embed"],
        "model.stage.encoder_layer_s": (t["encoder"] - t["embed_pos"]) / cfg.layers if cfg.layers else 0.0,
        "model.stage.attention_core_s": t["attention"] * cfg.heads,
        "model.stage.head_s": t["forward"] - t["encoder"],
    }
