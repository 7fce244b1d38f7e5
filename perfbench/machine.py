"""The machine a run measures on: what it is, and how fast it runs right now.

Shared machines change speed by a third or more over minutes as neighbours
come and go, and a run cannot stop that. So a run interleaves fixed
reference kernels with its timed steps and scales their seconds by how much
slower than nominal the kernels ran. Each kind of work slows by its own
amount: small matrix products, large ones and JSON parsing each get a
kernel, and a workload weighs them by the share of its time each kind
takes. A reported time is what the step would take when every kernel runs
in REFERENCE_S. The kernels live here, not in signseg, so no change to
signseg moves them.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import time

import numpy as np

REFERENCE_S = 0.01  # nominal seconds of one run of any reference kernel

_rng = np.random.default_rng(20240222)
_SMALL = (_rng.normal(size=(50, 64)), _rng.normal(size=(64, 256)) / 8.0, _rng.normal(size=(256, 64)) / 16.0)
_BIG = (_rng.normal(size=(50, 128)), _rng.normal(size=(128, 512)) / 11.0, _rng.normal(size=(512, 128)) / 22.0)
_LINES = [json.dumps({"hands": _rng.normal(size=(2, 21, 3)).tolist()}) for _ in range(70)]


def _matmul_chain(x, w1, w2, reps: int) -> None:
    for _ in range(reps):
        x = np.maximum(x @ w1, 0.0) @ w2
        x = (x - x.mean(axis=-1, keepdims=True)) / (x.std(axis=-1, keepdims=True) + 1e-5)


def _small_matmuls() -> None:
    """Products at the gate's shape: per-op overhead dominates."""
    _matmul_chain(*_SMALL, reps=70)


def _big_matmuls() -> None:
    """Products at the 12-layer default's shape: flops dominate."""
    _matmul_chain(*_BIG, reps=15)


def _json_parse() -> None:
    """Keypoint lines parsed and copied point by point, as Python code does."""
    out = np.empty((2, 21, 3))
    for line in _LINES:
        for h, hand in enumerate(json.loads(line)["hands"]):
            for k, point in enumerate(hand):
                if len(point) == 3 and all(isinstance(c, float) for c in point):
                    out[h, k] = point


KERNELS = {"small_matmul": _small_matmuls, "big_matmul": _big_matmuls, "json_parse": _json_parse}


def _seconds(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class ReferenceClock:
    """Runs the reference kernels between timed steps, never inside one.

    mix maps kernel names to the share of the workload's time spent in
    that kind of work. factor() is the nominal-over-measured speed of the
    kernels, weighted by mix, from the median of every run of each kernel
    in the benchmark run; one run slowed by an interrupt does not move it.
    """

    def __init__(self, mix: dict[str, float]):
        self.mix = mix
        self.times: dict[str, list[float]] = {name: [] for name in mix}
        self.tick()

    def tick(self) -> None:
        for name in self.mix:
            self.times[name].append(_seconds(KERNELS[name]))

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(t) for name, t in self.times.items()}

    def factor(self) -> float:
        medians = self.medians()
        return sum(share * REFERENCE_S / medians[name] for name, share in self.mix.items())


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
