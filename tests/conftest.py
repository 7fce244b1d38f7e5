import numpy as np
import pytest
from hypothesis import settings

from signseg import IsolatedSample, ModelConfig, init_weights
from signseg.seeding import derive_rng, derive_seed

# every fuzz test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def tiny_mcfg():
    # small enough that a full finite-difference sweep stays under a second
    return ModelConfig(layers=2, heads=2, d_model=8, d_ff=16, window=4, input_dim=6, classes=3)


@pytest.fixture(scope="session")
def tiny_weights(tiny_mcfg):
    return init_weights(tiny_mcfg, derive_seed(0, "init"))


@pytest.fixture()
def tiny_sample(tiny_mcfg):
    rng = derive_rng(0, "tiny-sample")
    frames = rng.normal(size=(tiny_mcfg.window, tiny_mcfg.input_dim))
    return IsolatedSample(frames=frames, label=1)


@pytest.fixture(scope="session")
def random_prob_rows():
    """A fixture, not an import, so no other test directory's conftest can
    shadow it when several are collected in one run."""

    def make(rng, count: int, classes: int) -> np.ndarray:
        """Rows on the simplex, occasionally spiked so argmax clears 0.51."""
        raw = rng.uniform(size=(count, classes))
        spike = rng.uniform(size=count) < 0.5
        raw[spike, rng.integers(classes, size=spike.sum())] += rng.uniform(1.0, 6.0, size=spike.sum())
        return raw / raw.sum(axis=1, keepdims=True)

    return make
