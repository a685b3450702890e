import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    # A falsifying example found on CI prints its @reproduce_failure blob,
    # since the runner's example database does not outlive the job.
    print_blob=True,
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture(scope="session")
def fixture_dataset(tmp_path_factory):
    """A small on-disk synthetic dataset shared by dataset/CLI tests."""
    from synth import write_fixture_dataset

    root = tmp_path_factory.mktemp("dataset")
    manifest = write_fixture_dataset(
        root, n_songs=3, seed=11, duration=2.5, splits=("train", "train", "test")
    )
    return manifest
