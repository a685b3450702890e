"""The oracle's frame-wise work split over threads: same bytes at any count.

``stft``, ``istft``, ``compute_irm`` and ``apply_masks`` cut the frame
axis into one run per thread, and each run keeps the caller's NumPy error
state.  Each test of the bytes sets the thread count directly, so small
inputs are split as a song's blocks are.  The count itself is every CPU
of the affinity mask, or one in a process ``multiprocessing`` started.
"""

import importlib
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from separability import (
    AudioClip,
    InvalidInputError,
    OracleConfig,
    Spectrogram,
    StftConfig,
    apply_masks,
    compute_irm,
    istft,
    oracle_separate,
    stft,
)

# The package exports the function stft under the module's name.
stft_module = importlib.import_module("separability.stft")
SRC = Path(__file__).resolve().parent.parent / "src"

CFG = StftConfig(256, 64)
THREADS = (1, 2, 3)


@pytest.fixture
def threads(monkeypatch):
    """Set the frame-thread count."""

    def use(count):
        monkeypatch.setattr(stft_module, "_frame_threads", lambda: count)

    return use


def _clips(n_sources, n_samples, seed=3, n_channels=2):
    gen = np.random.Generator(np.random.PCG64(seed))
    return [
        AudioClip(gen.normal(0.0, 0.4, (n_channels, n_samples)), 44100) for _ in range(n_sources)
    ]


def _oracle_bytes(n_sources, n_samples) -> list[bytes]:
    """Every array the oracle's four steps and oracle_separate return."""
    clips = _clips(n_sources, n_samples)
    # A silent source leaves bins where every source is silent.
    clips[-1] = AudioClip(np.zeros_like(clips[-1].samples), 44100)
    specs = [stft(clip, CFG) for clip in clips]
    mixture = AudioClip(sum(clip.samples for clip in clips), 44100)
    mix_spec = stft(mixture, CFG)
    masks = compute_irm(specs, OracleConfig(alpha=1.3))
    masked = apply_masks(masks, mix_spec)
    estimates = oracle_separate(mixture, clips, CFG)
    return [
        *(spec.bins.tobytes() for spec in specs),
        istft(mix_spec).samples.tobytes(),
        masks.masks.tobytes(),
        *(spec.bins.tobytes() for spec in masked),
        *(istft(spec).samples.tobytes() for spec in masked),
        *(clip.samples.tobytes() for clip in estimates),
    ]


# 5350, 1500 and 100 samples give 85, 25 and 3 frames, which 2 and 3
# threads do not divide; 10 sources sum over the source axis of strided views.
@pytest.mark.parametrize("n_sources, n_samples", [(3, 5350), (10, 1500), (2, 100)])
def test_the_oracle_writes_the_same_bytes_at_every_thread_count(threads, n_sources, n_samples):
    results = []
    for count in THREADS:
        threads(count)
        results.append(_oracle_bytes(n_sources, n_samples))
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("count", THREADS)
def test_an_overflow_in_the_last_frames_only_is_refused(threads, count):
    threads(count)
    specs = [stft(clip, CFG) for clip in _clips(2, 4000)]
    loud = specs[0].bins.copy()
    loud[:, -2:] *= 1e160  # |X|^2 overflows in the last run's frames alone
    specs[0] = Spectrogram(loud, CFG, specs[0].original_length, specs[0].sample_rate)
    assert compute_irm(specs, OracleConfig(alpha=1.0)).masks.shape[0] == 2
    with pytest.raises(InvalidInputError, match="alpha=2.0"):
        compute_irm(specs, OracleConfig(alpha=2.0))
    # Each |X_j|^2 is 1e308, finite, but their sum is not.
    both = []
    for spec in specs[1:] * 2:
        bins = spec.bins.copy()
        bins[:, -1, 3] = 1e154
        both.append(Spectrogram(bins, CFG, spec.original_length, spec.sample_rate))
    with pytest.raises(InvalidInputError, match="alpha=2.0"):
        compute_irm(both, OracleConfig(alpha=2.0))


@pytest.mark.parametrize("count", THREADS)
def test_an_infinite_bin_is_refused(threads, count):
    threads(count)
    specs = [stft(clip, CFG) for clip in _clips(2, 4000)]
    bins = specs[1].bins.copy()
    bins[1, -1, 5] = np.inf  # the mask there would be inf / inf
    specs[1] = Spectrogram(bins, CFG, specs[1].original_length, specs[1].sample_rate)
    with pytest.raises(InvalidInputError, match="alpha=1.0"):
        compute_irm(specs, OracleConfig(alpha=1.0))


@pytest.mark.parametrize("count", THREADS)
def test_every_run_raises_as_the_caller_would(threads, count):
    threads(count)
    samples = np.full((2, 4000), 0.1)
    samples[:, -200:] = 1e307  # only the last run's frames overflow
    before = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        stft(AudioClip(samples, 44100), CFG)
    assert threading.active_count() == before


def test_an_exception_in_a_helper_run_reaches_the_caller(threads):
    threads(3)
    seen = []

    def work(run):
        seen.append(run)
        if run.start > 0:
            raise RuntimeError(f"run {run.start}")

    with pytest.raises(RuntimeError, match="run"):
        stft_module._by_frames(work, 10)
    assert sorted((r.start, r.stop) for r in seen) == [(0, 3), (3, 6), (6, 10)]


def test_no_thread_outlives_a_call(threads):
    threads(3)
    before = threading.active_count()
    clips = _clips(3, 4000)
    specs = [stft(clip, CFG) for clip in clips]
    assert threading.active_count() == before
    masks = compute_irm(specs)
    assert threading.active_count() == before
    masked = apply_masks(masks, specs[0])
    assert threading.active_count() == before
    istft(masked[0])
    assert threading.active_count() == before
    oracle_separate(AudioClip(sum(c.samples for c in clips), 44100), clips, CFG)
    assert threading.active_count() == before


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_a_process_started_from_a_shell_splits_over_every_cpu_it_may_run_on():
    code = "import importlib; print(importlib.import_module('separability.stft')._frame_threads())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert int(child.stdout) == _cpus() == stft_module._frame_threads()


# A forked song worker is covered by the analyze probe in test_cli.py.
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_a_worker_multiprocessing_started_splits_over_one_thread(method):
    with ProcessPoolExecutor(1, multiprocessing.get_context(method)) as pool:
        assert pool.submit(stft_module._frame_threads).result(timeout=120) == 1
