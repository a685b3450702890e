"""The dense projection solve against the copying chain of oracles.py.

_dense_solve factors the transpose of its exactly symmetric Gram in
place.  It must return the bits, and count the ridge and lstsq last
resorts, of a chain that hands cho_factor the C-ordered Gram to copy:
on a healthy Gram, on an exactly singular one (a duplicated channel,
which takes the ridge), and with every Cholesky refused (lstsq).  Its
right-hand sides and solutions are delay-major, and it holds one Gram
at a time, which _gram builds holding one Toeplitz block at a time.
Through the window kernel, a dual-mono stem takes the ridge at the
default 512 taps.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from separability import (
    AudioClip,
    MetricConfig,
    MultitrackSong,
    ScoringReport,
    framewise_scores,
    load_manifest,
    load_song,
    make_mixture,
    oracle_separate,
)
from separability.metrics import METRICS, _dense_solve, _full_length_lags, _gram

from oracles import copying_dense_solve, entrywise_gram
from synth import write_fixture_dataset


def regressors(case: str) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(2))
    x = gen.normal(size=(2, 3000))
    x[:, 1:] += 0.6 * x[:, :-1]
    x[1] += 0.4 * x[0]
    return np.stack([x[0], x[1], x[0]]) if case == "singular" else x


def refuse(*args, **kwargs):
    raise scipy.linalg.LinAlgError("refused")


@pytest.mark.parametrize("flen", [1, 512])
@pytest.mark.parametrize(
    "case, counts", [("healthy", (0, 0)), ("singular", (1, 0)), ("refused", (0, 1))]
)
def test_dense_solve_matches_the_copying_chain(flen, case, counts, monkeypatch):
    x = regressors(case)
    lags = _full_length_lags(x, flen)
    gram = entrywise_gram(lags)
    # Delay-major (L, m, r) blocks; the oracle takes them regressor-major.
    rhs = np.random.Generator(np.random.PCG64(flen)).normal(size=(flen, len(x), 2))
    if case == "refused":
        monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    want, ridge, lstsq = copying_dense_solve(gram, rhs.transpose(1, 0, 2).reshape(-1, 2))
    assert (ridge, lstsq) == counts

    calls = []
    factorize = scipy.linalg.cho_factor

    def recording(a, *args, **kwargs):
        calls.append((a.flags.f_contiguous, kwargs.get("overwrite_a")))
        return factorize(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
    report = ScoringReport()
    got = _dense_solve(lags, rhs, report)
    assert got.shape == rhs.shape
    assert got.tobytes() == want.reshape(len(x), flen, 2).transpose(1, 0, 2).tobytes()
    assert (report.ridge, report.lstsq, report.dense_fallback) == (*counts, 0)
    # Every attempt, the first and any ridge, factors a Fortran-ordered Gram in place.
    assert calls == [(True, True)] * (1 + sum(counts))


def test_dense_solve_holds_one_gram_at_a_time():
    # The ridge of an exactly singular Gram builds a second Gram only
    # after the failed one is freed, and factors it without a copy.
    flen = 512
    x = regressors("singular")
    lags = _full_length_lags(x, flen)
    rhs = np.random.Generator(np.random.PCG64(flen)).normal(size=(flen, len(x), 2))
    report = ScoringReport()
    tracemalloc.start()
    try:
        _dense_solve(lags, rhs, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ridge == 1
    gram_bytes = (len(x) * flen) ** 2 * 8
    assert peak <= 1.25 * gram_bytes, peak / gram_bytes


def test_gram_holds_one_toeplitz_block_at_a_time():
    # Each block is freed before the next is built: a 2-row Gram of 512
    # taps is four blocks, so holding two at once would peak at 1.5 Grams.
    flen, m = 512, 2
    lags = np.random.Generator(np.random.PCG64(m)).normal(size=(flen, m, m))
    tracemalloc.start()
    try:
        _gram(lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram_bytes = (m * flen) ** 2 * 8
    assert peak <= 1.3 * gram_bytes, peak / gram_bytes


@pytest.mark.parametrize("flen", [1, 25, 512])
def test_gram_is_the_exactly_symmetric_entrywise_gram(flen):
    # Block-FFT lags need not have an exactly symmetric lags[0].
    lags = np.random.Generator(np.random.PCG64(flen)).normal(size=(flen, 3, 3))
    gram = _gram(lags)
    assert gram.tobytes() == entrywise_gram(lags).tobytes()
    assert np.array_equal(gram, gram.T)


def test_a_dual_mono_stem_takes_the_ridge_in_every_window(tmp_path):
    # Identical channels make both the all-reference Gram and the stem's
    # own one exactly singular at the default 512 taps: each window leaves
    # the block-Toeplitz solve and runs two ridges, and no lstsq.
    manifest = load_manifest(
        write_fixture_dataset(
            tmp_path, n_songs=1, seed=0, duration=2.0,
            instruments=("bass", "drums", "other", "vocals"),
        )
    )
    song = load_song(manifest.song_dir("song00"), manifest.instruments)
    stems = dict(song.stems)
    vocals = stems["vocals"].samples.copy()
    vocals[1] = vocals[0]
    stems["vocals"] = AudioClip(vocals, stems["vocals"].sample_rate)
    references = list(stems.values())
    estimates = oracle_separate(make_mixture(MultitrackSong(song.song_id, stems)), references)

    runs = []
    for _ in range(2):
        report = ScoringReport()
        frames = framewise_scores(references, estimates, MetricConfig(512), report)
        runs.append([frame.values(name).tobytes() for frame in frames for name in METRICS])
        assert (report.windows_scored, report.dense_fallback, report.ridge, report.lstsq) == (2, 2, 4, 0)
        assert all(np.isfinite(frame.values(name)).all() for frame in frames for name in METRICS)
    assert runs[0] == runs[1]
