"""Metamorphic checks: a song's level and the order of its stems change no score.

The scores measure how much the stems overlap in time-frequency, which
depends neither on how loud the song is nor on the order its
instruments are listed in.

- Gain: every floating-point step from the stems to the scores commutes
  exactly with a power-of-two scale that neither overflows nor
  underflows, and every threshold but the silence test is relative to
  the signal.  So stems scaled by 2^k give the same scores and counts,
  bit for bit, as long as no window's mean square crosses the silence
  threshold.  A gain that lifts one stem-window over it changes only
  that window: the stem gains its scores there, and the other stems'
  move in their last bits.
- Order: the scores move with their instruments.  Reversing the stems
  changes the order the mixture is summed in, and with it the last bits,
  so the scores agree to 1e-9 dB rather than bit for bit.

Both run the pipeline ``analyze`` runs (``make_mixture``,
``oracle_separate``, ``framewise_scores``) on a 4-stem stereo fixture
song in which one stem is silent for one window, so the checks also
cover a missing score and a silent-window count.  They run again on
the two songs of the benchmark's tiny ``sparse-w2-tables`` inputs,
whose -120 dB hum is identical in both channels and so makes every
all-reference Gram exactly singular.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

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
from separability.metrics import METRICS

from synth import write_fixture_dataset

WINDOW = 44100  # samples in one metric window
FILTER_LENGTHS = (1, 25)
THRESHOLD = MetricConfig.silence_threshold


@pytest.fixture(scope="module")
def song(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    manifest = load_manifest(
        write_fixture_dataset(
            root, n_songs=1, seed=2, duration=3.3, instruments=("bass", "drums", "other", "vocals")
        )
    )
    loaded = load_song(manifest.song_dir("song00"), manifest.instruments)
    stems = dict(loaded.stems)
    drums = stems["drums"].samples.copy()
    drums[:, WINDOW : 2 * WINDOW] = 0.0
    stems["drums"] = AudioClip(drums, loaded.stems["drums"].sample_rate)
    return MultitrackSong(loaded.song_id, stems)


def scores(song, filter_lengths=FILTER_LENGTHS):
    """{filter length: ({instrument: FrameScores}, ScoringReport)} of the song."""
    references = list(song.stems.values())
    estimates = oracle_separate(make_mixture(song), references)
    out = {}
    for flen in filter_lengths:
        report = ScoringReport()
        frames = framewise_scores(references, estimates, MetricConfig(flen), report)
        out[flen] = dict(zip(song.instruments, frames)), report
    return out


@pytest.fixture(scope="module")
def unscaled(song):
    found = scores(song)
    # The premises: a silent stem-window, hence a missing score.
    report = found[1][1]
    assert report.silent_windows == [0, 1, 0, 0] and report.windows_scored == 3
    assert np.isnan(found[1][0]["drums"].sdr[1])
    return found


def scaled(song, k):
    return MultitrackSong(
        song.song_id, {name: clip.scaled(2.0**k) for name, clip in song.stems.items()}
    )


def reversed_stems(song):
    return MultitrackSong(song.song_id, dict(reversed(song.stems.items())))


def assert_same_bits(found, expected):
    """Every count and every score byte of ``found`` equals ``expected``'s."""
    for flen, (frames, report) in found.items():
        want_frames, want_report = expected[flen]
        assert vars(report) == vars(want_report), flen
        for instrument, got in frames.items():
            for name in METRICS:
                want = want_frames[instrument].values(name)
                assert got.values(name).tobytes() == want.tobytes(), (flen, instrument, name)


def assert_same_scores_reversed(found, expected):
    """``found``, of the reversed stems, has ``expected``'s counts and scores within 1e-9 dB."""
    for flen, (frames, report) in found.items():
        want_frames, want_report = expected[flen]
        # The silent-window counts move with their stems; the others stay.
        report.silent_windows.reverse()
        assert vars(report) == vars(want_report), flen
        for instrument, got in frames.items():
            for name in METRICS:
                got_values, want = got.values(name), want_frames[instrument].values(name)
                assert np.array_equal(np.isnan(got_values), np.isnan(want)), (flen, instrument)
                np.testing.assert_allclose(got_values, want, rtol=0, atol=1e-9, equal_nan=True)


@pytest.mark.parametrize("k", [-6, -3, 5, 7])
def test_a_power_of_two_gain_changes_no_bit(k, song, unscaled):
    assert_same_bits(scores(scaled(song, k)), unscaled)


def test_reversed_stems_keep_each_instruments_scores(song, unscaled):
    assert_same_scores_reversed(scores(reversed_stems(song)), unscaled)


@pytest.fixture(scope="module")
def quiet_song(song):
    """The song with bass's window 2 brought just under the silence threshold."""
    stems = dict(song.stems)
    bass = stems["bass"].samples.copy()
    segment = bass[:, 2 * WINDOW : 3 * WINDOW]
    # A power-of-two gain puts its mean square in [threshold / 4, threshold),
    # so any gain 2^k with k >= 1 lifts it over.
    segment *= 2.0 ** math.floor(math.log(THRESHOLD / np.mean(segment**2), 4))
    assert THRESHOLD / 4 <= np.mean(segment**2) < THRESHOLD
    stems["bass"] = AudioClip(bass, song.stems["bass"].sample_rate)
    return MultitrackSong(song.song_id, stems)


@pytest.mark.parametrize("k", [1, 4])
def test_a_gain_across_the_silence_threshold_changes_only_that_window(k, quiet_song):
    quiet = quiet_song.instruments.index("bass")
    unscaled = scores(quiet_song)
    for flen, (frames, report) in scores(scaled(quiet_song, k)).items():
        want_frames, want_report = unscaled[flen]
        # Bass leaves the silent count in window 2; every other count stays.
        want_report.silent_windows[quiet] -= 1
        assert vars(report) == vars(want_report), flen
        for instrument, got in frames.items():
            for name in METRICS:
                got_values, want = got.values(name), want_frames[instrument].values(name)
                others = [0, 1]  # every window but the quiet one
                assert got_values[others].tobytes() == want[others].tobytes(), (flen, instrument)
                if instrument == "bass":
                    assert np.isnan(want[2]) and np.isfinite(got_values[2]), (flen, name)
                else:
                    # One more estimate row in the window's correlations
                    # moves the other stems' last bits (ROADMAP item 2).
                    assert abs(got_values[2] - want[2]) <= 1e-9, (flen, instrument, name)


HUM_FILTER_LENGTHS = (1, 64)


def _workloads():
    """perfbench/workloads.py, which writes the benchmark's inputs without the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def hum_songs(tmp_path_factory):
    """[(song, its scores)] for the tiny sparse-w2-tables inputs at seed 0."""
    work = tmp_path_factory.mktemp("sparse")
    _workloads().build("sparse-w2-tables", 0, "tiny", work)
    manifest = load_manifest(work / "data" / "manifest.tsv")
    songs = [load_song(manifest.song_dir(s), manifest.instruments) for s in manifest.song_ids()]
    assert len(songs) == 2
    return [(song, scores(song, HUM_FILTER_LENGTHS)) for song in songs]


def test_a_gain_changes_no_bit_of_the_hum_songs(hum_songs):
    # 2^-6 takes no window's mean square across the silence threshold.
    for song, unscaled in hum_songs:
        assert_same_bits(scores(scaled(song, -6), HUM_FILTER_LENGTHS), unscaled)


@pytest.mark.parametrize(
    "flen",
    [
        pytest.param(
            1,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 2: on the singular hum Grams rounding picks Cholesky or "
                "the ridge, so reversing the stems flips a ridge count and moves SIR by "
                "0.16 and 0.17 dB",
            ),
        ),
        64,
    ],
)
def test_reversed_stems_keep_the_hum_songs_scores(flen, hum_songs):
    for song, unscaled in hum_songs:
        found = scores(reversed_stems(song), (flen,))
        assert_same_scores_reversed(found, {flen: unscaled[flen]})
