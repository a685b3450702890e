"""The block-streamed oracle against one whole-song pass.

``oracle_separate`` transforms, masks and inverts the song in blocks of
frames; ``oracles.whole_song_oracle_separate`` does the same work on the
whole song at once.  The two must agree bit for bit, at every length
relative to the padding, the window and the block, and the streamed one
must not need more memory for a longer song.

A span of the song, cut with one window of context on each side, must
give the whole song's estimates and scores over that span, so a song can
be scored span by span through the public calls.
"""

import tracemalloc

import numpy as np
import pytest

from separability import (
    AudioClip,
    InvalidInputError,
    MetricConfig,
    OracleConfig,
    ScoringReport,
    StftConfig,
    framewise_scores,
    oracle_separate,
)
from separability.irm import BLOCK_FRAMES
from separability.metrics import METRICS

from oracles import whole_song_oracle_separate
from synth import fixture_stem

HANN = StftConfig(256, 64)
RECT = StftConfig(16, 16, "rect")


def length_for_frames(config: StftConfig, n_frames: int) -> int:
    """Longest input the forward transform cuts into ``n_frames`` frames."""
    return (n_frames - 1) * config.hop_size + config.window_size - 2 * config.pad


def one_block(config: StftConfig) -> int:
    """Frames in a full block: the new ones plus the overlap with the next."""
    return BLOCK_FRAMES + -(-config.window_size // config.hop_size) - 1


def stems_and_mix(seed: int, n_samples: int, n_channels: int, n_stems: int = 3):
    gen = np.random.default_rng(seed)
    stems = [AudioClip(gen.normal(0.0, 0.3, (n_channels, n_samples)), 44100) for _ in range(n_stems)]
    # Silent stretches in one stem give exactly silent bins.
    gated = np.where(np.arange(n_samples) % 3000 < 1200, 0.0, stems[1].samples)
    stems[1] = AudioClip(gated, 44100)
    return AudioClip(sum(s.samples for s in stems), 44100), stems


def assert_same(mix, stems, config, oracle_config=OracleConfig()):
    streamed = oracle_separate(mix, stems, config, oracle_config)
    reference = whole_song_oracle_separate(mix, stems, config, oracle_config)
    assert len(streamed) == len(reference)
    for est, ref in zip(streamed, reference):
        assert est.samples.shape == ref.samples.shape
        assert np.array_equal(est.samples, ref.samples)


LENGTHS = {
    "below_pad": lambda c: max(c.pad - 3, 1),
    "below_window": lambda c: c.window_size - 5,
    "one_block": lambda c: length_for_frames(c, one_block(c)),
    "one_block_less_one_frame": lambda c: length_for_frames(c, one_block(c) - 1),
    "one_block_and_one_frame": lambda c: length_for_frames(c, one_block(c) + 1),
    "several_blocks": lambda c: length_for_frames(c, 4 * BLOCK_FRAMES) + 7,
}


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("config", [HANN, RECT], ids=["hann_256_64", "rect_16_16"])
@pytest.mark.parametrize("length", sorted(LENGTHS))
def test_streamed_equals_whole_song(length, config, n_channels):
    n = LENGTHS[length](config)
    mix, stems = stems_and_mix(n, n, n_channels)
    assert_same(mix, stems, config)


@pytest.mark.parametrize("oracle_config", [OracleConfig(alpha=1.0)], ids=["alpha_1"])
def test_streamed_equals_whole_song_other_masks(oracle_config):
    mix, stems = stems_and_mix(3, length_for_frames(HANN, 3 * BLOCK_FRAMES) + 11, 2)
    assert_same(mix, stems, HANN, oracle_config)


def test_streamed_equals_whole_song_twin_stems():
    _, stems = stems_and_mix(4, length_for_frames(HANN, 2 * BLOCK_FRAMES) + 5, 2)
    twin = stems[0]
    assert_same(AudioClip(2.0 * twin.samples, 44100), [twin, twin], HANN)


def test_streamed_equals_whole_song_default_config():
    mix, stems = stems_and_mix(5, 3 * 65536 + 1, 1)
    assert_same(mix, stems, StftConfig())


def test_streamed_rejects_empty_clip():
    empty = AudioClip(np.zeros((1, 0)), 44100)
    with pytest.raises(InvalidInputError):
        oracle_separate(empty, [empty, empty])


WINDOW = 44100  # samples in one metric window

SPAN_CONFIGS = {
    "hann_4096_1024": StftConfig(),
    "hann_256_64": HANN,
    "hann_1000_250": StftConfig(1000, 250),
    "rect_16_16": RECT,
}


@pytest.fixture(scope="module")
def song():
    """A 5.3 s, 4-stem stereo fixture song, its mixture, and its whole-song
    estimates by STFT configuration, computed on first use."""
    gen = np.random.Generator(np.random.PCG64(7))
    stems = [fixture_stem(gen, 0, j, int(5.3 * WINDOW)) for j in range(4)]
    mix = AudioClip(sum(s.samples for s in stems), 44100)
    whole = {}

    def estimates(config):
        if config not in whole:
            whole[config] = oracle_separate(mix, stems, config)
        return whole[config]

    return mix, stems, estimates


def span_estimates(mix, stems, config, s0, s1):
    """Samples [s0, s1) of the estimates, from oracle_separate on a slice.

    The slice opens on a frame boundary at least one window before s0 and
    closes one window after s1, or at the song's edges.  Every frame that
    covers [s0, s1) is then a frame of the whole song, and no frame that
    reaches past the slice's edges into its padding covers [s0, s1).
    """
    ws, hop = config.window_size, config.hop_size
    q0, q1 = max(0, (s0 - ws) // hop * hop), min(mix.n_samples, s1 + ws)
    estimates = oracle_separate(mix.window(q0, q1), [s.window(q0, q1) for s in stems], config)
    return [est.window(s0 - q0, s1 - q0) for est in estimates]


@pytest.mark.parametrize("config", SPAN_CONFIGS.values(), ids=SPAN_CONFIGS)
def test_a_span_gives_the_whole_songs_samples(config, song):
    mix, stems, estimates = song
    n = mix.n_samples
    # The first window, three interior ones, and the last one with the tail.
    for s0, s1 in ((0, WINDOW), (WINDOW, 4 * WINDOW), (4 * WINDOW, n)):
        for got, want in zip(span_estimates(mix, stems, config, s0, s1), estimates(config)):
            assert got.samples.tobytes() == want.samples[:, s0:s1].tobytes(), (s0, s1)


@pytest.mark.parametrize("config", SPAN_CONFIGS.values(), ids=SPAN_CONFIGS)
def test_a_song_shorter_than_one_window_is_one_span(config, song):
    mix, stems, _ = song
    n = int(0.7 * WINDOW)
    mix, stems = mix.window(0, n), [s.window(0, n) for s in stems]
    whole = oracle_separate(mix, stems, config)
    for got, want in zip(span_estimates(mix, stems, config, 0, n), whole):
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("filter_length", [1, 25])
def test_window_aligned_spans_give_the_whole_songs_scores(filter_length, song):
    mix, stems, estimates = song
    n = mix.n_samples
    config = MetricConfig(filter_length=filter_length)
    whole = ScoringReport()
    want = framewise_scores(stems, estimates(StftConfig()), config, whole)
    spans = ScoringReport()
    parts = [
        framewise_scores(
            [s.window(s0, s1) for s in stems],
            span_estimates(mix, stems, StftConfig(), s0, s1),
            config,
            spans,
        )
        # Two windows, then one, then two and the tail.
        for s0, s1 in ((0, 2 * WINDOW), (2 * WINDOW, 3 * WINDOW), (3 * WINDOW, n))
    ]
    assert whole.windows_scored == 5 and whole.tail_samples_unscored == n - 5 * WINDOW
    assert vars(spans) == vars(whole)
    for j, frames in enumerate(want):
        for name in METRICS:
            joined = np.concatenate([part[j].values(name) for part in parts])
            assert joined.tobytes() == frames.values(name).tobytes(), (j, name)


def working_memory(seconds: float) -> int:
    """Peak bytes allocated during the call, less the estimates it returns."""
    mix, stems = stems_and_mix(6, int(seconds * 44100), 1)
    tracemalloc.start()
    try:
        estimates = oracle_separate(mix, stems)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - sum(e.samples.nbytes for e in estimates)


def test_working_memory_does_not_grow_with_length():
    short, long = working_memory(20.0), working_memory(80.0)
    assert abs(long - short) <= 0.1 * short, (short, long)
