import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from separability import (
    AudioClip,
    ConfigurationError,
    InvalidInputError,
    Spectrogram,
    StftConfig,
    check_cola,
    istft,
    stft,
)
from separability.stft import _synthesis_weight, window_values

from oracles import full_overlap_cola, overlap_add_inverse

# The package exports the function stft under the module's name.
stft_module = importlib.import_module("separability.stft")


def _clip(gen, n_samples, n_channels=1):
    return AudioClip(gen.normal(0.0, 0.5, (n_channels, n_samples)), 44100)


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert (cfg.window_size, cfg.hop_size, cfg.window_kind) == (4096, 1024, "hann")
        assert cfg.n_bins == 2049

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_size": 1},
            {"hop_size": 0},
            {"window_size": 256, "hop_size": 512},
            {"window_kind": "blackman"},
            {"window_size": 4096.0, "hop_size": 1024},
            {"window_size": 4096, "hop_size": True},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            StftConfig(**kwargs)

    def test_takes_numpy_integers(self):
        assert StftConfig(np.int64(256), np.int64(64)) == StftConfig(256, 64)

    def test_window_is_periodic_hann(self):
        win = window_values(StftConfig(window_size=8, hop_size=2))
        n = np.arange(8)
        expected = 0.5 - 0.5 * np.cos(2 * np.pi * n / 8)
        assert np.allclose(win, expected, atol=1e-15)
        assert win[0] == 0.0
        # A symmetric window would end on 0 as well; the periodic one does not.
        assert win[-1] > 0.0

    def test_window_cache_is_read_only(self):
        win = window_values(StftConfig())
        with pytest.raises(ValueError):
            win[0] = 1.0


class TestCola:
    # Hann tiles at every hop that divides the window by 3 or more, down to one sample.
    @pytest.mark.parametrize("hop_divisor", [3, 4, 8, 6, 12, 1536])
    def test_hann_passes_at_small_hops(self, hop_divisor):
        cfg = StftConfig(window_size=1536, hop_size=1536 // hop_divisor)
        report = check_cola(cfg)
        assert report.passed
        assert report.max_deviation <= 1e-10

    def test_hann_fails_at_half_overlap(self):
        # The squared Hann window tiles only from one-third overlap down.
        assert not check_cola(StftConfig(window_size=512, hop_size=256)).passed

    def test_hann_fails_at_no_overlap(self):
        assert not check_cola(StftConfig(window_size=512, hop_size=512)).passed

    def test_rect_passes_when_hop_divides(self):
        assert check_cola(StftConfig(512, 256, "rect")).passed
        assert check_cola(StftConfig(512, 512, "rect")).passed

    def test_rect_fails_otherwise(self):
        assert not check_cola(StftConfig(512, 384, "rect")).passed

    def test_overlap_gain_matches_hop_ratio(self):
        # Hann^2 sums to 3/8 of window/hop frames' worth of unit gain.
        report = check_cola(StftConfig(window_size=1024, hop_size=256))
        assert report.overlap_gain == pytest.approx(0.375 * 1024 / 256, rel=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            StftConfig(1536, 512),
            StftConfig(1536, 1),
            StftConfig(1000, 300),
            StftConfig(1000, 300, "rect"),
            StftConfig(512, 384, "rect"),
            StftConfig(512, 256),
            StftConfig(4096, 1024),
            StftConfig(9, 3),
            StftConfig(2, 2, "rect"),
        ],
    )
    def test_matches_full_overlap_add_without_the_inverse_cache(self, monkeypatch, config):
        def refuse(*args):
            raise AssertionError("check_cola read the inverse's synthesis weight")

        monkeypatch.setattr(stft_module, "_synthesis_weight", refuse)
        report = check_cola.__wrapped__(config)
        passed, deviation, gain = full_overlap_cola(config)
        assert report.passed is passed
        assert report.max_deviation.hex() == deviation.hex()
        assert report.overlap_gain.hex() == gain.hex()


class TestRoundTrip:
    def test_exact_for_default_config(self, rng):
        clip = _clip(rng, 44100, 2)
        out = istft(stft(clip, StftConfig()))
        assert out.samples.shape == clip.samples.shape
        assert np.max(np.abs(out.samples - clip.samples)) < 1e-10

    @given(
        n_samples=st.integers(min_value=1, max_value=3000),
        n_channels=st.integers(min_value=1, max_value=2),
        config=st.sampled_from(
            [
                StftConfig(256, 64),
                StftConfig(256, 32),
                StftConfig(384, 128),
                StftConfig(256, 64, "rect"),
                StftConfig(256, 64, center=False),
            ]
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_property(self, n_samples, n_channels, config, seed):
        gen = np.random.Generator(np.random.PCG64(seed))
        clip = _clip(gen, n_samples, n_channels)
        out = istft(stft(clip, config))
        if config.center:
            assert np.max(np.abs(out.samples - clip.samples)) < 1e-10
        elif n_samples > 1:
            # Without centering, sample 0 sits under the window's only zero
            # and cannot be recovered; everything else must come back.
            err = np.abs(out.samples[:, 1:] - clip.samples[:, 1:])
            assert np.max(err) < 1e-10

    def test_short_signal_round_trip(self, rng):
        clip = _clip(rng, 5)
        out = istft(stft(clip, StftConfig(256, 64)))
        assert np.max(np.abs(out.samples - clip.samples)) < 1e-10

    def test_linear_in_input(self, rng):
        clip = _clip(rng, 2000)
        cfg = StftConfig(256, 64)
        doubled = stft(AudioClip(2.0 * clip.samples, 44100), cfg)
        assert np.allclose(doubled.bins, 2.0 * stft(clip, cfg).bins, atol=1e-12)


class TestCachedSynthesisWeight:
    """istft reads its squared-window sum from a cache; the bits must not move."""

    @pytest.mark.parametrize(
        "config",
        [
            StftConfig(4096, 1024),
            # Uncentered, as the block oracle inverts: the output starts
            # under the sparsely covered window edge.
            StftConfig(4096, 1024, center=False),
            StftConfig(16, 16, "rect"),
            StftConfig(9, 3),
        ],
    )
    @pytest.mark.parametrize("n_frames", [2, 3, 5, 67])
    def test_matches_uncached_inverse(self, rng, config, n_frames):
        n_samples = (n_frames - 1) * config.hop_size + config.window_size - 2 * config.pad
        for _ in range(2):  # the second call reads the cache the first one filled
            spec = stft(_clip(rng, n_samples, 2), config)
            assert spec.n_frames == n_frames
            out = istft(spec)
            assert out.samples.tobytes() == overlap_add_inverse(spec).tobytes()

    def test_cached_arrays_are_read_only(self):
        for array in _synthesis_weight(StftConfig(window_size=9, hop_size=3), 5):
            assert array.flags.writeable is False


class TestValidation:
    def test_empty_clip_rejected(self):
        clip = AudioClip(np.zeros((1, 0)), 44100)
        with pytest.raises(InvalidInputError):
            stft(clip, StftConfig(256, 64))

    def test_non_cola_config_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            stft(_clip(rng, 1000), StftConfig(512, 256))

    def test_istft_length_limit(self, rng):
        # A hand-built spectrogram can claim more samples than its frames hold.
        spec = stft(_clip(rng, 1000), StftConfig(256, 64))
        for claimed in (-1, 10_000):
            with pytest.raises(InvalidInputError):
                istft(Spectrogram(spec.bins, spec.config, claimed, spec.sample_rate))

    def test_spectrogram_shape_checked(self, rng):
        spec = stft(_clip(rng, 1000), StftConfig(256, 64))
        assert spec.n_bins == 129
        assert spec.bins.flags.writeable is False
        with pytest.raises(InvalidInputError, match="frequency count 128 does not match config"):
            Spectrogram(spec.bins[:, :, :128], spec.config, 1000, spec.sample_rate)
