import numpy as np
import pytest
from hypothesis import given, strategies as st

from separability import (
    AudioClip,
    ConfigurationError,
    InvalidInputError,
    OracleConfig,
    StftConfig,
    apply_masks,
    compute_irm,
    oracle_separate,
    stft,
)

from oracles import stacked_masks

CFG = StftConfig(256, 64)


def _specs(seed, n_sources, n_samples=1500, n_channels=1):
    gen = np.random.Generator(np.random.PCG64(seed))
    clips = [
        AudioClip(gen.normal(0.0, 0.4, (n_channels, n_samples)), 44100)
        for _ in range(n_sources)
    ]
    return clips, [stft(c, CFG) for c in clips]


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.alpha == 2.0

    @pytest.mark.parametrize("kwargs", [{"alpha": 0.0}, {"alpha": -1.0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            OracleConfig(**kwargs)

    def test_rejects_infinite_alpha(self):
        # |X|^inf / sum |X|^inf is 0, 1 or NaN: it would fail every song.
        with pytest.raises(ConfigurationError, match="finite"):
            OracleConfig(alpha=np.inf)


class TestMaskInvariants:
    @given(
        n_sources=st.integers(min_value=2, max_value=6),
        alpha=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_of_unity(self, n_sources, alpha, seed):
        _, specs = _specs(seed, n_sources, n_samples=700)
        masks = compute_irm(specs, OracleConfig(alpha=alpha)).masks
        assert np.all(masks >= 0.0)
        assert np.all(masks <= 1.0)
        total = masks.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_uniform_policy_fills_silent_bins(self):
        clips = [AudioClip(np.zeros((1, 700)), 44100) for _ in range(3)]
        specs = [stft(c, CFG) for c in clips]
        masks = compute_irm(specs).masks
        assert np.allclose(masks, 1.0 / 3.0)

    def test_identical_sources_share_evenly(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.4, (1, 900)), 44100)
        spec = stft(clip, CFG)
        masks = compute_irm([spec, spec]).masks
        assert np.allclose(masks, 0.5, atol=1e-15)


class TestMasksMatchStackedFormula:
    """compute_irm works in place; its masks must keep the stacked formula's bits."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("silent_bins", [False, True])
    def test_bit_identical(self, alpha, silent_bins):
        samples = np.random.default_rng(7).normal(0.0, 0.4, (4, 2, 3000))
        if silent_bins:
            # Every stem silent for longer than a frame: all-silent bins.
            samples[:, :, 1000:1800] = 0.0
        specs = [stft(AudioClip(s, 44100), CFG) for s in samples]
        assert np.all([spec.bins == 0.0 for spec in specs], axis=0).any() == silent_bins
        config = OracleConfig(alpha)
        masks = compute_irm(specs, config).masks
        assert masks.tobytes() == stacked_masks(specs, config).tobytes()


class TestValidation:
    def test_empty_source_list(self):
        with pytest.raises(InvalidInputError):
            compute_irm([])

    def test_mismatched_spectrograms(self):
        _, specs_a = _specs(0, 1, n_samples=700)
        _, specs_b = _specs(0, 1, n_samples=900)
        with pytest.raises(InvalidInputError):
            compute_irm([specs_a[0], specs_b[0]])

    def test_spectrograms_at_another_rate(self, rng):
        # Same shape and framing; only the rate differs.
        clip = AudioClip(rng.normal(0.0, 0.3, (2, 1000)), 44100)
        half_rate = AudioClip(clip.samples, 22050)
        with pytest.raises(InvalidInputError, match="sample rate"):
            compute_irm([stft(clip, CFG), stft(half_rate, CFG)])

    def test_overflowing_alpha_is_named(self):
        # |X| reaches 2048 here: 2048**90 is finite, 2048**150 is beyond float64.
        clips = [AudioClip(np.full((1, 700), 8.0 * k), 44100) for k in (1, 2)]
        specs = [stft(c, CFG) for c in clips]
        compute_irm(specs, OracleConfig(alpha=90.0))
        with pytest.raises(InvalidInputError, match=r"overflows float64 at alpha=150\.0"):
            compute_irm(specs, OracleConfig(alpha=150.0))

    def test_apply_masks_shape_mismatch(self):
        _, specs = _specs(0, 2, n_samples=700)
        mask_set = compute_irm(specs)
        _, other = _specs(1, 1, n_samples=900)
        with pytest.raises(InvalidInputError):
            apply_masks(mask_set, other[0])

    def test_apply_masks_at_another_rate(self, rng):
        # Same shape and framing; only the mixture's rate differs.
        clip = AudioClip(rng.normal(0.0, 0.3, (2, 1000)), 44100)
        mask_set = compute_irm([stft(clip, CFG)] * 2)
        half_rate = stft(AudioClip(clip.samples, 22050), CFG)
        with pytest.raises(InvalidInputError, match="at 44100 Hz do not match .* at 22050 Hz"):
            apply_masks(mask_set, half_rate)
        assert (mask_set.config, mask_set.sample_rate) == (CFG, 44100)

    def test_apply_masks_at_another_hop(self, rng):
        # 1000 samples at hop 32 and 2048 at hop 64 both make 33 frames.
        fine = StftConfig(256, 32)
        masks = compute_irm([stft(AudioClip(rng.normal(0.0, 0.3, (2, 1000)), 44100), fine)] * 2)
        mixture = stft(AudioClip(rng.normal(0.0, 0.3, (2, 2048)), 44100), CFG)
        assert mixture.bins.shape == masks.masks.shape[1:]
        with pytest.raises(InvalidInputError, match="hop_size=32.*hop_size=64"):
            apply_masks(masks, mixture)

    def test_oracle_separate_rejects_misaligned_stems(self, rng):
        mix = AudioClip(rng.normal(0.0, 0.3, (1, 800)), 44100)
        short = AudioClip(rng.normal(0.0, 0.3, (1, 700)), 44100)
        with pytest.raises(InvalidInputError):
            oracle_separate(mix, [short, short], CFG)

    def test_oracle_separate_rejects_a_stem_at_another_rate(self, rng):
        # Masks built at one rate would be applied to a mixture at another.
        mix = AudioClip(rng.normal(0.0, 0.3, (2, 800)), 44100)
        half_rate = AudioClip(mix.samples, 22050)
        with pytest.raises(InvalidInputError, match="stem 1: 800 samples, 2 ch, 22050 Hz"):
            oracle_separate(mix, [mix, half_rate], CFG)


class TestOracleSeparation:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_estimates_sum_to_mixture(self, seed):
        clips, _ = _specs(seed, 3, n_samples=1200)
        mix = AudioClip(sum(c.samples for c in clips), 44100)
        estimates = oracle_separate(mix, clips, CFG)
        total = sum(e.samples for e in estimates)
        assert np.max(np.abs(total - mix.samples)) < 1e-9

    def test_identical_stems_recovered_exactly(self, rng):
        clip = AudioClip(rng.normal(0.0, 0.4, (2, 1200)), 44100)
        mix = AudioClip(2.0 * clip.samples, 44100)
        estimates = oracle_separate(mix, [clip, clip], CFG)
        for est in estimates:
            assert np.max(np.abs(est.samples - clip.samples)) < 1e-9
