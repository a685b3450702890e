import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, strategies as st

from separability import (
    AudioClip,
    ConfigurationError,
    FrameScores,
    InvalidInputError,
    MetricConfig,
    ScoringReport,
    SilentReferenceError,
    aggregate_song,
    decompose,
    framewise_scores,
    isr,
    sar,
    sdr,
    si_sdr,
    sir,
)
from separability.metrics import METRICS, ErrorComponents, _window_splits, median_ignoring_missing

from oracles import bss_ratios
from synth import periodic_tone

FAST = MetricConfig(filter_length=1)


def _noisy_pair(seed):
    """A stereo reference and the reference plus noise of a random level."""
    gen = np.random.Generator(np.random.PCG64(seed))
    ref = AudioClip(gen.normal(0, 1, (2, 500)), 44100)
    noise = gen.normal(0, gen.uniform(0.05, 20.0), (2, 500))
    return ref, AudioClip(ref.samples + noise, 44100)


def _tones(n=2000):
    target = periodic_tone(17, n)
    other = periodic_tone(40, n, 0.7)
    noise = periodic_tone(77, n)
    return target, other, noise


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"filter_length": -512}, {"filter_length": -1}, {"filter_length": 0}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            MetricConfig(**kwargs)


class TestDecomposeCases:
    def test_perfect_estimate(self):
        target, other, _ = _tones()
        comp = decompose([target, other], target, 0, FAST)
        for part in (comp.e_spat, comp.e_interf, comp.e_artif):
            assert np.max(np.abs(part)) < 1e-9
        assert sdr(comp, target) == 300.0
        assert isr(comp, target) == 300.0
        assert sir(comp, target) == 300.0
        assert sar(comp, target) == 300.0

    def test_orthogonal_interference_isolated(self):
        target, other, _ = _tones()
        est = AudioClip(target.samples + 0.3 * other.samples, 44100)
        comp = decompose([target, other], est, 0, FAST)
        n = target.n_samples
        assert np.max(np.abs(comp.e_interf[:, :n] - 0.3 * other.samples)) < 1e-9
        assert np.max(np.abs(comp.e_spat)) < 1e-9
        assert np.max(np.abs(comp.e_artif)) < 1e-9

    def test_analytic_equal_energy_noise(self):
        target, other, noise = _tones()
        est = AudioClip(target.samples + noise.samples, 44100)
        comp = decompose([target, other], est, 0, FAST)
        assert sdr(comp, target) == pytest.approx(0.0, abs=0.01)
        assert sar(comp, target) == pytest.approx(0.0, abs=0.01)
        assert sir(comp, target) == 300.0
        assert isr(comp, target) == 300.0

    def test_silent_target_raises(self):
        target, other, _ = _tones()
        silent = AudioClip(np.zeros_like(target.samples), 44100)
        with pytest.raises(SilentReferenceError):
            decompose([silent, other], other, 0, FAST)

    def test_target_index_checked(self):
        target, other, _ = _tones()
        with pytest.raises(InvalidInputError):
            decompose([target, other], target, 2, FAST)

    def test_no_reference_refused(self):
        target, _, _ = _tones()
        with pytest.raises(InvalidInputError, match="need at least one reference"):
            decompose([], target, 0, FAST)

    @pytest.mark.parametrize(
        "shapes", [((1, 5), (1, 5), (1, 4)), ((1, 5), (2, 5), (1, 5)), ((5,), (5,), (5,))]
    )
    def test_components_of_different_shapes_refused(self, shapes):
        with pytest.raises(InvalidInputError, match="component shapes disagree"):
            ErrorComponents(*(np.zeros(shape) for shape in shapes))

    def test_partition_identity_stereo(self, rng):
        n = 1500
        refs = [AudioClip(rng.normal(0, 1, (2, n)), 44100) for _ in range(3)]
        est = AudioClip(
            0.7 * refs[0].samples + 0.2 * refs[2].samples + rng.normal(0, 0.05, (2, n)),
            44100,
        )
        comp = decompose(refs, est, 0, MetricConfig(filter_length=8))
        s_pad = np.zeros_like(comp.e_spat)
        s_pad[:, :n] = refs[0].samples
        e_pad = np.zeros_like(comp.e_spat)
        e_pad[:, :n] = est.samples
        reconstructed = s_pad + comp.e_spat + comp.e_interf + comp.e_artif
        assert np.max(np.abs(reconstructed - e_pad)) < 1e-9

    def test_lstsq_last_resort_keeps_the_partition(self, rng, monkeypatch):
        # With every Cholesky refused, the target projection falls through
        # the ridge to lstsq; the all-reference one stays block-Toeplitz.
        def refuse(*args, **kwargs):
            raise scipy.linalg.LinAlgError("refused")

        monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
        n = 1500
        refs = [AudioClip(rng.normal(0, 1, (2, n)), 44100) for _ in range(3)]
        est = AudioClip(
            0.7 * refs[0].samples + 0.2 * refs[2].samples + rng.normal(0, 0.05, (2, n)),
            44100,
        )
        report = ScoringReport()
        comp = decompose(refs, est, 0, MetricConfig(filter_length=8), report)
        assert (report.lstsq, report.ridge, report.dense_fallback) == (1, 0, 0)
        s_pad = np.zeros_like(comp.e_spat)
        s_pad[:, :n] = refs[0].samples
        e_pad = np.zeros_like(comp.e_spat)
        e_pad[:, :n] = est.samples
        reconstructed = s_pad + comp.e_spat + comp.e_interf + comp.e_artif
        assert np.max(np.abs(reconstructed - e_pad)) < 1e-12


def _near_zero_db_split(rng, metric):
    """A short split whose ``metric`` lies ~4e-9 dB from 0 dB, where one ulp
    of the score is ~1e-24 dB: a last-bit change in any of its energies,
    which over a few samples a reordered sum often makes, shows."""
    s, e_spat, e_interf, e_artif = rng.normal(0.0, 1.0, (4, 2, 4))

    def en(x):
        return float(np.sum(x**2))

    def scaled(x, energy):
        return x * math.sqrt(energy * (1.0 + 1e-9) / en(x))

    if metric == "isr":
        e_spat = scaled(e_spat, en(s))
    elif metric == "sir":
        e_interf = scaled(e_interf, en(s + e_spat))
    elif metric == "sar":
        e_artif = scaled(e_artif, en(s + e_spat + e_interf))
    else:
        c = math.sqrt(en(s) * (1.0 + 1e-9) / en(e_spat + e_interf + e_artif))
        e_spat, e_interf, e_artif = c * e_spat, c * e_interf, c * e_artif
    return s, ErrorComponents(e_spat, e_interf, e_artif)


class TestRatioFormulas:
    """sdr, isr, sir and sar share one computation; each must keep its own
    formula's operand order, which shows in the last bits near 0 dB."""

    @pytest.mark.parametrize("metric", ["sdr", "isr", "sir", "sar"])
    def test_bit_identical_near_zero_db(self, rng, metric):
        fn = {"sdr": sdr, "isr": isr, "sir": sir, "sar": sar}[metric]
        for _ in range(50):
            s, comp = _near_zero_db_split(rng, metric)
            value = fn(comp, AudioClip(s, 8000))
            assert abs(value) < 1e-6
            assert value == bss_ratios(s, comp.e_spat, comp.e_interf, comp.e_artif)[metric]

    def test_silent_reference_is_missing(self):
        target, other, _ = _tones()
        comp = decompose([target, other], target, 0, FAST)
        silent = AudioClip(np.zeros_like(target.samples), 44100)
        for metric in (sdr, isr, sir, sar):
            assert math.isnan(metric(comp, silent))

    # The reference must fit the padded domain: same channels, no more samples.
    @pytest.mark.parametrize("shape", [(2, 2000), (1, 2001)])
    def test_reference_outside_the_decomposition_domain_refused(self, shape):
        target, other, _ = _tones()
        comp = decompose([target, other], target, 0, FAST)
        for metric in (sdr, isr, sir, sar):
            with pytest.raises(InvalidInputError, match="does not match the decomposition domain"):
                metric(comp, AudioClip(np.ones(shape), 44100))


class TestSiSdr:
    def test_scaled_copy_is_perfect(self):
        target, _, _ = _tones()
        for c in (-2.0, 0.5, 3.0):
            est = AudioClip(c * target.samples, 44100)
            assert si_sdr(est, target) == 300.0

    def test_equal_energy_orthogonal_noise(self):
        target, _, noise = _tones()
        est = AudioClip(target.samples + noise.samples, 44100)
        assert si_sdr(est, target) == pytest.approx(0.0, abs=1e-9)

    def test_tenth_energy_noise(self):
        target, _, noise = _tones()
        est = AudioClip(target.samples + noise.samples / math.sqrt(10), 44100)
        assert si_sdr(est, target) == pytest.approx(10.0, abs=1e-9)

    @given(
        c=st.sampled_from([-3.0, 0.01, 7.0]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_scale_invariance(self, c, seed):
        # Estimates that resemble the reference: the tight tolerance only
        # holds away from near-orthogonal pairs, where the projection's
        # inner product cancels catastrophically.  Loud noise makes such a
        # pair in about 2% of draws (below -40 dB); those are discarded
        # here, and the test below covers that regime.
        ref, est = _noisy_pair(seed)
        base = si_sdr(est, ref)
        assume(base > -40.0)
        scaled = AudioClip(c * est.samples, 44100)
        assert abs(si_sdr(scaled, ref) - base) < 1e-12

    def test_scale_invariance_survives_near_orthogonal_pairs(self):
        # Independent clips sit around -120 dB; rounding in the tiny inner
        # product costs a few 1e-11 dB, but the invariance stays far below
        # anything a consumer of these scores could notice.  The noisy pair
        # (-74.7 dB) missed the 1e-12 bound above by 1.3e-12 dB at c = 7.
        gen = np.random.Generator(np.random.PCG64(670))
        independent = (
            AudioClip(gen.normal(0, 1, (2, 500)), 44100),
            AudioClip(gen.normal(0, 1, (2, 500)), 44100),
        )
        for ref, est in (independent, _noisy_pair(74985)):
            base = si_sdr(est, ref)
            assert base < -60.0
            for c in (-3.0, 0.01, 7.0):
                scaled = AudioClip(c * est.samples, 44100)
                assert abs(si_sdr(scaled, ref) - base) < 1e-6

    def test_zero_reference_is_missing(self):
        zero = AudioClip(np.zeros((1, 100)), 44100)
        est = AudioClip(np.ones((1, 100)), 44100)
        assert math.isnan(si_sdr(est, zero))

    def test_zero_estimate_hits_negative_cap(self):
        ref = AudioClip(np.ones((1, 100)), 44100)
        zero = AudioClip(np.zeros((1, 100)), 44100)
        assert si_sdr(zero, ref) == -300.0

    def test_length_mismatch_rejected(self):
        a = AudioClip(np.ones((1, 100)), 44100)
        b = AudioClip(np.ones((1, 99)), 44100)
        with pytest.raises(InvalidInputError):
            si_sdr(a, b)


# Scores compare clips sample for sample, so a clip at another rate is refused.
@pytest.mark.parametrize(
    "score",
    [
        si_sdr,
        lambda a, b: decompose([a, b], a, 0, FAST),
        lambda a, b: framewise_scores([a, a], [a, b], FAST),
    ],
    ids=["si_sdr", "decompose", "framewise_scores"],
)
def test_clips_at_mixed_sample_rates_are_refused(score, rng):
    a = AudioClip(rng.normal(0, 1, (2, 500)), 44100)
    b = AudioClip(a.samples, 22050)
    with pytest.raises(InvalidInputError, match="500 samples, 2 ch, 22050 Hz"):
        score(a, b)


class TestFramewise:
    def _pair(self, seconds, rng, sr=8000):
        n = int(seconds * sr)
        refs = [AudioClip(rng.normal(0, 0.5, (1, n)), sr) for _ in range(2)]
        ests = [AudioClip(r.samples + rng.normal(0, 0.05, (1, n)), sr) for r in refs]
        return refs, ests

    def test_ten_second_signal_gives_ten_windows(self, rng):
        refs, ests = self._pair(10.0, rng)
        frames = framewise_scores(refs, ests, FAST)
        assert all(f.n_windows == 10 for f in frames)

    def test_short_signal_gives_single_whole_window(self, rng):
        refs, ests = self._pair(0.4, rng)
        frames = framewise_scores(refs, ests, FAST)
        assert all(f.n_windows == 1 for f in frames)

    def test_partial_trailing_window_dropped(self, rng):
        refs, ests = self._pair(2.7, rng)
        frames = framewise_scores(refs, ests, FAST)
        assert all(f.n_windows == 2 for f in frames)

    def test_silent_reference_windows_marked_missing(self, rng):
        sr = 8000
        n = 4 * sr
        samples = rng.normal(0, 0.5, (1, n))
        samples[:, sr : 3 * sr] = 0.0
        ref = AudioClip(samples, sr)
        other = AudioClip(rng.normal(0, 0.5, (1, n)), sr)
        est = AudioClip(samples + rng.normal(0, 0.01, (1, n)), sr)
        frames = framewise_scores([ref, other], [est, other], FAST)
        assert np.isnan(frames[0].si_sdr[1]) and np.isnan(frames[0].si_sdr[2])
        assert not np.isnan(frames[0].si_sdr[0]) and not np.isnan(frames[0].si_sdr[3])
        # The other stem is live everywhere, so nothing is missing there.
        assert not np.any(np.isnan(frames[1].si_sdr))

    def test_window_where_every_stem_is_silent_is_skipped(self, rng):
        sr = 8000
        refs = [rng.normal(0, 0.5, (1, 3 * sr)) for _ in range(2)]
        for samples in refs:
            samples[:, sr : 2 * sr] = 0.0
        ests = [AudioClip(r + rng.normal(0, 0.01, r.shape), sr) for r in refs]
        report = ScoringReport()
        frames = framewise_scores([AudioClip(r, sr) for r in refs], ests, FAST, report)
        for fr in frames:
            for name in METRICS:
                assert np.isnan(fr.values(name)[1]), name
                assert not np.any(np.isnan(fr.values(name)[[0, 2]])), name
        assert report.windows_scored == 2
        assert report.silent_windows == [1, 1]

    def test_constant_windows_give_constant_scores(self, rng):
        sr = 8000
        tile_ref = rng.normal(0, 0.5, (1, sr))
        tile_noise = rng.normal(0, 0.05, (1, sr))
        ref = AudioClip(np.tile(tile_ref, (1, 3)), sr)
        other = AudioClip(np.tile(tile_noise, (1, 3)), sr)
        est = AudioClip(ref.samples + other.samples, sr)
        frames = framewise_scores([ref, other], [est, other], FAST)
        values = frames[0].si_sdr
        assert np.allclose(values, values[0], atol=1e-9)
        assert aggregate_song(frames[0])["si_sdr"] == pytest.approx(values[0], abs=1e-9)

    def test_input_validation(self, rng):
        refs, ests = self._pair(1.0, rng)
        with pytest.raises(InvalidInputError):
            framewise_scores(refs, ests[:1], FAST)
        with pytest.raises(InvalidInputError):
            framewise_scores([], [], FAST)
        with pytest.raises(InvalidInputError, match="report has 3 stems, not 2"):
            framewise_scores(refs, ests, FAST, ScoringReport(silent_windows=[0, 0, 0]))

    @pytest.mark.parametrize("flen", [1, 25])
    def test_window_aligned_spans_add_up_to_the_whole_clip(self, rng, flen):
        # Scoring a song span by span, with one report across the spans,
        # must give the whole-song call's windows, bits and counts.
        sr = 2000
        refs = rng.normal(0, 0.5, (3, 2, 5 * sr + 700))
        refs[1, :, sr : 2 * sr] = 0.0  # one silent stem-window, in the first span
        refs[2, :, 3 * sr : 4 * sr] = refs[0, :, 3 * sr : 4 * sr]  # a dependent window
        ests = refs + 0.2 * refs[[1, 2, 0]] + rng.normal(0, 0.05, refs.shape)
        references = [AudioClip(r, sr) for r in refs]
        estimates = [AudioClip(e, sr) for e in ests]
        config = MetricConfig(filter_length=flen)

        whole = ScoringReport()
        want = framewise_scores(references, estimates, config, whole)
        spans = ScoringReport()
        parts = [
            framewise_scores(
                [clip.window(start, stop) for clip in references],
                [clip.window(start, stop) for clip in estimates],
                config,
                spans,
            )
            # Two whole windows, then three and the 700-sample tail.
            for start, stop in ((0, 2 * sr), (2 * sr, refs.shape[-1]))
        ]
        assert whole.silent_windows == [0, 1, 0] and whole.tail_samples_unscored == 700
        assert whole.dense_fallback == 1
        assert spans == whole
        for j, frames in enumerate(want):
            for name in METRICS:
                joined = np.concatenate([part[j].values(name) for part in parts])
                assert joined.tobytes() == frames.values(name).tobytes(), (j, name)


def _per_window_splits(references, estimates, config):
    """framewise_scores the long way: a copy of every window, and the split
    of each of its active stems from the window kernel.  Yields (window,
    stem, padded target, split, reference window, estimate window)."""
    win = references[0].sample_rate  # 1-second windows
    for w in range(references[0].n_samples // win):
        ref_w = [clip.window(w * win, (w + 1) * win) for clip in references]
        est_w = [clip.window(w * win, (w + 1) * win) for clip in estimates]
        active = [
            j for j, r in enumerate(ref_w)
            if np.mean(r.samples**2) >= MetricConfig.silence_threshold
        ]
        refs = np.stack([r.samples for r in ref_w])
        ests = np.stack([est_w[j].samples for j in active])
        splits = _window_splits(refs, ests, active, config.filter_length, ScoringReport())
        for j, (s, comp) in zip(active, splits):
            assert s.shape == comp.e_spat.shape
            assert np.array_equal(s[:, :win], refs[j]) and not s[:, win:].any()
            yield w, j, s, comp, ref_w[j], est_w[j]


class TestFramewiseMatchesPerWindowCalls:
    """framewise_scores cuts, splits and scores each window in one pass; every
    score must keep the bits of the per-window public calls on the same
    projection, and of each metric's own formula."""

    @pytest.mark.parametrize("filter_length", [1, 25])
    def test_bit_identical(self, rng, filter_length):
        sr = 8000
        n = 3 * sr + 500
        refs = rng.normal(0.0, 0.5, (4, 2, n))
        refs[2, :, sr : 2 * sr] = 0.0  # stem 2 is silent in window 1
        mixing = np.eye(4) + rng.uniform(0.0, 0.2, (4, 4))
        ests = np.einsum("jk,kcn->jcn", mixing, refs) + rng.normal(0.0, 0.05, (4, 2, n))
        references = [AudioClip(r, sr) for r in refs]
        estimates = [AudioClip(e, sr) for e in ests]
        config = MetricConfig(filter_length)
        frames = framewise_scores(references, estimates, config)
        expected = np.full((5, 4, 3), np.nan)
        for w, j, s, comp, ref, est in _per_window_splits(references, estimates, config):
            ratios = bss_ratios(s, comp.e_spat, comp.e_interf, comp.e_artif)
            public = {"sdr": sdr, "isr": isr, "sir": sir, "sar": sar}
            assert {name: fn(comp, ref) for name, fn in public.items()} == ratios
            ratios["si_sdr"] = si_sdr(est, ref)
            for m, name in enumerate(METRICS):
                expected[m, j, w] = ratios[name]
        assert np.isnan(expected).sum() == 5  # only stem 2 in window 1
        for m, name in enumerate(METRICS):
            for j in range(4):
                assert frames[j].values(name).tobytes() == expected[m, j].tobytes(), (name, j)


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: decompose projects one estimate at a time and "
    "framewise_scores every scored stem at once, so their last bits differ (ROADMAP item 2)",
)
def test_decompose_reproduces_framewise_scores_in_one_window(rng):
    # The gate of ROADMAP item 2: the public per-window calls give a song's
    # scores bit for bit.  One 1-second window of four scored stereo stems.
    sr = 8000
    refs = rng.normal(0.0, 0.5, (4, 2, sr))
    mixing = np.eye(4) + rng.uniform(0.0, 0.2, (4, 4))
    ests = np.einsum("jk,kcn->jcn", mixing, refs) + rng.normal(0.0, 0.05, (4, 2, sr))
    references = [AudioClip(r, sr) for r in refs]
    estimates = [AudioClip(e, sr) for e in ests]
    frames = framewise_scores(references, estimates, FAST)
    public = {"sdr": sdr, "isr": isr, "sir": sir, "sar": sar}
    for j, (ref, est) in enumerate(zip(references, estimates)):
        comp = decompose(references, est, j, FAST)
        for name, fn in public.items():
            want = frames[j].values(name)
            assert np.array([fn(comp, ref)]).tobytes() == want.tobytes(), (j, name)


class TestAggregation:
    def _frames(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return FrameScores(arr, arr, arr, arr, arr)

    def test_odd_count_median(self):
        assert aggregate_song(self._frames([1.0, 2.0, 100.0]))["sdr"] == 2.0

    def test_even_count_mean_of_middle(self):
        assert aggregate_song(self._frames([1.0, 2.0, 3.0, 4.0]))["sdr"] == 2.5

    def test_missing_windows_excluded(self):
        frames = self._frames([1.0, math.nan, 3.0, math.nan])
        assert aggregate_song(frames)["sdr"] == 2.0

    def test_all_missing_stays_missing(self):
        assert math.isnan(aggregate_song(self._frames([math.nan, math.nan]))["sdr"])

    def test_permutation_invariant(self, rng):
        values = list(rng.normal(0, 5, 9))
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert median_ignoring_missing(np.array(values)) == median_ignoring_missing(
            np.array(shuffled)
        )

    def test_frame_scores_shape_checked(self):
        good = np.zeros(3)
        with pytest.raises(InvalidInputError):
            FrameScores(good, good, good, good, np.zeros(4))
        with pytest.raises(InvalidInputError):
            FrameScores(good, good, good, good, np.zeros((3, 1)))

    def test_frame_scores_unknown_metric_refused(self):
        with pytest.raises(InvalidInputError, match="unknown metric 'volume'"):
            self._frames([1.0]).values("volume")
