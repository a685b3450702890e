"""Cross-checks of the block-Toeplitz projection solver.

The lag correlations are compared with direct sums, the projection
synthesis and the package's own fftconvolve with scipy's, the block
Levinson solve with a dense solve of the explicitly assembled Gram
matrix, and whole windows at J=4, C=2 with the SVD projections of
oracles.py.  Filter lengths on both sides of _DIRECT_MAX_LAG cover the
direct and the FFT paths.
"""

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from scipy.signal import fftconvolve

from separability import AudioClip, MetricConfig, ScoringReport, framewise_scores, metrics
from separability.metrics import (
    _DIRECT_MAX_LAG,
    _MIN_BLOCK,
    _block_toeplitz_solve,
    _lag_correlations,
    _levinson,
    _next_fast_len,
    _synthesize,
    fftconvolve as package_fftconvolve,
)

from oracles import block_lag_correlations, dense_metrics
from synth import fixture_stem


def direct_lags(x: np.ndarray, y: np.ndarray, flen: int) -> np.ndarray:
    """out[k, a, b] = sum_t x[a, t + k] y[b, t], one dot product per lag."""
    n = x.shape[1]
    return np.stack([x[:, k:] @ y[:, : n - k].T for k in range(flen)])


def assembled_gram(lags: np.ndarray) -> np.ndarray:
    """Delay-major Gram matrix, block (p, q) = lags[q - p], lags[-k] = lags[k].T."""
    flen, m, _ = lags.shape
    gram = np.empty((flen * m, flen * m))
    for p in range(flen):
        for q in range(flen):
            block = lags[q - p] if q >= p else lags[p - q].T
            gram[p * m : (p + 1) * m, q * m : (q + 1) * m] = block
    return gram


def correlated_signals(gen, m: int, n: int) -> np.ndarray:
    """Smoothed noise with some leakage between rows: a realistic, PD Gram."""
    x = gen.normal(size=(m, n))
    x[:, 1:] += 0.6 * x[:, :-1]
    if m > 1:
        x[1:] += 0.4 * x[:-1]
    return x


@pytest.mark.parametrize("flen", [1, 2, 7, _DIRECT_MAX_LAG, _DIRECT_MAX_LAG + 1, 64, 300])
@pytest.mark.parametrize("n", [20, 50, 1000])
def test_lag_correlations_match_direct_sums(flen, n):
    gen = np.random.Generator(np.random.PCG64(flen * 1000 + n))
    regs = gen.normal(size=(3, n))
    ests = gen.normal(size=(2, n))
    got = _lag_correlations(regs, ests, flen)
    want = direct_lags(np.concatenate([regs, ests]), regs, min(flen, n))
    assert got.shape == (flen, 5, 3)
    assert np.max(np.abs(got[: want.shape[0]] - want)) < 1e-12 * n
    assert np.max(np.abs(got[want.shape[0] :]), initial=0.0) < 1e-12 * n


@pytest.mark.parametrize("flen", [_DIRECT_MAX_LAG + 1, 300, 512])
def test_lag_correlations_keep_the_block_formula_bits(flen):
    """One transform of all rows, block segments built in place: the bits must not move."""
    gen = np.random.Generator(np.random.PCG64(flen))
    x = gen.normal(size=(16, 44100))
    want = block_lag_correlations(x, x[:8], flen, max(flen, _MIN_BLOCK))
    assert _lag_correlations(x[:8], x[8:], flen).tobytes() == want.tobytes()


@pytest.mark.parametrize("flen", [1, 2, _DIRECT_MAX_LAG, _DIRECT_MAX_LAG + 1, 64, 512])
@pytest.mark.parametrize("n", [1, 300, 1000, 1537])
def test_synthesis_matches_fftconvolve(flen, n):
    gen = np.random.Generator(np.random.PCG64(flen * 10000 + n))
    coef = gen.normal(size=(flen, 5, 3))
    regs = gen.normal(size=(5, n))
    got = _synthesize(coef, regs)
    want = fftconvolve(coef.transpose(2, 1, 0), regs[np.newaxis], axes=-1).sum(axis=1)
    assert got.shape == want.shape == (3, n + flen - 1)
    assert np.max(np.abs(got - want)) < 1e-12 * np.sqrt(flen * n)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("flen", [1, 2, _DIRECT_MAX_LAG, _DIRECT_MAX_LAG + 1, 64, 512])
@pytest.mark.parametrize("n", [1, 300, 1537, 44100])
def test_package_fftconvolve_is_scipys_bit_for_bit(flen, n):
    gen = np.random.Generator(np.random.PCG64(flen * 100000 + n))
    for n_regs in (1, 2, 3):
        filters = gen.normal(size=(n_regs, flen))
        regs = gen.normal(size=(n_regs, n))
        assert_same_bits(package_fftconvolve(filters, regs), fftconvolve(filters, regs, axes=-1))
        assert_same_bits(package_fftconvolve(regs, filters), fftconvolve(regs, filters, axes=-1))
        # _window_splits convolves (C, own, L) filters with (1, own, N) regressors.
        filters = gen.normal(size=(2, n_regs, flen))
        regs = regs[np.newaxis]
        assert_same_bits(package_fftconvolve(filters, regs), fftconvolve(filters, regs, axes=-1))


def test_next_fast_len_is_scipys():
    sizes = range(1, 100_001)
    got = [_next_fast_len(n) for n in sizes]
    assert got == [scipy.fft.next_fast_len(n, real=True) for n in sizes]


@pytest.mark.parametrize("flen", [1, 2, 7, 64])
@pytest.mark.parametrize("m", [1, 2, 8])
def test_solve_matches_dense_solve(m, flen):
    gen = np.random.Generator(np.random.PCG64(10 * m + flen))
    x = correlated_signals(gen, m, 2000)
    lags = direct_lags(x, x, flen)
    rhs = gen.normal(size=(flen, m, 3))
    got = _block_toeplitz_solve(lags, rhs)
    assert got is not None
    want = scipy.linalg.solve(assembled_gram(lags), rhs.reshape(flen * m, 3), assume_a="pos")
    want = want.reshape(flen, m, 3)
    assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))


def test_singular_gram_takes_dense_fallback():
    gen = np.random.Generator(np.random.PCG64(7))
    base = gen.normal(size=(1, 2000))
    x = np.concatenate([base, base, gen.normal(size=(1, 2000))])
    lags = direct_lags(x, x, 4)
    assert _levinson(lags) is None
    assert _block_toeplitz_solve(lags, gen.normal(size=(4, 3, 2))) is None

    # Through framewise_scores: the all-reference projection leaves the
    # block-Toeplitz path and the dense Cholesky needs its ridge.
    refs = [AudioClip(base, 44100), AudioClip(base.copy(), 44100)]
    ests = [AudioClip(base + gen.normal(0.0, 0.1, base.shape), 44100) for _ in refs]
    report = ScoringReport()
    frames = framewise_scores(refs, ests, MetricConfig(filter_length=4), report)
    assert frames[0].n_windows == 1
    assert (report.dense_fallback, report.ridge, report.lstsq) == (1, 1, 0)


def test_recursion_that_breaks_down_past_order_zero_takes_dense_fallback():
    # A copy delayed by 3 taps, with the original's last 3 samples zero so
    # the delay loses nothing: the regressors are independent up to
    # order 3 and exactly dependent from order 4 on.
    gen = np.random.Generator(np.random.PCG64(3))
    base = gen.normal(size=(1, 8000))
    base[:, -3:] = 0.0
    x = np.concatenate([base, np.roll(base, 3, axis=1)])
    lags = direct_lags(x, x, 16)
    assert _levinson(lags[:3]) is not None
    assert _levinson(lags[:4]) is None

    refs = [AudioClip(row[None], 8000) for row in x]
    ests = [AudioClip(r.samples + gen.normal(0.0, 0.1, r.samples.shape), 8000) for r in refs]
    report = ScoringReport()
    framewise_scores(refs, ests, MetricConfig(filter_length=16), report)
    # Rounding decides whether the dense Cholesky then needs its ridge.
    assert report.dense_fallback == 1


def four_stereo_stems(rate: int, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(J=4, C=2, n) fixture stems and estimates that leak, echo and hiss: a PD Gram."""
    n_src = 4
    gen = np.random.Generator(np.random.PCG64(21))
    refs = np.stack(
        [fixture_stem(gen, 0, j, n_samples, sample_rate=rate).samples for j in range(n_src)]
    )
    ests = np.empty_like(refs)
    for j in range(n_src):
        ests[j] = 0.8 * refs[j] + 0.2 * refs[(j + 1) % n_src] + gen.normal(0.0, 0.02, refs[j].shape)
        ests[j][:, 3:] += 0.1 * refs[j][:, :-3]
    return refs, ests


def scored(refs, ests, rate, flen):
    report = ScoringReport()
    frames = framewise_scores(
        [AudioClip(r, rate) for r in refs],
        [AudioClip(e, rate) for e in ests],
        MetricConfig(filter_length=flen),
        report,
    )
    return frames, report


def test_framewise_scores_match_dense_oracle_at_four_stereo_stems():
    rate = 4000
    refs, ests = four_stereo_stems(rate, rate)
    # One tap and the shortest FFT-path filter, then a longer one.
    for flen in (1, _DIRECT_MAX_LAG + 1, 64):
        frames, report = scored(refs, ests, rate, flen)
        assert report.windows_scored == 1 and report.dense_fallback == 0
        for j in range(len(refs)):
            want = dense_metrics(refs, ests[j], j, flen)
            for name, value in want.items():
                assert abs(frames[j].values(name)[0] - value) < 1e-6, (flen, j, name)


@pytest.mark.parametrize("flen", [1, _DIRECT_MAX_LAG + 1])
def test_a_solution_that_misses_the_normal_equations_takes_dense_fallback(monkeypatch, flen):
    # The recursion succeeds on this input; with no residual accepted, the
    # refined solution is refused and every window scores through the
    # dense Cholesky instead, to the same scores.
    rate = 4000
    refs, ests = four_stereo_stems(rate, 2 * rate)
    block_frames, block_report = scored(refs, ests, rate, flen)
    assert (block_report.windows_scored, block_report.dense_fallback) == (2, 0)

    monkeypatch.setattr(metrics, "_RESIDUAL_TOL", 0.0)
    frames, report = scored(refs, ests, rate, flen)
    assert report.dense_fallback == report.windows_scored == 2
    assert (report.ridge, report.lstsq) == (0, 0)
    for w in range(2):
        window = slice(w * rate, (w + 1) * rate)
        for j in range(len(refs)):
            want = dense_metrics(refs[:, :, window], ests[j][:, window], j, flen)
            for name, value in want.items():
                got = frames[j].values(name)[w]
                assert abs(got - block_frames[j].values(name)[w]) < 1e-6, (w, j, name)
                assert abs(got - value) < 1e-6, (w, j, name)
