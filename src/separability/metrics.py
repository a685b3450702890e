"""Separation quality metrics over least-squares error decompositions.

An estimate of one stem is split into the true image plus three error
terms: spatial distortion (what a short filter applied to the target
could still explain), interference (what filters on the other stems
explain on top of that), and artifacts (the remainder).  The split is a
pair of least-squares projections onto delayed copies of the reference
channels, so the three terms partition the estimate exactly.

SDR, ISR, SIR and SAR are energy ratios over that split.  SI-SDR skips
the decomposition and compares against the best scalar rescaling of the
reference.  All five are evaluated on short windows and reduced by
medians, which keeps a few degenerate windows from dominating a song.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

import numpy as np
import scipy.linalg

from .audio import AudioClip, alignment_fault
from .errors import ConfigurationError, InvalidInputError, SilentReferenceError

# Column order used everywhere scores are reported.
METRICS = ("si_sdr", "sdr", "sir", "isr", "sar")


@dataclass(frozen=True)
class MetricConfig:
    """The distortion filter length, plus the fixed scoring protocol.

    Songs are scored on back-to-back windows, a reference window whose
    mean square is below silence_threshold scores as missing, and ratios
    are clipped to +-db_cap dB.  The constants read like fields, so every
    output records them.
    """

    window_length: ClassVar[float] = 1.0
    window_hop: ClassVar[float] = 1.0
    silence_threshold: ClassVar[float] = 1e-12
    db_cap: ClassVar[float] = 300.0

    filter_length: int = 512

    def __post_init__(self):
        if self.filter_length < 1:
            raise ConfigurationError(f"filter_length must be >= 1, got {self.filter_length}")


@dataclass(frozen=True, eq=False)
class ErrorComponents:
    """Additive error split of one estimate against its reference set.

    All three arrays live on the padded domain of length N + L - 1 (the
    reach of an L-tap filter over an N-sample window), channels first.
    reference + e_spat + e_interf + e_artif reproduces the zero-padded
    estimate exactly, and e_artif is orthogonal to every delayed copy of
    every reference channel.
    """

    e_spat: np.ndarray
    e_interf: np.ndarray
    e_artif: np.ndarray

    def __post_init__(self):
        shapes = {self.e_spat.shape, self.e_interf.shape, self.e_artif.shape}
        if len(shapes) != 1 or self.e_spat.ndim != 2:
            raise InvalidInputError(f"component shapes disagree: {shapes}")

    @property
    def total_error(self) -> np.ndarray:
        return self.e_spat + self.e_interf + self.e_artif


def _mean_square(x: np.ndarray) -> float:
    return float(np.mean(x**2)) if x.size else 0.0


# Filters of at most this many taps take the direct paths of the lag
# correlations and the projection synthesis: one matrix product per lag
# or tap.  Longer ones take block FFTs, whose cost grows far slower with
# L; at J=4, C=2 and 1-second windows the two cross near L = 24-32.
_DIRECT_MAX_LAG = 24

# Shortest block of the block FFTs.  Blocks also span at least the
# filter length, so a lag below L only reaches into the next block; at
# short filters longer blocks amortize the per-block overhead.
_MIN_BLOCK = 256

# A prediction-error covariance of the block-Toeplitz recursion counts as
# positive definite when each Cholesky pivot keeps at least this share of
# its regressor's energy.  Exactly dependent regressors leave ~1e-16.
_PIVOT_FLOOR = 1e-10

# Largest accepted normal-equation residual of the block-Toeplitz solve,
# relative to |T| |x| + |b| per right-hand side.  Refined solutions of
# the fixture and benchmark windows reach ~1e-18.
_RESIDUAL_TOL = 1e-12


def _lag_correlations(regs: np.ndarray, ests: np.ndarray, max_lag: int) -> np.ndarray:
    """out[k, a, b] = sum_t x[a, t + k] * regs[b, t] for 0 <= k < max_lag, x = regs then ests.

    Signals are zero past their end.  Up to _DIRECT_MAX_LAG lags each is
    one matrix product.  Beyond, all rows are cut into blocks of B >= max_lag
    samples and transformed once; regs' block b only meets x's blocks b and
    b + 1 at those lags, so every pair costs a sum of 2B-point spectra.
    """
    m, n = regs.shape
    if max_lag <= _DIRECT_MAX_LAG:
        x = np.concatenate([regs, ests])
        out = np.zeros((max_lag, x.shape[0], m))
        for k in range(min(max_lag, n)):
            out[k] = x[:, k:] @ regs[:, : n - k].T
        return out
    block = max(max_lag, _MIN_BLOCK)
    n_blocks = -(-n // block)
    padded = np.zeros((m + ests.shape[0], (n_blocks + 1) * block))
    padded[:m, :n] = regs
    padded[m:, :n] = ests
    fx = np.fft.rfft(padded.reshape(len(padded), n_blocks + 1, block), 2 * block)
    fy = np.conjugate(fx[:m, :n_blocks])
    # Spectrum of the 2B-sample stretch of x starting at each block: the
    # next block enters delayed by B, a factor (-1)^f on a 2B-point grid.
    # Built in place one block at a time, so block b + 1 is still x's own
    # spectrum when block b adds it.
    sign = np.where(np.arange(block + 1) % 2, -1.0, 1.0)
    for b in range(n_blocks):
        fx[:, b] += sign * fx[:, b + 1]
    cross = np.matmul(fx[:, :-1].transpose(2, 0, 1), fy.transpose(2, 1, 0))
    return np.fft.irfft(cross, 2 * block, axis=0)[:max_lag]


def _synthesize(coef: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """out[c, t] = sum_(k, i) coef[k, i, c] regs[i, t - k] for 0 <= t < n + L - 1.

    coef is (L, m, r) and regs (m, n): r outputs, each a sum of L-tap
    filtered regressors.  Up to _DIRECT_MAX_LAG taps each tap is one
    matrix product.  Beyond, overlap-add over blocks of B = max(L, 256)
    samples at 2B points, summing over regressors in the frequency
    domain, so only r inverse transforms per block remain.
    """
    flen, m, n_out = coef.shape
    n = regs.shape[-1]
    if flen <= _DIRECT_MAX_LAG:
        out = np.zeros((n_out, n + flen - 1))
        for k in range(flen):
            out[:, k : k + n] += coef[k].T @ regs
        return out
    block = max(flen, _MIN_BLOCK)
    n_blocks = -(-n // block)
    padded = np.zeros((m, n_blocks * block))
    padded[:, :n] = regs
    spectra = np.fft.rfft(padded.reshape(m, n_blocks, block), 2 * block)
    filters = np.fft.rfft(coef, 2 * block, axis=0)
    # (f, block, r) -> (r, block, 2B): each block's filtered sum, at most
    # B + L - 1 <= 2B - 1 samples long, so the 2B-point product is linear.
    segments = np.fft.irfft((spectra.transpose(2, 1, 0) @ filters).transpose(2, 1, 0), 2 * block)
    out = np.zeros((n_out, n_blocks + 1, block))
    out[:, :-1] += segments[..., :block]
    out[:, 1:] += segments[..., block:]
    return out.reshape(n_out, -1)[:, : n + flen - 1]


def fftconvolve(in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """Full linear convolution of two broadcastable arrays along the last axis.

    Takes the steps of ``scipy.signal.fftconvolve(in1, in2, axes=-1)``, so
    it returns the same bits, without importing ``scipy.signal`` and the
    subpackages behind it (most of the package's start-up time).  Since
    NumPy 2.0, ``np.fft`` runs the same pocketfft code as SciPy's FFTs.
    A length-1 last axis needs no transform: the result is the broadcast
    product, as SciPy's.
    """
    n1, n2 = in1.shape[-1], in2.shape[-1]
    if n1 == 1 or n2 == 1:
        return in1 * in2
    n = n1 + n2 - 1
    nfft = _next_fast_len(n)
    spectrum = np.fft.rfft(in1, nfft) * np.fft.rfft(in2, nfft)
    return np.fft.irfft(spectrum, nfft)[..., :n].copy()


def _next_fast_len(n: int) -> int:
    """The smallest integer >= n whose only prime factors are 2, 3 and 5.

    SciPy's ``next_fast_len(n, real=True)``: the real-input transform
    sizes its FFTs run fastest at.
    """
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 doubled until it reaches n.
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lower(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(L(g) y)[p] = sum_(k <= p) g[k] y[p - k]: lower block-triangular Toeplitz times y.

    g is (L, m, m), y (L, m, r); a block convolution through the FFT.
    """
    flen = y.shape[0]
    nfft = _next_fast_len(2 * flen - 1)
    spectrum = np.fft.rfft(g, nfft, axis=0) @ np.fft.rfft(y, nfft, axis=0)
    return np.fft.irfft(spectrum, nfft, axis=0)[:flen]


def _upper(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L(g)^T y, i.e. out[q] = sum_k g[k]^T y[q + k]."""
    return _lower(g.transpose(0, 2, 1), y[::-1])[::-1]


def _toeplitz_matvec(lags: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric block-Toeplitz T[p, q] = lags[q - p], lags[-k] = lags[k].T."""
    g = lags.transpose(0, 2, 1)
    return _upper(g, x) + _lower(g, x) - g[0] @ x


def _inverse_covariances(covs: np.ndarray, energy: np.ndarray) -> np.ndarray | None:
    """Inverses of the stacked error covariances, or None if one is not
    positive definite: a Cholesky pivot below _PIVOT_FLOOR times its
    regressor's energy counts as zero."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(covs), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        return None
    if np.any(pivots < _PIVOT_FLOOR * energy):
        return None
    return np.linalg.inv(covs)


def _levinson(lags: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Block predictors of T by the Whittle / Wiggins-Robinson recursion.

    T is symmetric block Toeplitz, T[p, q] = lags[q - p] for m x m lag
    blocks lags (L, m, m), lags[-k] = lags[k].T.  Returns the forward
    predictor A and backward predictor B, both (L, m, m), with
    T A = [V_f, 0, ..., 0], A[0] = I, T B = [0, ..., 0, V_b], B[-1] = I,
    and the stacked inverses of V_f and V_b.  The order grows one block
    at a time; None when a prediction-error covariance is not
    numerically positive definite.
    """
    flen, m, _ = lags.shape
    energy = np.diagonal(lags[0])
    # Columns [(L-1-n) m, (L-1) m) hold [T_n^T ... T_1^T].
    past = lags[::-1].transpose(2, 0, 1).reshape(m, flen * m)
    # B of order n sits in the last n blocks of its buffer, so the zero
    # block above it makes the shifted B the next order needs.
    fwd = np.zeros((flen * m, m))
    back = np.zeros((flen * m, m))
    fwd[:m] = back[-m:] = np.eye(m)
    covs = np.stack([lags[0], lags[0].T])  # forward, backward
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    inverses = _inverse_covariances(covs, energy)
    if inverses is None:
        return None
    for n in range(1, flen):
        delta = past[:, (flen - 1 - n) * m : (flen - 1) * m] @ fwd[: n * m]
        alpha = -inverses[1] @ delta
        beta = -inverses[0] @ delta.T
        # A += (shifted B) alpha and B += A beta, both from the old values.
        shifted = back[-(n + 1) * m :]
        from_fwd = fwd[: (n + 1) * m] @ beta
        fwd[: (n + 1) * m] += shifted @ alpha
        shifted += from_fwd
        covs[0] += delta.T @ alpha
        covs[1] += delta @ beta
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        inverses = _inverse_covariances(covs, energy)
        if inverses is None:
            return None
    return fwd.reshape(flen, m, m), back.reshape(flen, m, m), inverses


def _apply_inverse(predictors, v: np.ndarray) -> np.ndarray:
    """T^-1 v by the block Gohberg-Semencul formula.

    T^-1 = L(A) V_f^-1 L(A)^T - L(B') V_b^-1 L(B')^T, with L(.) the lower
    block-triangular Toeplitz matrix of a block column and
    B' = [0, B[0], ..., B[L-2]].
    """
    a, b, inverses = predictors
    b_shifted = np.concatenate([np.zeros_like(b[:1]), b[:-1]])
    return _lower(a, inverses[0] @ _upper(a, v)) - _lower(
        b_shifted, inverses[1] @ _upper(b_shifted, v)
    )


def _block_toeplitz_solve(lags: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve T x = rhs (both (L, m, r), delay-major) through the block predictors.

    One step of iterative refinement follows the first solve.  Returns
    None when the recursion breaks down or the refined solution misses
    the normal equations by more than _RESIDUAL_TOL.
    """
    predictors = _levinson(lags)
    if predictors is None:
        return None
    x = _apply_inverse(predictors, rhs)
    x += _apply_inverse(predictors, rhs - _toeplitz_matvec(lags, x))
    residual = rhs - _toeplitz_matvec(lags, x)
    # Per right-hand side; the sum of absolute lag entries bounds |T|.
    norm_t = np.sum(np.abs(lags[0])) + 2.0 * np.sum(np.abs(lags[1:]))
    scale = norm_t * np.linalg.norm(x, axis=(0, 1)) + np.linalg.norm(rhs, axis=(0, 1))
    if np.any(np.linalg.norm(residual, axis=(0, 1)) > _RESIDUAL_TOL * scale):
        return None
    return x


def _full_length_lags(regs: np.ndarray, flen: int) -> np.ndarray:
    """Lag blocks as the dense path has always built them: one circular
    correlation per regressor pair over a power-of-two FFT.

    The dense Gram keeps these exact bits.  On a numerically singular
    Gram rounding decides whether Cholesky succeeds or the ridge runs,
    and ulp-level changes there move scores by whole decibels.
    """
    m, n = regs.shape
    nfft = 1 << (n + flen - 2).bit_length()
    spectra = np.fft.rfft(regs, nfft, axis=-1)
    lags = np.empty((flen, m, m))
    for i in range(m):
        for j in range(i, m):
            corr = np.fft.irfft(spectra[i] * np.conj(spectra[j]), nfft)
            lags[:, i, j] = corr[:flen]
            lags[:, j, i] = np.concatenate(([corr[0]], corr[-1:-flen:-1]))
    return lags


def _gram(lags: np.ndarray) -> np.ndarray:
    """Dense, exactly symmetric Gram matrix in regressor-major order from (L, m, m) lag blocks."""
    flen, m, _ = lags.shape
    gram = np.empty((m * flen, m * flen))
    for i in range(m):
        for j in range(i, m):
            block = scipy.linalg.toeplitz(lags[:, j, i], lags[:, i, j])
            gram[i * flen : (i + 1) * flen, j * flen : (j + 1) * flen] = block
            if i != j:  # toeplitz(c, c) is already symmetric
                gram[j * flen : (j + 1) * flen, i * flen : (i + 1) * flen] = block.T
            # Freed before the next block is built.  The mirror reads the block
            # itself: read from its slot in the Gram it took twice as long at 8 rows.
            del block
    return gram


def _dense_solve(lags: np.ndarray, rhs: np.ndarray, report: ScoringReport) -> np.ndarray:
    """Cholesky solve of the normal equations of _gram(lags), then ridge, then lstsq.

    rhs and the solution are (L, m, r), delay-major.  Each attempt factors a fresh Gram's
    transpose, Fortran-ordered, in place.  A ridge or lstsq that runs is counted in ``report``.
    """
    flen, m, n_out = rhs.shape
    rhs = rhs.transpose(1, 0, 2).reshape(m * flen, n_out)
    gram = _gram(lags)
    ridge = 1e-10 * np.trace(gram) / gram.shape[0]
    for attempt in range(2):
        try:
            factor = scipy.linalg.cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            del gram  # the traceback still holds it until this block is left
        else:
            report.ridge += attempt
            x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            break
        gram = _gram(lags)
        gram.flat[:: gram.shape[0] + 1] += ridge
    else:
        report.lstsq += 1
        x = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return x.reshape(m, flen, n_out).transpose(1, 0, 2)


def _window_splits(
    refs: np.ndarray,
    ests: np.ndarray,
    targets: Sequence[int],
    filter_length: int,
    report: ScoringReport,
) -> Iterator[tuple[np.ndarray, ErrorComponents]]:
    """The error split of each target's estimate in one window.

    refs is (J, C, N); ests[t] (C, N) estimates refs[targets[t]], and
    every target is above the silence threshold.  Each estimate is
    projected onto L-tap filtered copies of every reference channel and
    of its target's channels; all Gram entries and right-hand sides come
    from one set of lag correlations.  Yields (zero-padded target,
    ErrorComponents) per target, in order, and counts into ``report`` a
    dense fallback when the all-reference projection leaves the
    block-Toeplitz solve, and every ridge or lstsq last resort.
    """
    n_src, n_ch, n = refs.shape
    flen = filter_length
    n_out = len(targets) * n_ch
    flat = refs.reshape(n_src * n_ch, n)
    # Silent rows span nothing; dropping them keeps the Gram matrix from
    # being structurally singular.
    keep = np.flatnonzero(flat.any(axis=1))
    regs = flat[keep]
    m = keep.size
    corr = _lag_correlations(regs, ests.reshape(n_out, n), flen)
    auto = corr[:, :m]  # auto[k, i, j] = sum_t r_i[t + k] r_j[t]
    cross = corr[:, m:].transpose(0, 2, 1)  # cross[k, i, c] = sum_t e_c[t + k] r_i[t]

    coef = _block_toeplitz_solve(auto, cross)
    if coef is None:
        report.dense_fallback += 1
        coef = _dense_solve(_full_length_lags(regs, flen), cross, report)
    p_all = _synthesize(coef, regs).reshape(len(targets), n_ch, -1)

    for t, j in enumerate(targets):
        own = np.flatnonzero(keep // n_ch == j)
        channels = slice(t * n_ch, (t + 1) * n_ch)
        filt = _dense_solve(auto[:, own][:, :, own], cross[:, own, channels], report)
        p_target = fftconvolve(filt.transpose(2, 1, 0), regs[own][np.newaxis]).sum(axis=1)
        s = _zero_padded(refs[j], p_all.shape[-1])
        yield s, ErrorComponents(
            e_spat=p_target - s,
            e_interf=p_all[t] - p_target,
            e_artif=_zero_padded(ests[t], p_all.shape[-1]) - p_all[t],
        )


def _stacked(references: Sequence[AudioClip], estimate: AudioClip) -> np.ndarray:
    if len(references) == 0:
        raise InvalidInputError("need at least one reference")
    clips = {"estimate": estimate, **{f"reference {j}": r for j, r in enumerate(references)}}
    if fault := alignment_fault(clips):
        raise InvalidInputError(fault)
    return np.stack([ref.samples for ref in references])


def _zero_padded(x: np.ndarray, length: int) -> np.ndarray:
    """x zero-extended to ``length`` samples; x itself when it already has them."""
    if x.shape[1] == length:
        return x
    out = np.zeros((x.shape[0], length))
    out[:, : x.shape[1]] = x
    return out


def decompose(
    references: Sequence[AudioClip],
    estimate: AudioClip,
    target_index: int,
    config: MetricConfig = MetricConfig(),
    report: ScoringReport | None = None,
) -> ErrorComponents:
    """Split ``estimate`` into spatial, interference and artifact errors.

    ``references`` holds every true stem; ``target_index`` names the one
    the estimate is supposed to reconstruct.  A ``report``, when given,
    counts the solver fallbacks of this split, as framewise_scores does.

    Raises
    ------
    SilentReferenceError
        If the target reference falls below the silence threshold; the
        caller should record a missing score for this window.
    """
    refs = _stacked(references, estimate)
    if not 0 <= target_index < len(references):
        raise InvalidInputError(f"target_index {target_index} out of range")
    if _mean_square(refs[target_index]) < config.silence_threshold:
        raise SilentReferenceError(f"reference {target_index} is silent in this window")
    # One target, so the kernel yields one split.
    ests = estimate.samples[np.newaxis]
    report = ScoringReport() if report is None else report
    return next(_window_splits(refs, ests, [target_index], config.filter_length, report))[1]


def _db_ratio(num: float, den: float) -> float:
    cap = MetricConfig.db_cap
    if num == 0.0:
        return -cap
    if den == 0.0:
        return cap
    return float(min(max(10.0 * math.log10(num / den), -cap), cap))


def _padded_target(components: ErrorComponents, reference: AudioClip) -> np.ndarray:
    total = components.e_spat.shape[-1]
    if reference.n_channels != components.e_spat.shape[0] or reference.n_samples > total:
        raise InvalidInputError("reference does not match the decomposition domain")
    return _zero_padded(reference.samples, total)


def _energy(x: np.ndarray) -> float:
    return float(np.sum(x**2))


def _ratios(s: np.ndarray, components: ErrorComponents) -> dict[str, float]:
    """SDR, ISR, SIR and SAR in dB against the zero-padded target s; NaN if s is silent.

    Each sum of components and each energy is computed once.
    """
    target = _energy(s)
    if target == 0.0:
        return dict.fromkeys(("sdr", "isr", "sir", "sar"), math.nan)
    spatial = s + components.e_spat
    return {
        "sdr": _db_ratio(target, _energy(components.total_error)),
        "isr": _db_ratio(target, _energy(components.e_spat)),
        "sir": _db_ratio(_energy(spatial), _energy(components.e_interf)),
        "sar": _db_ratio(_energy(spatial + components.e_interf), _energy(components.e_artif)),
    }


def sdr(components: ErrorComponents, reference: AudioClip) -> float:
    """Ratio of target energy to total error energy, in dB."""
    return _ratios(_padded_target(components, reference), components)["sdr"]


def isr(components: ErrorComponents, reference: AudioClip) -> float:
    """Ratio of target energy to spatial-distortion energy, in dB."""
    return _ratios(_padded_target(components, reference), components)["isr"]


def sir(components: ErrorComponents, reference: AudioClip) -> float:
    """Ratio of spatially-distorted target energy to interference energy, in dB."""
    return _ratios(_padded_target(components, reference), components)["sir"]


def sar(components: ErrorComponents, reference: AudioClip) -> float:
    """Ratio of artifact-free estimate energy to artifact energy, in dB."""
    return _ratios(_padded_target(components, reference), components)["sar"]


def si_sdr(estimate: AudioClip, reference: AudioClip) -> float:
    """Scale-invariant SDR: SDR against the best scalar rescaling of the reference.

    Channels are concatenated into one vector before the inner products.
    Returns NaN (missing) for a zero reference and -MetricConfig.db_cap
    for a zero estimate, whose best rescaling of the reference is zero.
    """
    if fault := alignment_fault({"estimate": estimate, "reference": reference}):
        raise InvalidInputError(fault)
    s = reference.samples.ravel()
    e = estimate.samples.ravel()
    s_energy = float(np.dot(s, s))
    if s_energy == 0.0:
        return math.nan
    alpha = float(np.dot(e, s)) / s_energy
    target = alpha * s
    return _db_ratio(float(np.dot(target, target)), _energy(target - e))


@dataclass(frozen=True, eq=False)
class FrameScores:
    """Per-window metric values for one instrument; NaN marks missing windows."""

    si_sdr: np.ndarray
    sdr: np.ndarray
    sir: np.ndarray
    isr: np.ndarray
    sar: np.ndarray

    def __post_init__(self):
        lengths = {getattr(self, name).shape for name in METRICS}
        if len(lengths) != 1 or self.si_sdr.ndim != 1:
            raise InvalidInputError(f"metric arrays disagree in shape: {lengths}")

    @property
    def n_windows(self) -> int:
        return self.si_sdr.shape[0]

    def values(self, metric: str) -> np.ndarray:
        if metric not in METRICS:
            raise InvalidInputError(f"unknown metric {metric!r}")
        return getattr(self, metric)


def _window_bounds(n_samples: int, sample_rate: int) -> list[tuple[int, int]]:
    """Back-to-back windows of MetricConfig.window_length seconds."""
    win = round(MetricConfig.window_length * sample_rate)
    if n_samples < win:
        # Too short to fill one window: score the whole signal at once.
        return [(0, n_samples)]
    return [(start, start + win) for start in range(0, n_samples - win + 1, win)]


@dataclass
class ScoringReport:
    """Deterministic accounting, added to by every scoring call it is passed to.

    silent_windows[j] counts the windows where stem j fell below the
    silence threshold (its missing scores).  The window kernel counts
    the solver fallbacks as they happen: dense_fallback the windows whose
    all-reference projection left the block-Toeplitz solve for the dense
    Cholesky, ridge and lstsq the dense solves, all-reference or
    target-only, that needed those last resorts.
    """

    windows_scored: int = 0
    silent_windows: list[int] = field(default_factory=list)
    tail_samples_unscored: int = 0
    dense_fallback: int = 0
    ridge: int = 0
    lstsq: int = 0


def framewise_scores(
    references: Sequence[AudioClip],
    estimates: Sequence[AudioClip],
    config: MetricConfig = MetricConfig(),
    report: ScoringReport | None = None,
) -> list[FrameScores]:
    """All five metrics on every evaluation window, one FrameScores per stem.

    Windows where a stem's reference is silent are missing (NaN) for that
    stem.  references[j] and estimates[j] describe the same instrument.
    A ``report``, when given, adds this call's window and solver counts
    to its own (silent_windows sized to the stem count on first use), so
    one report can span several calls on the same stems.
    """
    if len(references) != len(estimates):
        raise InvalidInputError(
            f"{len(references)} references for {len(estimates)} estimates"
        )
    if len(references) == 0:
        raise InvalidInputError("need at least one reference/estimate pair")
    clips = {f"reference {j}": r for j, r in enumerate(references)}
    if fault := alignment_fault(clips | {f"estimate {j}": e for j, e in enumerate(estimates)}):
        raise InvalidInputError(fault)
    first = references[0]

    n_sources = len(references)
    bounds = _window_bounds(first.n_samples, first.sample_rate)
    columns: dict[str, np.ndarray] = {
        name: np.full((n_sources, len(bounds)), math.nan) for name in METRICS
    }
    if report is None:
        report = ScoringReport()
    report.silent_windows = report.silent_windows or [0] * n_sources
    if len(report.silent_windows) != n_sources:
        raise InvalidInputError(f"report has {len(report.silent_windows)} stems, not {n_sources}")
    report.tail_samples_unscored += first.n_samples - bounds[-1][1]

    rate = first.sample_rate
    for w, (start, stop) in enumerate(bounds):
        # The one copy of each window; everything below works on views of it.
        refs = np.stack([ref.samples[:, start:stop] for ref in references])
        active = []
        for j in range(n_sources):
            if _mean_square(refs[j]) >= config.silence_threshold:
                active.append(j)
            else:
                report.silent_windows[j] += 1
        if not active:
            continue
        report.windows_scored += 1
        ests = np.stack([estimates[j].samples[:, start:stop] for j in active])
        splits = _window_splits(refs, ests, active, config.filter_length, report)
        for t, (s_true, comp) in enumerate(splits):
            j = active[t]
            columns["si_sdr"][j, w] = si_sdr(AudioClip(ests[t], rate), AudioClip(refs[j], rate))
            for name, value in _ratios(s_true, comp).items():
                columns[name][j, w] = value

    return [
        FrameScores(**{name: columns[name][j] for name in METRICS})
        for j in range(n_sources)
    ]


def median_ignoring_missing(values: np.ndarray) -> float:
    """Median over non-missing entries; NaN when everything is missing.

    Even counts take the mean of the two middle values.
    """
    values = np.asarray(values, dtype=np.float64)
    kept = values[~np.isnan(values)]
    if kept.size == 0:
        return math.nan
    return float(np.median(kept))


def aggregate_song(frames: FrameScores) -> dict[str, float]:
    """Median over windows for each metric, skipping missing windows."""
    return {name: median_ignoring_missing(frames.values(name)) for name in METRICS}
