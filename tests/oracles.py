"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately brute force and shares no code with the
library: projections build the explicit delayed-copy matrix and go
through an SVD least-squares solve, correlations use the direct-formula
definitions, ranks are assigned by counting.  Slow is fine; different is
the point.  The exception is ``whole_song_oracle_separate``, which pins
how the oracle is blocked rather than the transforms it uses, and so
calls the package's own STFT, masks and inverse on the whole song.
``stacked_masks``, ``overlap_add_inverse``, ``full_overlap_cola`` and
``block_lag_correlations`` are the straightforward forms of the mask,
inverse-transform, overlap-add check and block-FFT correlation steps,
which the package computes in place, from a cached synthesis weight or
from only the frames that matter: each pair must agree bit for bit.
``entrywise_gram`` and ``copying_dense_solve`` are the same for the
dense projection's Gram matrix and its Cholesky, ridge and lstsq chain,
which the package factors in place.
"""

import math

import numpy as np
import scipy.linalg

from separability import OracleConfig, StftConfig, apply_masks, compute_irm, istft, stft
from separability.stft import window_values


def delayed_matrix(regressors: np.ndarray, flen: int) -> np.ndarray:
    """Columns are every regressor at every delay 0..flen-1, zero-padded."""
    m, n = regressors.shape
    total = n + flen - 1
    a = np.zeros((total, m * flen))
    for i in range(m):
        for tau in range(flen):
            a[tau : tau + n, i * flen + tau] = regressors[i]
    return a


def dense_project(regressors: np.ndarray, estimate: np.ndarray, flen: int) -> np.ndarray:
    """Least-squares projection of each estimate channel, via explicit lstsq."""
    estimate = np.atleast_2d(estimate)
    n = estimate.shape[1]
    total = n + flen - 1
    est_pad = np.zeros((estimate.shape[0], total))
    est_pad[:, :n] = estimate
    keep = [i for i in range(regressors.shape[0]) if np.any(regressors[i])]
    if not keep:
        return np.zeros_like(est_pad)
    a = delayed_matrix(regressors[keep], flen)
    coef, *_ = np.linalg.lstsq(a, est_pad.T, rcond=None)
    return (a @ coef).T


def dense_decompose(refs: np.ndarray, estimate: np.ndarray, target: int, flen: int):
    """(e_spat, e_interf, e_artif) on the padded domain, all via dense solves."""
    j, c, n = refs.shape
    total = n + flen - 1
    p_target = dense_project(refs[target], estimate, flen)
    p_all = dense_project(refs.reshape(j * c, n), estimate, flen)
    s_pad = np.zeros((c, total))
    s_pad[:, :n] = refs[target]
    e_pad = np.zeros((c, total))
    e_pad[:, :n] = estimate
    return p_target - s_pad, p_all - p_target, e_pad - p_all


def db(num: float, den: float, cap: float = 300.0) -> float:
    if num == 0.0:
        return -cap
    if den == 0.0:
        return cap
    return min(max(10.0 * math.log10(num / den), -cap), cap)


def bss_ratios(s, e_spat, e_interf, e_artif) -> dict:
    """SDR, ISR, SIR and SAR of one split, each from its own textbook formula."""

    def en(x):
        return float(np.sum(x**2))

    return {
        "sdr": db(en(s), en(e_spat + e_interf + e_artif)),
        "isr": db(en(s), en(e_spat)),
        "sir": db(en(s + e_spat), en(e_interf)),
        "sar": db(en(s + e_spat + e_interf), en(e_artif)),
    }


def dense_metrics(refs: np.ndarray, estimate: np.ndarray, target: int, flen: int):
    """The four decomposition metrics straight from the dense projections."""
    c, n = estimate.shape
    s = np.zeros((c, n + flen - 1))
    s[:, :n] = refs[target]
    return bss_ratios(s, *dense_decompose(refs, estimate, target, flen))


def direct_pearson(x, y) -> float:
    """Textbook covariance-over-sigmas formula, plain Python floats."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def counting_ranks(values) -> list:
    """Average fractional ranks by counting smaller and equal elements."""
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(smaller + (equal + 1) / 2.0)
    return ranks


def direct_spearman(x, y) -> float:
    return direct_pearson(counting_ranks(x), counting_ranks(y))


def whole_song_oracle_separate(
    mixture, stems, stft_config=StftConfig(), oracle_config=OracleConfig()
):
    """The oracle in one pass: whole-song spectrograms, masks and inverse."""
    mix_spec = stft(mixture, stft_config)
    stem_specs = [stft(s, stft_config) for s in stems]
    mask_set = compute_irm(stem_specs, oracle_config)
    return [istft(spec) for spec in apply_masks(mask_set, mix_spec)]


def stacked_masks(source_specs, config=OracleConfig()) -> np.ndarray:
    """Ratio masks the straightforward way: stack every |X_j|^alpha, then divide."""
    energies = np.stack([np.abs(spec.bins) ** config.alpha for spec in source_specs])
    denom = energies.sum(axis=0)
    silent = denom == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        masks = energies / denom
    masks[:, silent] = 1.0 / len(source_specs)
    return masks


def overlap_add_inverse(spec) -> np.ndarray:
    """Inverse transform that builds its squared-window sum on every call."""
    config = spec.config
    win = window_values(config)
    ws, hop = config.window_size, config.hop_size
    total = (spec.n_frames - 1) * hop + ws
    frames = np.fft.irfft(spec.bins, n=ws, axis=-1)
    frames *= win
    out = np.zeros((spec.n_channels, total))
    wsq = np.zeros(total)
    for t in range(spec.n_frames):
        out[:, t * hop : t * hop + ws] += frames[:, t, :]
        wsq[t * hop : t * hop + ws] += win**2
    covered = wsq > wsq.max() * 1e-12
    np.divide(out, wsq, out=out, where=covered)
    out[:, ~covered] = 0.0
    return out[:, config.pad : config.pad + spec.original_length]


def full_overlap_cola(config) -> tuple:
    """(passed, max_deviation, overlap_gain) from a whole overlap-add of frames.

    Overlap-adds ``size // hop + 3`` squared windows at the hop and reads
    positions [size, size + hop), which every frame that can touch them
    has reached.
    """
    size, hop = config.window_size, config.hop_size
    n_frames = size // hop + 3
    frame = window_values(config) ** 2
    wsq = np.zeros((n_frames - 1) * hop + size)
    for t in range(n_frames):
        wsq[t * hop : t * hop + size] += frame
    interior = wsq[size : size + hop]
    mean = float(interior.mean())
    deviation = float(interior.max() - interior.min()) / mean if mean > 0 else math.inf
    return deviation <= 1e-10, deviation, mean


def block_lag_correlations(x: np.ndarray, y: np.ndarray, max_lag: int, block: int) -> np.ndarray:
    """Lag correlations by the block-FFT formula, with whole-array temporaries."""
    n = x.shape[-1]
    n_blocks = -(-n // block)

    def spectra(s):
        padded = np.zeros((s.shape[0], (n_blocks + 1) * block))
        padded[:, :n] = s
        return np.fft.rfft(padded.reshape(s.shape[0], n_blocks + 1, block), 2 * block)

    fx = spectra(x)
    fy = spectra(y)[:, :n_blocks]
    sign = np.where(np.arange(block + 1) % 2, -1.0, 1.0)
    segments = fx[:, :-1] + sign * fx[:, 1:]
    cross = np.matmul(segments.transpose(2, 0, 1), fy.conj().transpose(2, 1, 0))
    return np.fft.irfft(cross, 2 * block, axis=0)[:max_lag]


def entrywise_gram(lags: np.ndarray) -> np.ndarray:
    """Regressor-major Gram, entry ((i, p), (j, q)) = <r_i delayed by p, r_j delayed by q>.

    For i <= j that is lags[p - q, j, i] when p >= q and lags[q - p, i, j]
    otherwise; the blocks below the diagonal mirror those above it.
    """
    flen, m, _ = lags.shape
    p, q = np.indices((flen, flen))
    gram = np.empty((m * flen, m * flen))
    for i in range(m):
        for j in range(i, m):
            block = np.where(p >= q, lags[np.abs(p - q), j, i], lags[np.abs(p - q), i, j])
            gram[i * flen : (i + 1) * flen, j * flen : (j + 1) * flen] = block
            gram[j * flen : (j + 1) * flen, i * flen : (i + 1) * flen] = block.T
    return gram


def copying_dense_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple:
    """(solution, ridge count, lstsq count) of Cholesky, then ridge, then lstsq.

    Every factorization gets a C-ordered matrix, which cho_factor copies
    into Fortran order before it factors.
    """
    try:
        factor = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False), 0, 0
    except scipy.linalg.LinAlgError:
        pass
    ridge = 1e-10 * np.trace(gram) / gram.shape[0]
    regularized = gram + ridge * np.eye(gram.shape[0])
    try:
        factor = scipy.linalg.cho_factor(regularized, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return np.linalg.lstsq(regularized, rhs, rcond=None)[0], 0, 1
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False), 1, 0
