"""Ideal-ratio-mask oracle separation.

Given the spectrograms of the true stems, each source's mask is its own
magnitude (raised to an exponent) divided by the sum over all stems.
Applying the masks to the mixture spectrogram and inverting yields the
best separation this mask family can deliver, independent of any trained
model.  Mask quality therefore reflects how much the stems overlap in
time-frequency, which is the quantity this package measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .audio import AudioClip, alignment_fault, frozen_array
from .errors import ConfigurationError, InvalidInputError
from .stft import Spectrogram, StftConfig, _by_frames, _frame_count, _padded_segment, istft, stft

# STFT frames each block of oracle_separate adds: about 1.5 s at hop 1024.
BLOCK_FRAMES = 64


@dataclass(frozen=True)
class OracleConfig:
    """Mask family parameters.

    alpha is the magnitude exponent: 1 gives magnitude-ratio masks, 2
    power-ratio masks.  Power masks are the default; they correspond to a
    Wiener-style local SNR weighting and separate overlapping content
    more aggressively.
    """

    alpha: float = 2.0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ConfigurationError(f"alpha must be finite and > 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class MaskSet:
    """Per-source ratio masks over one TF grid, with its framing and sample rate.

    masks has shape (sources, channels, frames, freqs), entries in [0, 1],
    and sums to one over the sources at every bin.  A bin where every
    source is exactly silent gets 1/n in each of the n masks.  That value
    changes no estimate: the oracle masks the sum of these same sources,
    which is exactly silent there too.  config and sample_rate are those
    of the spectrograms the masks were computed from.
    """

    masks: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self):
        layout = "masks must be (sources, channels, frames, freqs)"
        object.__setattr__(self, "masks", frozen_array(self.masks, np.float64, 4, layout))


def compute_irm(
    source_specs: Sequence[Spectrogram], config: OracleConfig = OracleConfig()
) -> MaskSet:
    """Ratio masks from the stem spectrograms, in stem order.

    All spectrograms must share one shape, framing configuration and sample rate.
    Raises :class:`InvalidInputError`, naming alpha, if |X|^alpha overflows.
    """
    if len(source_specs) == 0:
        raise InvalidInputError("need at least one source spectrogram")
    first = source_specs[0]
    if len({(spec.bins.shape, spec.config, spec.sample_rate) for spec in source_specs}) > 1:
        raise InvalidInputError("source spectrograms must share shape, configuration and sample rate")

    # |X_j|^alpha goes straight into its slot and becomes the mask in place.
    n = len(source_specs)
    masks = np.empty((n, *first.bins.shape))
    denom = np.empty(first.bins.shape)

    def ratios(run):
        block, total = masks[:, :, run], denom[:, run]
        # A helper thread starts at NumPy's default errstate, not the caller's.
        with np.errstate(over="raise"):
            for mask, spec in zip(block, source_specs):
                np.abs(spec.bins[:, run], out=mask)
                mask **= config.alpha
            block.sum(axis=0, out=total)
        with np.errstate(invalid="ignore", divide="ignore"):
            block /= total
        silent = total == 0.0
        if silent.any():
            block[:, silent] = 1.0 / n

    try:
        _by_frames(ratios, first.n_frames)
    except FloatingPointError:
        raise InvalidInputError(f"|X|^alpha overflows float64 at alpha={config.alpha}") from None
    return MaskSet(masks, first.config, first.sample_rate)


def apply_masks(mask_set: MaskSet, mixture_spec: Spectrogram) -> list[Spectrogram]:
    """Masked copies of the mixture spectrogram, one per source.

    The mixture spectrogram must have the masks' shape, framing configuration and sample rate.
    """
    built = (mask_set.masks.shape[1:], mask_set.config, mask_set.sample_rate)
    given = (mixture_spec.bins.shape, mixture_spec.config, mixture_spec.sample_rate)
    if built != given:
        raise InvalidInputError(
            "masks for shape {}, {} at {} Hz do not match the mixture spectrogram's "
            "shape {}, {} at {} Hz".format(*built, *given)
        )
    bins = mixture_spec.bins
    products = [np.empty(bins.shape, np.complex128) for _ in mask_set.masks]

    def mask_mixture(run):
        for mask, product in zip(mask_set.masks, products):
            np.multiply(mask[:, run], bins[:, run], out=product[:, run])

    _by_frames(mask_mixture, mixture_spec.n_frames)
    return [
        Spectrogram(
            product,
            mixture_spec.config,
            mixture_spec.original_length,
            mixture_spec.sample_rate,
        )
        for product in products
    ]


def oracle_separate(
    mixture: AudioClip,
    stems: Sequence[AudioClip],
    stft_config: StftConfig = StftConfig(),
    oracle_config: OracleConfig = OracleConfig(),
) -> list[AudioClip]:
    """Separate a mixture using masks derived from its true stems.

    Returns one estimate per stem, time-aligned with the inputs.

    The song is transformed, masked and inverted in blocks of
    ``BLOCK_FRAMES`` new frames, so the memory used beyond the inputs and
    the estimates does not grow with its length.  Consecutive blocks
    share the frames that overlap their boundary, and each block keeps
    only the samples whose covering frames all lie inside it.  A kept
    sample therefore sums the same frames in the same order, and is
    divided by the same squared-window sum, as with one whole-song
    transform: the estimates are bit-identical to it.
    """
    clips = {"mixture": mixture, **{f"stem {j}": s for j, s in enumerate(stems)}}
    if fault := alignment_fault(clips):
        raise InvalidInputError(fault)
    if mixture.n_samples == 0:
        raise InvalidInputError("cannot transform an empty clip")
    ws, hop, pad = stft_config.window_size, stft_config.hop_size, stft_config.pad
    block_config = replace(stft_config, center=False)
    n, rate = mixture.n_samples, mixture.sample_rate
    n_frames = _frame_count(n, stft_config)
    overlap = -(-ws // hop) - 1
    estimates = [np.empty((mixture.n_channels, n)) for _ in stems]

    # Positions below are on the padded axis, where sample i sits at pad + i.
    done, a = pad, 0
    while done < pad + n:
        b = min(a + overlap + BLOCK_FRAMES, n_frames)
        start, stop = a * hop, (b - 1) * hop + ws
        # Samples in [done, end) lie in no frame before a, which ends by
        # a * hop + ws - hop <= done, and in no frame from b on, which
        # starts at b * hop or later.
        end = pad + n if b == n_frames else min(b * hop, pad + n)
        mix_spec, *stem_specs = [
            stft(AudioClip(_padded_segment(clip.samples, start, stop, pad), rate), block_config)
            for clip in (mixture, *stems)
        ]
        # Each spectrogram is released as soon as nothing further needs it.
        mask_set = compute_irm(stem_specs, oracle_config)
        del stem_specs
        masked = apply_masks(mask_set, mix_spec)
        del mask_set, mix_spec
        for out in estimates:
            inverse = istft(masked.pop(0))
            out[:, done - pad : end - pad] = inverse.samples[:, done - start : end - start]
        done, a = end, b - overlap
    return [AudioClip(out, rate) for out in estimates]
