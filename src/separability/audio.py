"""Time-domain audio container, and the rule for clips processed together."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


def is_integer(value) -> bool:
    """Whether value is an int or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def frozen_array(value, dtype, ndim: int, layout: str) -> np.ndarray:
    """value as a read-only C-contiguous array of dtype and rank ndim; copies only when it must."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{layout}, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Multichannel PCM audio held as float64, shape (channels, samples).

    Samples are dimensionless amplitudes, nominally within [-1, 1] but not
    clipped; mixtures of several stems may exceed full scale.  NaN and
    infinite samples are rejected, so every computation downstream may
    assume finite input.  The array is marked read-only after
    construction so clips can be shared freely between threads and
    processes.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.expand_dims(self.samples, 0) if np.ndim(self.samples) == 1 else self.samples
        arr = frozen_array(samples, np.float64, 2, "samples must be 1-D or (channels, samples)")
        if not np.isfinite(arr).all():
            raise InvalidInputError("samples must be finite; found NaN or infinite values")
        if not is_integer(self.sample_rate) or self.sample_rate <= 0:
            raise InvalidInputError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def rms(self) -> float:
        """Root-mean-square amplitude over all channels and samples."""
        if self.samples.size == 0:
            return 0.0
        return float(np.sqrt(np.mean(np.square(self.samples))))

    def scaled(self, gain: float) -> "AudioClip":
        return AudioClip(self.samples * float(gain), self.sample_rate)

    def window(self, start: int, stop: int) -> "AudioClip":
        """Return the sample range [start, stop) as a new clip."""
        if not (0 <= start <= stop <= self.n_samples):
            raise InvalidInputError(
                f"window [{start}, {stop}) outside clip of {self.n_samples} samples"
            )
        return AudioClip(self.samples[:, start:stop].copy(), self.sample_rate)


def alignment_fault(clips: dict[str, AudioClip]) -> str | None:
    """Why the named clips differ in length, channel count or sample rate, or None.

    Clips processed together are compared sample for sample, so they must share all three.
    """
    if len({(c.n_samples, c.n_channels, c.sample_rate) for c in clips.values()}) <= 1:
        return None
    return "misaligned tracks: " + "; ".join(
        f"{name}: {c.n_samples} samples, {c.n_channels} ch, {c.sample_rate} Hz"
        for name, c in clips.items()
    )
