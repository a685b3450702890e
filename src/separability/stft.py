"""Short-time Fourier transform with exact overlap-add inversion.

The analysis and synthesis stages share one window.  Synthesis multiplies
each inverse-transformed frame by the window again and divides the
overlap-added result by the accumulated squared window, which makes the
round trip exact (to rounding) for every configuration whose squared
window tiles the time axis at the chosen hop.  That tiling property is
enforced up front by :func:`check_cola`.
"""

from __future__ import annotations

import contextvars
import functools
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .audio import AudioClip, frozen_array, is_integer
from .errors import ConfigurationError, InvalidInputError

WINDOW_KINDS = ("hann", "rect")

# Relative deviation above which the squared-window overlap sum is no
# longer considered constant.
COLA_TOLERANCE = 1e-10


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for the forward and inverse transform.

    The default 4096/1024 periodic-Hann configuration is the usual choice
    for 44.1 kHz separation work; nothing in the package depends on it
    beyond being a valid overlap-add pair.
    """

    window_size: int = 4096
    hop_size: int = 1024
    window_kind: str = "hann"
    center: bool = True

    def __post_init__(self):
        if not (is_integer(self.window_size) and is_integer(self.hop_size)):
            raise ConfigurationError(
                f"window_size and hop_size must be integers, got {self.window_size!r} "
                f"and {self.hop_size!r}"
            )
        if self.window_size < 2:
            raise ConfigurationError(f"window_size must be >= 2, got {self.window_size}")
        if not 0 < self.hop_size <= self.window_size:
            raise ConfigurationError(
                f"hop_size must satisfy 0 < hop <= window_size, got hop={self.hop_size} "
                f"window={self.window_size}"
            )
        if self.window_kind not in WINDOW_KINDS:
            raise ConfigurationError(
                f"unknown window_kind {self.window_kind!r}; expected one of {WINDOW_KINDS}"
            )

    @property
    def n_bins(self) -> int:
        """One-sided bin count of the real-input transform."""
        return self.window_size // 2 + 1

    @property
    def pad(self) -> int:
        return self.window_size // 2 if self.center else 0


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Complex TF representation, bins indexed [channel, frame, frequency]."""

    bins: np.ndarray
    config: StftConfig
    original_length: int
    sample_rate: int

    def __post_init__(self):
        arr = frozen_array(self.bins, np.complex128, 3, "bins must be (channels, frames, freqs)")
        if arr.shape[2] != self.config.n_bins:
            raise InvalidInputError(
                f"frequency count {arr.shape[2]} does not match config ({self.config.n_bins} bins)"
            )
        object.__setattr__(self, "bins", arr)

    @property
    def n_channels(self) -> int:
        return self.bins.shape[0]

    @property
    def n_frames(self) -> int:
        return self.bins.shape[1]

    @property
    def n_bins(self) -> int:
        return self.bins.shape[2]


@dataclass(frozen=True)
class ColaReport:
    """Outcome of the overlap-add tiling check for one configuration."""

    passed: bool
    max_deviation: float
    overlap_gain: float


@functools.lru_cache(maxsize=64)
def window_values(config: StftConfig) -> np.ndarray:
    """Window taper for the given configuration (read-only array)."""
    if config.window_kind == "hann":
        # Periodic form: tiles exactly at hop = size/m for integer m >= 3.
        n = np.arange(config.window_size)
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / config.window_size)
    else:
        win = np.ones(config.window_size)
    win.setflags(write=False)
    return win


@functools.lru_cache(maxsize=64)
def check_cola(config: StftConfig) -> ColaReport:
    """Check that the squared window sums to a constant at the config's hop."""
    size, hop = config.window_size, config.hop_size
    # Positions [size, size + hop) stand for the infinite interior: they see
    # every frame starting at hop, 2 hop, ... below size + hop, added here
    # in frame order, and no other.
    wsq = window_values(config) ** 2
    interior = np.zeros(hop)
    for start in range(hop, size + hop, hop):
        lo = max(start - size, 0)
        interior[lo:] += wsq[size + lo - start : size + hop - start]
    mean = float(interior.mean())
    deviation = float(interior.max() - interior.min()) / mean if mean > 0 else math.inf
    return ColaReport(passed=deviation <= COLA_TOLERANCE, max_deviation=deviation, overlap_gain=mean)


def require_cola(config: StftConfig) -> None:
    """Raise ConfigurationError unless ``config`` satisfies constant overlap-add."""
    report = check_cola(config)
    if not report.passed:
        raise ConfigurationError(
            f"window {config.window_kind!r} size {config.window_size} does not satisfy "
            f"constant overlap-add at hop {config.hop_size} "
            f"(relative deviation {report.max_deviation:.3e})"
        )


def _padded_segment(samples: np.ndarray, start: int, stop: int, pad: int) -> np.ndarray:
    """Samples [start, stop) of the signal the forward transform frames.

    That signal is ``samples`` center-padded by ``pad`` samples at each
    end, by reflection degrading to zeros for very short input, then
    zero-extended.  Only the part of [start, stop) that lies outside the
    samples is built; a range inside them comes back as a view.
    """
    n = samples.shape[-1]
    lo, hi = start - pad, stop - pad
    if 0 <= lo and hi <= n:
        return samples[:, lo:hi]
    out = np.zeros((samples.shape[0], hi - lo))
    a, b = max(lo, 0), min(hi, n)
    if a < b:
        out[:, a - lo : b - lo] = samples[:, a:b]
    k = min(pad, n - 1)
    # Index i < 0 mirrors sample -i; index i >= n mirrors sample 2(n - 1) - i.
    a, b = max(lo, -k), min(hi, 0)
    if a < b:
        out[:, a - lo : b - lo] = samples[:, 1 - b : 1 - a][:, ::-1]
    a, b = max(lo, n), min(hi, n + k)
    if a < b:
        out[:, a - lo : b - lo] = samples[:, 2 * n - 1 - b : 2 * n - 1 - a][:, ::-1]
    return out


def _frame_count(n_samples: int, config: StftConfig) -> int:
    """Frames the forward transform takes from ``n_samples`` of input."""
    reach = max(n_samples + 2 * config.pad - config.window_size, 0)
    return -(-reach // config.hop_size) + 1


# The block-streamed oracle inverts every full block at one frame count and
# the song's last block at another, so a few entries serve it; each holds
# about nine bytes per synthesized sample.
@functools.lru_cache(maxsize=4)
def _synthesis_weight(
    config: StftConfig, n_frames: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared-window sum over ``n_frames`` overlap-added frames (read-only).

    Returns the sum, the mask of samples it covers, and the indices of
    the rest.  The inverse divides by the sum where it covers a sample;
    samples with no effective window coverage are zeroed rather than
    amplified.
    """
    size, hop = config.window_size, config.hop_size
    wsq_frame = window_values(config) ** 2
    wsq = np.zeros((n_frames - 1) * hop + size)
    for t in range(n_frames):
        wsq[t * hop : t * hop + size] += wsq_frame
    covered = wsq > wsq.max() * 1e-12
    uncovered = np.flatnonzero(~covered)
    for arr in (wsq, covered, uncovered):
        arr.setflags(write=False)
    return wsq, covered, uncovered


def _frame_threads() -> int:
    """Threads ``_by_frames`` splits the frames over.

    One in a process ``multiprocessing`` started, such as a song worker,
    whose siblings take the other CPUs; otherwise every CPU this process
    may run on.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_frames(work, n_frames: int) -> None:
    """Run ``work(run)`` on contiguous runs of ``n_frames`` frames, one per thread.

    The runs are slices that cover the frames: at most ``_frame_threads()``
    of them, none empty unless there are no frames.  The calling thread
    takes the first; each other runs in a copy of the caller's context, so
    NumPy's ``errstate`` warns and raises in it as on the calling thread.
    ``work`` writes only its own run's frames of arrays the caller
    allocated, so each frame is computed once, by the same code, whatever
    the thread count: the bytes never depend on it.  Every thread is
    joined before this returns, and an exception raised in any run reaches
    the caller.
    """
    n_runs = max(1, min(_frame_threads(), n_frames))
    edges = [n_frames * k // n_runs for k in range(n_runs + 1)]
    runs = [slice(a, b) for a, b in zip(edges, edges[1:])]
    if n_runs == 1:
        work(runs[0])
        return
    with ThreadPoolExecutor(n_runs - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, run) for run in runs[1:]]
        work(runs[0])
        for future in futures:
            future.result()


def stft(clip: AudioClip, config: StftConfig = StftConfig()) -> Spectrogram:
    """Forward transform of a clip under the given framing configuration.

    Raises
    ------
    InvalidInputError
        If the clip holds no samples.
    ConfigurationError
        If the configuration violates the overlap-add condition.
    """
    if clip.n_samples == 0:
        raise InvalidInputError("cannot transform an empty clip")
    require_cola(config)

    win = window_values(config)
    ws, hop = config.window_size, config.hop_size
    n_frames = _frame_count(clip.n_samples, config)
    x = _padded_segment(clip.samples, 0, (n_frames - 1) * hop + ws, config.pad)
    frames = np.lib.stride_tricks.sliding_window_view(x, ws, axis=-1)[:, ::hop, :]
    bins = np.empty((clip.n_channels, n_frames, config.n_bins), np.complex128)

    def transform(run):
        np.fft.rfft(frames[:, run] * win, axis=-1, out=bins[:, run])

    _by_frames(transform, n_frames)
    return Spectrogram(bins, config, clip.n_samples, clip.sample_rate)


def istft(spec: Spectrogram) -> AudioClip:
    """Inverse transform, trimmed to the ``original_length`` samples analysed.

    Raises :class:`InvalidInputError` when that length is negative or
    more than the frames can hold, as a hand-built spectrogram may claim.
    """
    config = spec.config
    require_cola(config)
    length = spec.original_length

    win = window_values(config)
    ws, hop = config.window_size, config.hop_size
    n_channels, n_frames = spec.n_channels, spec.n_frames
    total = (n_frames - 1) * hop + ws
    if not 0 <= length <= total - config.pad:
        raise InvalidInputError(
            f"original_length {length} is outside the 0 to {total - config.pad} samples "
            f"representable by {n_frames} frames"
        )

    frames = np.empty((n_channels, n_frames, ws))

    def transform(run):
        np.fft.irfft(spec.bins[:, run], n=ws, axis=-1, out=frames[:, run])
        frames[:, run] *= win

    _by_frames(transform, n_frames)
    out = np.zeros((n_channels, total))
    for t in range(n_frames):
        out[:, t * hop : t * hop + ws] += frames[:, t, :]
    wsq, covered, uncovered = _synthesis_weight(config, n_frames)
    np.divide(out, wsq, out=out, where=covered)
    out[:, uncovered] = 0.0
    start = config.pad
    return AudioClip(out[:, start : start + length], spec.sample_rate)
