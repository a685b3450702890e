"""Synthetic audio builders for tests, scripts and demo datasets.

Everything here is deterministic given its arguments (seeded where
random), so fixtures written by one run are byte-identical on the next.
Every clip is at ``SAMPLE_RATE``, the one rate ``read_wav`` accepts,
except from ``sine_clip`` and ``fixture_stem``, which take a rate so
that tests can build short stems at a lower one.  The scripts beside
this file import it directly, and the tests through the ``pythonpath``
entry in ``pyproject.toml``; the installed package does not ship it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from separability.audio import AudioClip
from separability.dataset import SAMPLE_RATE, write_wav
from separability.errors import InvalidInputError

# Tone frequencies are laid out on a fixed grid so that stems occupy
# known analysis bins: slot s means s * (sample_rate / GRID_SIZE) Hz.
GRID_SIZE = 4096


def slot_hz(slot: int, sample_rate: int = SAMPLE_RATE) -> float:
    return slot * sample_rate / GRID_SIZE


def sine_clip(
    freqs: Sequence[float],
    n_samples: int,
    sample_rate: int = SAMPLE_RATE,
    amplitudes: Sequence[float] | None = None,
    phases: np.ndarray | None = None,
    n_channels: int = 1,
) -> AudioClip:
    """Sum of sinusoids; ``phases`` may vary per component and channel.

    phases has shape (n_components,) or (n_components, n_channels).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    k = freqs.size
    amps = np.ones(k) if amplitudes is None else np.asarray(amplitudes, dtype=np.float64)
    if phases is None:
        ph = np.zeros((k, n_channels))
    else:
        ph = np.asarray(phases, dtype=np.float64)
        if ph.ndim == 1:
            ph = np.repeat(ph[:, np.newaxis], n_channels, axis=1)
    if amps.size != k or ph.shape != (k, n_channels):
        raise InvalidInputError("amplitudes/phases do not match the frequency count")
    t = np.arange(n_samples) / sample_rate
    out = np.zeros((n_channels, n_samples))
    for c in range(n_channels):
        angle = 2.0 * np.pi * freqs[:, np.newaxis] * t + ph[:, c : c + 1]
        out[c] = (amps[:, np.newaxis] * np.sin(angle)).sum(axis=0)
    return AudioClip(out, sample_rate)


def periodic_tone(cycles: int, n_samples: int, amplitude: float = 1.0) -> AudioClip:
    """A mono sine completing exactly ``cycles`` periods over the clip.

    Tones with distinct cycle counts are orthogonal over the clip, which
    makes them convenient building blocks for analytic metric cases.
    """
    n = np.arange(n_samples)
    wave = amplitude * np.sin(2.0 * np.pi * cycles * n / n_samples)
    return AudioClip(wave[np.newaxis, :], SAMPLE_RATE)


def noise_clip(
    gen: np.random.Generator, n_samples: int, n_channels: int = 1, scale: float = 0.1
) -> AudioClip:
    return AudioClip(gen.normal(0.0, scale, (n_channels, n_samples)), SAMPLE_RATE)


def overlapping_sine_sources(
    overlap: float, n_components: int = 8, n_samples: int = SAMPLE_RATE
) -> tuple[AudioClip, AudioClip]:
    """Two mono sine banks sharing a controllable fraction of their frequencies.

    overlap = 0 gives spectrally disjoint banks; overlap = 1 makes the
    second bank reuse every frequency of the first.  Shared components
    carry a quarter-period phase offset so the two sources never collapse
    into copies of each other.
    """
    if not 0.0 <= overlap <= 1.0:
        raise InvalidInputError(f"overlap must be in [0, 1], got {overlap}")
    k = n_components
    base_slot, spacing = 30, 6
    shared = int(round(overlap * k))
    amp = 0.5 / np.sqrt(k)

    slots_a = [base_slot + spacing * i for i in range(k)]
    # Private slots for the second source sit above the first bank with a
    # guard gap, keeping leakage between private components negligible.
    private = [base_slot + spacing * (k + 1) + spacing * i for i in range(k - shared)]
    slots_b = slots_a[:shared] + private

    freqs_a = [slot_hz(s) for s in slots_a]
    freqs_b = [slot_hz(s) for s in slots_b]
    phases_b = np.array([np.pi / 2.0] * shared + [0.0] * (k - shared))

    a = sine_clip(freqs_a, n_samples, amplitudes=[amp] * k)
    b = sine_clip(freqs_b, n_samples, amplitudes=[amp] * k, phases=phases_b)
    return a, b


def fixture_stem(
    gen: np.random.Generator,
    song_index: int,
    instrument_index: int,
    n_samples: int,
    sample_rate: int = SAMPLE_RATE,
    n_channels: int = 2,
) -> AudioClip:
    """One deterministic stem: a small sine bank in an instrument-specific band.

    A whisper of noise keeps every window non-silent and every analysis
    bin populated, which exercises the generic code paths rather than the
    exact-zero special cases.
    """
    k = 4
    base = 16 + 36 * instrument_index + 2 * song_index
    freqs = [slot_hz(base + 9 * i, sample_rate) for i in range(k)]
    amps = gen.uniform(0.2, 0.8, k)
    phases = gen.uniform(0.0, 2.0 * np.pi, (k, n_channels))
    tone = sine_clip(freqs, n_samples, sample_rate, amps, phases, n_channels)
    noise = gen.normal(0.0, 0.005, (n_channels, n_samples))
    gain = 0.25 + 0.5 * gen.random()
    return AudioClip(gain * (tone.samples + noise), sample_rate)


def write_fixture_dataset(
    root: Path | str,
    n_songs: int = 3,
    seed: int = 0,
    duration: float = 2.5,
    instruments: Sequence[str] = ("bass", "drums", "vocals"),
    splits: str | Sequence[str] = "train",
    n_channels: int = 2,
) -> Path:
    """Write a synthetic multitrack dataset and return its manifest path.

    Layout: <root>/<song_id>/<instrument>.wav plus <root>/manifest.tsv.
    ``splits`` is one tag for every song or a per-song sequence.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if isinstance(splits, str):
        split_list = [splits] * n_songs
    else:
        split_list = list(splits)
        if len(split_list) != n_songs:
            raise InvalidInputError(f"{len(split_list)} splits for {n_songs} songs")

    gen = np.random.Generator(np.random.PCG64(seed))
    n_samples = int(round(duration * SAMPLE_RATE))
    lines = []
    for i in range(n_songs):
        song_id = f"song{i:02d}"
        song_dir = root / song_id
        song_dir.mkdir(exist_ok=True)
        for j, inst in enumerate(instruments):
            stem = fixture_stem(gen, i, j, n_samples, n_channels=n_channels)
            write_wav(song_dir / f"{inst}.wav", stem)
        lines.append(f"{song_id}\t{split_list[i]}")

    manifest_path = root / "manifest.tsv"
    manifest_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest_path
