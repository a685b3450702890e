"""Multitrack dataset loading, loudness equalization, and mixture synthesis.

A dataset is a directory of song folders, each holding one WAV per
instrument ( <root>/<song_id>/<instrument>.wav ), plus a line-oriented
manifest assigning every song to a train/valid/test split.  Audio is
44.1 kHz WAV only; other sample rates are rejected rather than
resampled, so no hidden DSP runs on the data being measured.  Song
and stem names are UTF-8 text in any locale: each crosses the
filesystem as its UTF-8 bytes.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy.io.wavfile

from .audio import AudioClip, alignment_fault
from .errors import AlignmentError, DatasetError, MissingStemError
from .scores import cell_label_fault

log = logging.getLogger(__name__)

SAMPLE_RATE = 44100
SPLITS = ("train", "valid", "test")
MIXTURE_NAME = "mixture"

# Integer PCM is mapped onto [-1, 1) by the width of its sample type;
# 24-bit WAVs arrive from the reader already shifted into int32.
_PCM_SCALES = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}


def read_wav(path: Path | str) -> AudioClip:
    path = Path(path)
    try:
        rate, data = scipy.io.wavfile.read(path)
    except FileNotFoundError:
        raise DatasetError(f"audio file not found: {path}") from None
    except ValueError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise DatasetError(f"{path}: sample rate {rate} Hz, expected {SAMPLE_RATE} Hz")
    if data.dtype not in _PCM_SCALES and data.dtype not in (np.float32, np.float64):
        raise DatasetError(f"{path}: unsupported sample format {data.dtype}")
    # One float64 copy, channels first and contiguous, which AudioClip keeps.
    samples = np.ascontiguousarray(data.T, dtype=np.float64)
    if data.dtype in _PCM_SCALES:
        samples /= _PCM_SCALES[data.dtype]
    return AudioClip(samples, int(rate))


def write_wav(path: Path | str, clip: AudioClip) -> None:
    """Store a clip as 32-bit float WAV (lossless for fixture audio)."""
    data = np.ascontiguousarray(clip.samples.T, dtype=np.float32)
    if data.shape[1] == 1:
        data = data[:, 0]
    scipy.io.wavfile.write(Path(path), clip.sample_rate, data)


@dataclass(frozen=True)
class MultitrackSong:
    """One song: its aligned per-instrument stems (``make_mixture`` derives the mixture)."""

    song_id: str
    stems: Mapping[str, AudioClip]

    def __post_init__(self):
        stems = dict(self.stems)
        if len(stems) < 2:
            raise DatasetError(f"song {self.song_id!r} needs at least 2 stems, got {len(stems)}")
        object.__setattr__(self, "stems", stems)
        if fault := alignment_fault(stems):
            raise AlignmentError(f"song {self.song_id!r} has {fault}")

    @property
    def instruments(self) -> tuple[str, ...]:
        return tuple(self.stems)


def utf8_name(name: str) -> str:
    """A name as Python decoded it from argv or the filesystem, as UTF-8 text.

    Python decodes both with the locale's encoding and escapes the bytes
    it cannot read, so under the C locale ``cordés`` arrives as
    ``cord\\udcc3\\udca9s``; its bytes read as UTF-8 give one text in every
    locale.  A name that is not UTF-8 is an error.
    """
    try:
        return os.fsencode(name).decode("utf-8")
    except UnicodeDecodeError:
        raise DatasetError(f"name {name!r} is not UTF-8") from None


def fs_name(text: str) -> str:
    """The filesystem's spelling of the UTF-8 name ``text``: utf8_name inverted."""
    return os.fsdecode(text.encode("utf-8"))


def _stem_files(song_dir: Path) -> dict[str, Path]:
    """The song's stem WAVs by lower-cased UTF-8 name; ``mixture.wav`` is never a stem.

    The name and the ``.wav`` extension are matched without regard to
    case.  Two stems whose names differ only in case are an error: either
    one could be the instrument.
    """
    files: dict[str, Path] = {}
    for path in sorted(song_dir.glob("*.[wW][aA][vV]")):
        try:
            key = utf8_name(path.stem).lower()
        except DatasetError as exc:
            raise DatasetError(f"{exc} in song directory {song_dir}") from None
        if key in files and key != MIXTURE_NAME:
            raise DatasetError(
                f"song directory {song_dir} holds {utf8_name(files[key].name)!r} and"
                f" {utf8_name(path.name)!r}, whose names differ only in case"
            )
        files[key] = path
    files.pop(MIXTURE_NAME, None)
    return files


def load_song(song_dir: Path | str, expected_instruments: Sequence[str]) -> MultitrackSong:
    """Load a song directory, requiring one WAV per expected instrument.

    Filename matching is case-insensitive on the stem part.  Unexpected
    audio files are skipped with a warning.  A ``mixture.wav`` is skipped
    silently and never read: the mixture is always the sum of the stems.
    """
    song_dir = Path(song_dir)
    if not song_dir.is_dir():
        raise DatasetError(f"song directory not found: {song_dir}")
    song_id = utf8_name(song_dir.name)
    wavs = _stem_files(song_dir)
    expected = [inst.lower() for inst in expected_instruments]

    stems: dict[str, AudioClip] = {}
    for label, key in zip(expected_instruments, expected):
        path = wavs.get(key)
        if path is None:
            raise MissingStemError(f"song {song_id!r} is missing stem {label!r}")
        stems[label] = read_wav(path)
    for key, path in wavs.items():
        if key not in expected:
            log.warning("song %r: ignoring unexpected file %s", song_id, path.name)

    return MultitrackSong(song_id, stems)


def normalize_loudness(song: MultitrackSong) -> MultitrackSong:
    """Rescale every non-silent stem to the mean RMS of the originals.

    Silent stems (exactly zero) pass through untouched and do not move
    the mean.
    """
    levels = {name: clip.rms() for name, clip in song.stems.items()}
    active = [v for v in levels.values() if v > 0.0]
    if not active:
        return MultitrackSong(song.song_id, dict(song.stems))
    target = sum(active) / len(active)
    stems = {
        name: clip if levels[name] == 0.0 else clip.scaled(target / levels[name])
        for name, clip in song.stems.items()
    }
    return MultitrackSong(song.song_id, stems)


def make_mixture(song: MultitrackSong) -> AudioClip:
    """The song's mixture: the sample-wise sum of its stems, in stem order.

    No headroom normalization: the sum may exceed full scale and stays
    float, so separation sees exactly the sum of what it is asked to
    recover.
    """
    clips = iter(song.stems.values())
    first = next(clips)
    total = first.samples.copy()
    for clip in clips:
        total += clip.samples
    return AudioClip(total, first.sample_rate)


def _entry_fault(song_id: str, split: str, earlier) -> str | None:
    """Why a manifest entry listed after the song ids ``earlier`` is refused, or None."""
    if split not in SPLITS:
        return f"song {song_id!r}: unknown split {split!r}, expected one of {SPLITS}"
    if song_id in earlier:
        return f"song {song_id!r} listed twice in manifest"
    return None


@dataclass(frozen=True)
class DatasetManifest:
    """Dataset bookkeeping: root, song/split assignments, instrument labels."""

    root: Path
    entries: tuple[tuple[str, str], ...]
    instruments: tuple[str, ...]

    def __post_init__(self):
        seen = set()
        for song_id, split in self.entries:
            if fault := _entry_fault(song_id, split, seen):
                raise DatasetError(fault)
            seen.add(song_id)
        if not self.instruments:
            raise DatasetError("manifest declares no instruments")

    def song_ids(self, split: str | None = None) -> tuple[str, ...]:
        if split is not None and split not in SPLITS:
            raise DatasetError(f"unknown split {split!r}")
        return tuple(s for s, sp in self.entries if split is None or sp == split)

    def song_dir(self, song_id: str) -> Path:
        return self.root / fs_name(song_id)


def load_manifest(manifest_path: Path | str, root: Path | str | None = None) -> DatasetManifest:
    """Parse a song_id<TAB>split manifest file.

    Each song id names one directory directly under the dataset root,
    which defaults to the manifest's directory.  An id holding a path
    separator, or ``..``, an id listed twice and an unknown split are
    rejected at their line, before any directory is listed.  A leading
    UTF-8 byte-order mark is skipped.
    The instruments are always discovered: the WAV names present in
    every listed song directory (mixture excluded).
    """
    manifest_path = Path(manifest_path)
    root = Path(root) if root is not None else manifest_path.parent
    if not manifest_path.is_file():
        raise DatasetError(f"manifest not found: {manifest_path}")

    try:
        text = manifest_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{manifest_path}: not UTF-8 text: {exc}") from None
    entries: dict[str, str] = {}  # song id -> split, in manifest order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DatasetError(
                f"{manifest_path}:{lineno}: expected song_id<TAB>split, got {line!r}"
            )
        song_id, split = parts[0].strip(), parts[1].strip()
        # Outputs key a song by its directory's name, so the id must be that name.
        if song_id == ".." or Path(song_id).name != song_id:
            raise DatasetError(
                f"{manifest_path}:{lineno}: song id {song_id!r} is not one directory name"
            )
        if fault := _entry_fault(song_id, split, entries):
            raise DatasetError(f"{manifest_path}:{lineno}: {fault}")
        entries[song_id] = split
    if not entries:
        raise DatasetError(f"{manifest_path}: no songs listed")

    present = []
    for song_id in entries:
        song_dir = root / fs_name(song_id)
        if not song_dir.is_dir():
            raise DatasetError(f"manifest lists {song_id!r} but {song_dir} does not exist")
        present.append(set(_stem_files(song_dir)))
    # Instruments common to every song; per-song extras are reported at
    # load time instead of silently shrinking the label set further.
    instruments = tuple(sorted(set.intersection(*present)))
    if not instruments:
        raise DatasetError("no instrument stems shared by every listed song")
    for label in (*entries, *instruments):
        if fault := cell_label_fault(label):
            raise DatasetError(f"{manifest_path}: {fault}")

    return DatasetManifest(root, tuple(entries.items()), instruments)
