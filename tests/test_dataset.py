from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io.wavfile

from separability import (
    AlignmentError,
    AudioClip,
    DatasetError,
    DatasetManifest,
    InvalidInputError,
    MissingStemError,
    MultitrackSong,
    load_manifest,
    load_song,
    make_mixture,
    normalize_loudness,
    read_wav,
    write_wav,
)
from separability.audio import alignment_fault

SR = 44100


def _clip(gen, n=2000, ch=2, scale=0.4):
    return AudioClip(gen.normal(0.0, scale, (ch, n)), SR)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_audio_clip_rejects_non_finite_samples(bad):
    samples = np.zeros((2, 100))
    samples[1, 17] = bad
    with pytest.raises(InvalidInputError):
        AudioClip(samples, SR)


@pytest.mark.parametrize("rate", [0, -44100, 44100.0, "44100", None])
def test_audio_clip_rejects_a_rate_that_is_not_a_positive_integer(rate):
    with pytest.raises(InvalidInputError, match="sample_rate must be a positive integer"):
        AudioClip(np.zeros((2, 100)), rate)


def test_audio_clip_window_is_a_read_only_contiguous_copy(rng):
    clip = _clip(rng, n=500)
    win = clip.window(100, 350)
    assert np.array_equal(win.samples, clip.samples[:, 100:350])
    assert win.samples.flags.c_contiguous and not win.samples.flags.writeable
    assert not np.shares_memory(win.samples, clip.samples)
    assert win.sample_rate == SR
    with pytest.raises(InvalidInputError):
        clip.window(400, 501)


def _write_song(root, song_id, stems):
    song_dir = root / song_id
    song_dir.mkdir(parents=True)
    for name, clip in stems.items():
        write_wav(song_dir / f"{name}.wav", clip)
    return song_dir


class TestWavIo:
    def test_float_round_trip(self, tmp_path, rng):
        clip = _clip(rng)
        path = tmp_path / "x.wav"
        write_wav(path, clip)
        back = read_wav(path)
        assert back.sample_rate == SR
        assert back.samples.shape == clip.samples.shape
        # float32 storage quantizes to about 1e-7 relative
        assert np.max(np.abs(back.samples - clip.samples)) < 1e-6

    def test_mono_shape(self, tmp_path, rng):
        clip = _clip(rng, ch=1)
        path = tmp_path / "m.wav"
        write_wav(path, clip)
        assert read_wav(path).samples.shape == (1, 2000)

    def test_int16_scaling(self, tmp_path):
        data = np.array([0, 16384, -16384, 32767, -32768], dtype=np.int16)
        path = tmp_path / "i16.wav"
        scipy.io.wavfile.write(path, SR, data)
        clip = read_wav(path)
        expected = data.astype(np.float64) / 2.0**15
        assert np.array_equal(clip.samples[0], expected)

    def test_stereo_int16_channels_first(self, tmp_path, rng):
        data = rng.integers(-(2**15), 2**15, size=(300, 2)).astype(np.int16)
        path = tmp_path / "s16.wav"
        scipy.io.wavfile.write(path, SR, data)
        clip = read_wav(path)
        assert clip.samples.flags.c_contiguous
        assert np.array_equal(clip.samples, data.T.astype(np.float64) / 2.0**15)

    def test_int32_scaling(self, tmp_path):
        data = np.array([0, 2**30, -(2**31)], dtype=np.int32)
        path = tmp_path / "i32.wav"
        scipy.io.wavfile.write(path, SR, data)
        clip = read_wav(path)
        expected = data.astype(np.float64) / 2.0**31
        assert np.array_equal(clip.samples[0], expected)

    def test_wrong_rate_rejected(self, tmp_path, rng):
        path = tmp_path / "lo.wav"
        scipy.io.wavfile.write(path, 22050, rng.normal(0, 0.1, 500).astype(np.float32))
        with pytest.raises(DatasetError, match="22050"):
            read_wav(path)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_unsupported_sample_format_rejected(self, tmp_path, dtype):
        path = tmp_path / "odd.wav"
        scipy.io.wavfile.write(path, SR, np.zeros(500, dtype))
        with pytest.raises(DatasetError, match=f"unsupported sample format {np.dtype(dtype)}"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_wav(tmp_path / "nope.wav")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"this is not RIFF data")
        with pytest.raises(DatasetError):
            read_wav(path)


class TestMultitrackSong:
    def test_requires_two_stems(self, rng):
        with pytest.raises(DatasetError):
            MultitrackSong("s", {"bass": _clip(rng)})

    def test_rejects_misaligned_stems(self, rng):
        with pytest.raises(AlignmentError, match="drums"):
            MultitrackSong("s", {"bass": _clip(rng, n=2000), "drums": _clip(rng, n=1999)})

    def test_rejects_stems_at_mixed_sample_rates(self, rng):
        bass = _clip(rng)
        with pytest.raises(AlignmentError, match="drums: 2000 samples, 2 ch, 22050 Hz"):
            MultitrackSong("s", {"bass": bass, "drums": AudioClip(bass.samples, 22050)})


def test_alignment_fault_reads_only_length_channels_and_rate():
    # A WAV header carries the three attributes, so it can be checked before decoding.
    def header(n_samples, n_channels=2, sample_rate=SR):
        return SimpleNamespace(n_samples=n_samples, n_channels=n_channels, sample_rate=sample_rate)

    assert alignment_fault({"a": header(10), "b": header(10)}) is None
    assert alignment_fault({"a": header(10)}) is None
    for odd in (header(11), header(10, n_channels=1), header(10, sample_rate=48000)):
        fault = alignment_fault({"a": header(10), "b": odd})
        assert fault == (
            "misaligned tracks: a: 10 samples, 2 ch, 44100 Hz; "
            f"b: {odd.n_samples} samples, {odd.n_channels} ch, {odd.sample_rate} Hz"
        )


class TestLoadSong:
    def test_loads_expected_stems(self, tmp_path, rng):
        stems = {"bass": _clip(rng), "drums": _clip(rng), "vocals": _clip(rng)}
        song_dir = _write_song(tmp_path, "songA", stems)
        song = load_song(song_dir, ["bass", "drums", "vocals"])
        assert song.song_id == "songA"
        assert song.instruments == ("bass", "drums", "vocals")

    def test_case_insensitive_match(self, tmp_path, rng):
        song_dir = tmp_path / "songB"
        song_dir.mkdir()
        write_wav(song_dir / "Bass.wav", _clip(rng))
        write_wav(song_dir / "DRUMS.wav", _clip(rng))
        song = load_song(song_dir, ["bass", "drums"])
        assert song.instruments == ("bass", "drums")

    def test_missing_song_directory_named(self, tmp_path):
        with pytest.raises(DatasetError, match="song directory not found: .*ghost"):
            load_song(tmp_path / "ghost", ["bass", "drums"])

    def test_missing_stem_named(self, tmp_path, rng):
        song_dir = _write_song(tmp_path, "songC", {"bass": _clip(rng), "drums": _clip(rng)})
        with pytest.raises(MissingStemError, match="vocals"):
            load_song(song_dir, ["bass", "drums", "vocals"])

    def test_one_sample_shorter_stem_named(self, tmp_path, rng):
        song_dir = _write_song(
            tmp_path, "songD", {"bass": _clip(rng, n=2000), "drums": _clip(rng, n=1999)}
        )
        with pytest.raises(AlignmentError, match="drums"):
            load_song(song_dir, ["bass", "drums"])

    def test_extra_file_warned_and_ignored(self, tmp_path, rng, caplog):
        song_dir = _write_song(tmp_path, "songE", {"bass": _clip(rng), "drums": _clip(rng)})
        write_wav(song_dir / "talkback.wav", _clip(rng))
        with caplog.at_level("WARNING"):
            song = load_song(song_dir, ["bass", "drums"])
        assert song.instruments == ("bass", "drums")
        assert any("talkback" in rec.message for rec in caplog.records)

    def test_present_mixture_neither_read_nor_warned(self, tmp_path, rng, caplog):
        stems = {"bass": _clip(rng), "drums": _clip(rng)}
        song_dir = _write_song(tmp_path, "songF", stems)
        # Reading this file would raise DatasetError.
        (song_dir / "mixture.wav").write_bytes(b"this is not RIFF data")
        with caplog.at_level("WARNING"):
            song = load_song(song_dir, ["bass", "drums"])
        assert song.instruments == ("bass", "drums")
        assert caplog.records == []


class TestNormalizeLoudness:
    def test_rescales_to_mean_rms(self, rng):
        a = _clip(rng, scale=0.1)
        b = _clip(rng, scale=0.3)
        song = MultitrackSong("s", {"a": a, "b": b})
        out = normalize_loudness(song)
        target = (a.rms() + b.rms()) / 2
        assert out.stems["a"].rms() == pytest.approx(target, rel=1e-12)
        assert out.stems["b"].rms() == pytest.approx(target, rel=1e-12)

    def test_equal_rms_is_fixed_point(self, rng):
        base = rng.normal(0, 0.2, (1, 1500))
        a = AudioClip(base, SR)
        b = AudioClip(-base, SR)
        out = normalize_loudness(MultitrackSong("s", {"a": a, "b": b}))
        assert np.max(np.abs(out.stems["a"].samples - a.samples)) < 1e-12
        assert np.max(np.abs(out.stems["b"].samples - b.samples)) < 1e-12

    def test_silent_stem_untouched(self, rng):
        live = _clip(rng, scale=0.2)
        silent = AudioClip(np.zeros((2, 2000)), SR)
        out = normalize_loudness(MultitrackSong("s", {"live": live, "quiet": silent}))
        assert np.all(out.stems["quiet"].samples == 0.0)
        assert np.max(np.abs(out.stems["live"].samples - live.samples)) < 1e-12

    # An empty stem has no samples to measure; its RMS is 0, as a silent one's.
    @pytest.mark.parametrize("n_samples", [2000, 0])
    def test_a_song_without_sound_is_returned_unscaled(self, n_samples):
        stems = {name: AudioClip(np.zeros((2, n_samples)), SR) for name in ("a", "b")}
        assert stems["a"].rms() == 0.0
        out = normalize_loudness(MultitrackSong("s", stems))
        for name, clip in stems.items():
            assert out.stems[name].samples.tobytes() == clip.samples.tobytes()

    def test_idempotent(self, rng):
        song = MultitrackSong("s", {"a": _clip(rng, scale=0.1), "b": _clip(rng, scale=0.5)})
        once = normalize_loudness(song)
        twice = normalize_loudness(once)
        for name in song.stems:
            diff = np.abs(once.stems[name].samples - twice.stems[name].samples)
            assert np.max(diff) < 1e-12


class TestMakeMixture:
    def test_sum_of_stems(self, rng):
        stems = {k: _clip(rng) for k in ("a", "b", "c")}
        mixture = make_mixture(MultitrackSong("s", stems))
        expected = sum(c.samples for c in stems.values())
        assert mixture.sample_rate == SR
        assert np.max(np.abs(mixture.samples - expected)) < 1e-15

    def test_opposite_stems_cancel(self, rng):
        base = rng.normal(0, 0.3, (1, 1000))
        mixture = make_mixture(
            MultitrackSong("s", {"a": AudioClip(base, SR), "b": AudioClip(-base, SR)})
        )
        assert np.all(mixture.samples == 0.0)

    def test_commutes_with_scaling(self, rng):
        stems = {k: _clip(rng) for k in ("a", "b")}
        scaled = {k: c.scaled(0.5) for k, c in stems.items()}
        mix_scaled = make_mixture(MultitrackSong("s", scaled))
        mix_then_scale = make_mixture(MultitrackSong("s", stems)).scaled(0.5)
        assert np.max(np.abs(mix_scaled.samples - mix_then_scale.samples)) < 1e-15


class TestManifest:
    def _dataset(self, tmp_path, rng, songs=("s1", "s2"), instruments=("bass", "drums")):
        for song_id in songs:
            _write_song(tmp_path, song_id, {i: _clip(rng) for i in instruments})
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("".join(f"{s}\ttrain\n" for s in songs))
        return manifest

    def test_parse_and_discover(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        m = load_manifest(manifest)
        assert m.song_ids() == ("s1", "s2")
        assert m.instruments == ("bass", "drums")
        assert m.entries == (("s1", "train"), ("s2", "train"))

    def test_split_filter(self, tmp_path, rng):
        for song_id in ("s1", "s2", "s3"):
            _write_song(tmp_path, song_id, {"bass": _clip(rng), "drums": _clip(rng)})
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("s1\ttrain\ns2\tvalid\ns3\ttest\n")
        m = load_manifest(manifest)
        assert m.song_ids("train") == ("s1",)
        assert m.song_ids("test") == ("s3",)
        with pytest.raises(DatasetError, match="unknown split 'holdout'"):
            m.song_ids("holdout")

    def test_unknown_split_rejected(self, tmp_path, rng):
        self._dataset(tmp_path, rng)
        (tmp_path / "manifest.tsv").write_text("s1\tholdout\n")
        with pytest.raises(DatasetError, match="holdout"):
            load_manifest(tmp_path / "manifest.tsv")

    def test_duplicate_song_rejected(self, tmp_path, rng):
        self._dataset(tmp_path, rng)
        (tmp_path / "manifest.tsv").write_text("s1\ttrain\ns1\ttest\n")
        with pytest.raises(DatasetError, match="twice"):
            load_manifest(tmp_path / "manifest.tsv")

    def test_unknown_split_is_named_at_its_line(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_text("s1\ttrian\ns2\ttrain\nghost\ttest\n")
        message = f"{manifest}:1: song 's1': unknown split 'trian'"
        with pytest.raises(DatasetError, match=f"^{message}"):
            load_manifest(manifest)

    def test_repeated_id_is_named_at_its_line_before_any_directory_is_listed(
        self, tmp_path, rng, monkeypatch
    ):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_text("s1\ttrain\nghost\ttest\n\ns1\ttest\n")
        listed = []
        real_is_dir = Path.is_dir

        def is_dir(self):
            listed.append(self.name)
            return real_is_dir(self)

        monkeypatch.setattr(Path, "is_dir", is_dir)
        with pytest.raises(DatasetError, match=f"^{manifest}:4: song 's1' listed twice"):
            load_manifest(manifest)
        assert listed == []

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((("s1", "trian"),), "unknown split 'trian'"),
            ((("s1", "train"), ("s1", "test")), "song 's1' listed twice"),
        ],
    )
    def test_manifest_built_directly_applies_the_entry_rules(self, entries, message):
        with pytest.raises(DatasetError, match=message):
            DatasetManifest(Path("."), entries, ("bass",))

    def test_manifest_built_directly_needs_an_instrument(self):
        with pytest.raises(DatasetError, match="manifest declares no instruments"):
            DatasetManifest(Path("."), (("s1", "train"),), ())

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert load_manifest(manifest).entries == (("s1", "train"), ("s2", "train"))

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest not found: .*nope.tsv"):
            load_manifest(tmp_path / "nope.tsv")

    def test_manifest_listing_no_song_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_text("# no songs yet\n\n")
        with pytest.raises(DatasetError, match="no songs listed"):
            load_manifest(manifest)

    def test_songs_sharing_no_stem_rejected(self, tmp_path, rng):
        _write_song(tmp_path, "s1", {"bass": _clip(rng), "drums": _clip(rng)})
        _write_song(tmp_path, "s2", {"other": _clip(rng), "vocals": _clip(rng)})
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("s1\ttrain\ns2\ttrain\n")
        with pytest.raises(DatasetError, match="no instrument stems shared by every listed song"):
            load_manifest(manifest)

    def test_missing_directory_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_text("s1\ttrain\nghost\ttest\n")
        with pytest.raises(DatasetError, match="ghost"):
            load_manifest(manifest)

    def test_non_utf8_manifest_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_bytes(b"s1\ttrain\nbj\xf8rk\ttest\n")
        with pytest.raises(DatasetError, match="not UTF-8"):
            load_manifest(manifest)

    def test_malformed_line_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        manifest.write_text("s1 train\n")
        with pytest.raises(DatasetError, match="TAB"):
            load_manifest(manifest)

    def test_lists_each_song_directory_once(self, tmp_path, rng, monkeypatch):
        manifest = self._dataset(tmp_path, rng, songs=("s1", "s2", "s3"))
        for song_id in ("s1", "s2", "s3"):
            write_wav(tmp_path / song_id / "mixture.wav", _clip(rng))
        listed = []
        real_glob = Path.glob

        def glob(self, pattern, *args, **kwargs):
            listed.append(self.name)
            return real_glob(self, pattern, *args, **kwargs)

        monkeypatch.setattr(Path, "glob", glob)
        m = load_manifest(manifest)
        assert m.instruments == ("bass", "drums")
        assert sorted(listed) == ["s1", "s2", "s3"]

    def test_stems_differing_only_in_case_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        write_wav(tmp_path / "s2" / "Bass.wav", _clip(rng))
        with pytest.raises(DatasetError, match="differ only in case") as info:
            load_manifest(manifest)
        assert str(tmp_path / "s2") in str(info.value)
        assert "'Bass.wav' and 'bass.wav'" in str(info.value)
        with pytest.raises(DatasetError, match="differ only in case"):
            load_song(tmp_path / "s2", ["bass", "drums"])

    def test_upper_case_extension_is_a_stem(self, tmp_path, rng, caplog):
        manifest = self._dataset(tmp_path, rng, instruments=("bass", "drums", "vocals"))
        (tmp_path / "s1" / "vocals.wav").rename(tmp_path / "s1" / "vocals.WAV")
        with caplog.at_level("WARNING"):
            m = load_manifest(manifest)
            song = load_song(m.song_dir("s1"), m.instruments)
        assert m.instruments == ("bass", "drums", "vocals")
        assert song.instruments == ("bass", "drums", "vocals")
        assert caplog.records == []

    def test_extensions_differing_only_in_case_rejected(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        write_wav(tmp_path / "s2" / "bass.WAV", _clip(rng))
        with pytest.raises(DatasetError, match="'bass.WAV' and 'bass.wav', whose names differ"):
            load_manifest(manifest)

    def test_mixtures_differing_only_in_case_are_not_stems(self, tmp_path, rng):
        manifest = self._dataset(tmp_path, rng)
        write_wav(tmp_path / "s1" / "mixture.wav", _clip(rng))
        write_wav(tmp_path / "s1" / "Mixture.wav", _clip(rng))
        assert load_manifest(manifest).instruments == ("bass", "drums")

    def test_load_through_manifest(self, tmp_path, rng):
        m = load_manifest(self._dataset(tmp_path, rng))
        song = load_song(m.song_dir("s1"), m.instruments)
        assert song.instruments == ("bass", "drums")
