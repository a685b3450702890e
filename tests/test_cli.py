"""End-to-end runs of the command line interface.

Heavy commands run against the shared synthetic dataset with reduced
analysis settings so the whole module stays fast.
"""

import contextlib
import importlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from separability import ScoreTable, cli
from separability.cli import DEFAULT_RATIOS, _curve_csv, main

from synth import write_fixture_dataset

# The package exports the function stft under the module's name.
stft_module = importlib.import_module("separability.stft")

FAST_FLAGS = ["--fast-metrics", "--window-size", "1024", "--hop", "256"]
CSV_HEADER_LINE = "song_id,instrument,si_sdr,sdr,sir,isr,sar\n"


@pytest.fixture(scope="module")
def analyze_run(fixture_dataset, tmp_path_factory):
    """One analyze invocation shared by the read-only assertions below."""
    out_dir = tmp_path_factory.mktemp("analyze_out")
    code = main(
        ["analyze", "--dataset", str(fixture_dataset.parent), "--out", str(out_dir)]
        + FAST_FLAGS
    )
    return code, out_dir


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    return root


def _metadata_lines(text: str) -> dict[str, str]:
    pairs = [line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# ")]
    return {key: value for key, value in pairs}


# -- check-cola ---------------------------------------------------------


def test_check_cola_default_passes(capsys):
    assert main(["check-cola"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_check_cola_half_overlap_hann_fails(capsys):
    code = main(["check-cola", "--window-size", "512", "--hop", "256"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_check_cola_rect_half_overlap_passes():
    args = ["check-cola", "--window-size", "512", "--hop", "256", "--window-kind", "rect"]
    assert main(args) == 0


def test_check_cola_ignores_mask_and_metric_variables(monkeypatch, capsys):
    monkeypatch.setenv("SEPARABILITY_ALPHA", "-1")
    monkeypatch.setenv("SEPARABILITY_FILTER_LEN", "0")
    assert main(["check-cola"]) == 0
    assert capsys.readouterr().out.startswith("PASS: window=hann size=4096 hop=1024")


@pytest.mark.parametrize(
    "flag", [["--alpha", "2"], ["--zero-bin-policy", "zero"], ["--filter-len", "3"], ["--fast-metrics"]]
)
def test_check_cola_takes_only_framing_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-cola", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_has_no_zero_bin_policy_flag(capsys):
    # The oracle masks the sum of the stems, which is silent wherever they all are.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--zero-bin-policy", "zero"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- analyze ------------------------------------------------------------


def test_fast_metrics_and_filter_len_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--fast-metrics", "--filter-len", "25"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_analyze_exit_code_and_files(analyze_run):
    code, out_dir = analyze_run
    assert code == 0
    for name in (
        "scores.csv",
        "scores.json",
        "summary.csv",
        "summary.json",
        "separability_curve.csv",
    ):
        assert (out_dir / name).exists(), name
    logs = sorted(p.name for p in (out_dir / "logs").iterdir())
    assert logs == ["song00.json", "song01.json", "song02.json"]


def test_analyze_leaves_no_temporary_file(analyze_run):
    _, out_dir = analyze_run
    assert [p.name for p in out_dir.rglob(".*")] == []


def test_a_failed_write_keeps_the_previous_file(analyze_run, tmp_path, monkeypatch, capsys):
    _, out_dir = analyze_run
    target = tmp_path / "rank.json"
    target.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    args = ["rank", "--scores", str(out_dir / "scores.csv"), "--metric", "sdr"]
    code = main(args + ["--instrument", "bass", "--out", str(target)])
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rank.json"]


def test_analyze_scores_cover_every_song_and_instrument(analyze_run):
    _, out_dir = analyze_run
    table = ScoreTable.from_csv((out_dir / "scores.csv").read_text())
    assert table.song_ids() == ("song00", "song01", "song02")
    assert table.instruments() == ("bass", "drums", "vocals")
    for song_id in table.song_ids():
        for inst in table.instruments():
            assert math.isfinite(table.value(song_id, inst, "si_sdr"))


def test_analyze_logs_report_success(analyze_run):
    _, out_dir = analyze_run
    payload = json.loads((out_dir / "logs" / "song00.json").read_text())
    assert payload["status"] == "ok"
    assert payload["error"] is None
    assert payload["split"] == "train"
    assert payload["n_windows"] >= 1
    assert set(payload["scores"]) == {"bass", "drums", "vocals"}


def test_analyze_logs_count_windows_and_solver_fallbacks(analyze_run):
    _, out_dir = analyze_run
    payload = json.loads((out_dir / "logs" / "song00.json").read_text())
    # 2.5 s songs in 1 s windows at a 1 s hop: two windows, 0.5 s never scored.
    assert payload["n_windows"] == 2
    assert payload["windows_scored"] == 2
    assert payload["silent_windows"] == {"bass": 0, "drums": 0, "vocals": 0}
    assert payload["tail_samples_unscored"] == 22050
    assert payload["solver_fallbacks"] == {"dense": 0, "ridge": 0, "lstsq": 0}


def test_analyze_metadata_records_dsp_but_not_run_shape(analyze_run):
    # Worker count and output path must stay out of the files so reruns
    # with different parallelism stay byte-identical.
    _, out_dir = analyze_run
    meta = _metadata_lines((out_dir / "scores.csv").read_text())
    assert meta["window_size"] == "1024"
    assert meta["hop_size"] == "256"
    assert meta["filter_length"] == "1"  # --fast-metrics collapses the filter
    assert meta["normalize"] == "false"
    assert meta["generator"] == "pcg64"
    assert "workers" not in meta
    assert "out" not in meta


def test_analyze_curve_is_ranked_per_instrument(analyze_run):
    _, out_dir = analyze_run
    lines = [
        line
        for line in (out_dir / "separability_curve.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert lines[0] == "instrument,rank,song_id,si_sdr"
    per_inst: dict[str, list[float]] = {}
    for line in lines[1:]:
        inst, rank, _, value = line.split(",")
        per_inst.setdefault(inst, []).append(float(value))
    assert set(per_inst) == {"bass", "drums", "vocals"}
    for values in per_inst.values():
        assert len(values) == 3
        assert values == sorted(values, reverse=True)


def test_analyze_workers_match_serial(tiny_dataset, tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    base = ["analyze", "--dataset", str(tiny_dataset)] + FAST_FLAGS
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
    tree = _tree(serial)
    assert "logs/song01.json" in {str(name) for name in tree}
    assert _tree(parallel) == tree


def test_an_output_path_that_cannot_be_a_directory_fails_before_any_song(
    tiny_dataset, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "outfile"
    out.write_text("not a directory")
    loads = []
    monkeypatch.setattr(cli, "load_song", lambda *args: loads.append(args))
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(out)] + FAST_FLAGS
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(out)!r}\n"
    assert loads == []


@pytest.mark.parametrize("flag", ["--dataset", "--manifest"])
def test_a_recorded_path_holding_a_line_break_fails_before_any_song(
    tmp_path, monkeypatch, capsys, flag
):
    # The path is recorded as one '# key=value' line of every CSV output.
    root = tmp_path / ("ds\nx" if flag == "--dataset" else "ds")
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    path = root if flag == "--dataset" else (root / "manifest.tsv").rename(root / "m\u2028.tsv")
    loads = []
    monkeypatch.setattr(cli, "load_song", lambda *args: loads.append(args))
    out = tmp_path / "out"
    assert main(["analyze", flag, str(path), "--out", str(out), *FAST_FLAGS]) == 2
    key = flag.removeprefix("--")
    fault = f"{str(path)!r} contains a line break, which a metadata line cannot hold"
    assert capsys.readouterr().err == f"error: {key}: {fault}\n"
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("extra", [(), ("drums", "vocals")])
def test_songs_sharing_one_instrument_fail_before_any_song(tmp_path, monkeypatch, capsys, extra):
    # Each song holds bass and, in the second case, one instrument no other song holds.
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, instruments=["bass"])
    for song, inst in zip(("song00", "song01"), extra):
        (root / song / f"{inst}.wav").write_bytes((root / song / "bass.wav").read_bytes())
    loads = []
    monkeypatch.setattr(cli, "load_song", lambda *args: loads.append(args))
    out = tmp_path / "out"
    assert main(["analyze", "--dataset", str(root), "--out", str(out), *FAST_FLAGS]) == 2
    message = "the listed songs share one instrument, 'bass'; analyze needs at least 2"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == [] and not out.exists()
    # Planning mutes over the one shared instrument still works.
    plans = tmp_path / "plans"
    argv = ["mute-plan", "--dataset", str(root), "--instrument", "bass", "--ratios", "0.5"]
    assert main(argv + ["--out", str(plans)]) == 0
    assert (plans / "mute_plan_0.50.json").is_file()


def test_correlate_refuses_an_input_path_holding_a_line_break_before_reading(tmp_path, capsys):
    good = tmp_path / "a.csv"
    good.write_text(_handmade_table().to_csv())
    broken = tmp_path / "b\rc.csv"  # never written: the path alone is refused
    out = tmp_path / "out"
    assert main(["correlate", str(good), str(broken), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scores_b: {str(broken)!r} contains a line break")
    assert err.count("\n") == 1
    assert not out.exists()


def test_analyze_normalize_changes_scores_and_is_recorded(tiny_dataset, tmp_path):
    plain, levelled = tmp_path / "plain", tmp_path / "levelled"
    base = ["analyze", "--dataset", str(tiny_dataset)] + FAST_FLAGS
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--out", str(levelled), "--normalize"]) == 0
    assert _metadata_lines((levelled / "scores.csv").read_text())["normalize"] == "true"
    # Levelling the stems moves their relative energies, so scores shift.
    assert (plain / "scores.csv").read_bytes() != (levelled / "scores.csv").read_bytes()


def test_analyze_broken_song_fails_softly(tmp_path, capsys):
    root = tmp_path / "broken"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    (root / "song01" / "bass.wav").write_bytes(b"this is not audio")

    out_dir = tmp_path / "out"
    code = main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS)
    assert code == 1
    assert "failed: song01" in capsys.readouterr().err

    table = ScoreTable.from_csv((out_dir / "scores.csv").read_text())
    assert table.song_ids() == ("song00",)
    log = json.loads((out_dir / "logs" / "song01.json").read_text())
    assert log["status"] == "error"
    assert "DatasetError" in log["error"]
    assert log["scores"] == {}


def test_an_alpha_that_overflows_the_masks_is_named_in_each_log(fixture_dataset, tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["analyze", "--manifest", str(fixture_dataset), "--out", str(out_dir), "--alpha", "150"]
    assert main(argv + FAST_FLAGS) == 1
    assert capsys.readouterr().err.count("failed: ") == 3
    errors = {json.loads(path.read_text())["error"] for path in (out_dir / "logs").glob("*")}
    assert errors == {"InvalidInputError: |X|^alpha overflows float64 at alpha=150.0"}


def test_a_window_where_every_stem_is_silent_is_counted_in_the_log(tmp_path):
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=1, seed=5, duration=3.0, n_channels=1)
    for path in (root / "song00").glob("*.wav"):
        rate, data = scipy.io.wavfile.read(path)
        data[rate : 2 * rate] = 0.0
        scipy.io.wavfile.write(path, rate, data)
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS) == 0
    log = json.loads((out_dir / "logs" / "song00.json").read_text())
    assert (log["n_windows"], log["windows_scored"]) == (3, 2)
    assert log["silent_windows"] == {"bass": 1, "drums": 1, "vocals": 1}


def test_stems_differing_only_in_case_are_an_input_error(tmp_path, capsys):
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    (root / "song00" / "Bass.wav").write_bytes((root / "song00" / "bass.wav").read_bytes())
    out_dir = tmp_path / "out"
    assert main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS) == 2
    err = capsys.readouterr().err
    assert f"song directory {root / 'song00'} holds 'Bass.wav' and 'bass.wav'" in err
    assert not out_dir.exists()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_analyze_never_reads_a_mixture_file(tmp_path):
    # The mixture is always the sum of the stems, so a stored one of another
    # length or sample rate neither fails its song nor changes any output.
    root = tmp_path / "with_mixtures"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=1.2)
    base = ["analyze", "--dataset", str(root)] + FAST_FLAGS
    assert main(base + ["--out", str(tmp_path / "stems_only")]) == 0

    short = np.zeros((1000, 2), dtype=np.float32)
    scipy.io.wavfile.write(root / "song00" / "mixture.wav", 44100, short)
    other_rate = np.zeros((48000, 2), dtype=np.float32)
    scipy.io.wavfile.write(root / "song01" / "mixture.wav", 48000, other_rate)
    assert main(base + ["--out", str(tmp_path / "with_mixtures_out")]) == 0
    assert _tree(tmp_path / "with_mixtures_out") == _tree(tmp_path / "stems_only")


def test_analyze_rejects_non_finite_samples(tmp_path, capsys):
    root = tmp_path / "nan"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    path = root / "song01" / "drums.wav"
    rate, data = scipy.io.wavfile.read(path)
    data[100] = np.nan
    scipy.io.wavfile.write(path, rate, data)

    out_dir = tmp_path / "out"
    code = main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS)
    assert code == 1
    assert "failed: song01" in capsys.readouterr().err
    table = ScoreTable.from_csv((out_dir / "scores.csv").read_text())
    assert table.song_ids() == ("song00",)
    log = json.loads((out_dir / "logs" / "song01.json").read_text())
    assert log["status"] == "error"
    assert "InvalidInputError" in log["error"]


@pytest.mark.parametrize("renamed", ["song", "stem", "grp/song01", "..", "a/x b/x"])
def test_analyze_rejects_comma_in_labels(tmp_path, capsys, monkeypatch, renamed):
    # A comma in a song id or instrument label would add a cell to its CSV
    # rows, and outputs key a song by its directory's name, so a song id
    # must be one directory name.  Either is refused before any song loads.
    root = tmp_path / "comma"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    manifest = root / "manifest.tsv"
    if renamed == "song":
        (root / "song01").rename(root / "song,01")
        manifest.write_text(manifest.read_text().replace("song01", "song,01"))
        error = "contains ','"
    elif renamed == "stem":
        for song in ("song00", "song01"):
            (root / song / "bass.wav").rename(root / song / "bass,di.wav")
        error = "contains ','"
    else:
        # Every id but ".." names an existing song directory below the root.
        ids = ("a/x", "b/x") if renamed == "a/x b/x" else ("song00", renamed)
        for old, new in zip(("song00", "song01"), ids):
            if new not in (old, ".."):
                (root / new).parent.mkdir(exist_ok=True)
                (root / old).rename(root / new)
            manifest.write_text(manifest.read_text().replace(old, new))
        error = f"{manifest}:{1 if ids[0] != 'song00' else 2}: "

    loads = []
    real_load_song = cli.load_song

    def load_song(*args):
        loads.append(args)
        return real_load_song(*args)

    monkeypatch.setattr(cli, "load_song", load_song)
    out_dir = tmp_path / "out"
    code = main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS)
    assert code == 2
    assert error in capsys.readouterr().err
    assert loads == []
    assert not out_dir.exists()


# -- BLAS threads and worker deaths ---------------------------------------


def _blas_threads() -> tuple[int, ...]:
    return tuple(get() for get, _ in cli._openblas_thread_controls())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_songs_are_scored_on_one_blas_thread(tiny_dataset, tmp_path, monkeypatch, workers):
    if workers == "2":
        # Leave the parent unpinned, so that each pool worker has to pin itself.
        monkeypatch.setattr(cli, "_one_blas_thread", contextlib.nullcontext)
    # The parent may run on 3 CPUs, and a forked worker inherits that mask
    # but still splits its transforms over one thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    probe = tmp_path / "probe.txt"
    real_load_song = cli.load_song

    def load_song(song_dir, instruments):
        with open(probe, "a") as fh:
            fh.write(f"{os.getpid()} {_blas_threads()} {stft_module._frame_threads()}\n")
        return real_load_song(song_dir, instruments)

    monkeypatch.setattr(cli, "load_song", load_song)
    base = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "out")]
    assert main(base + FAST_FLAGS + ["--workers", workers]) == 0
    lines = probe.read_text().splitlines()
    assert len(lines) == 2
    frame_threads = "1" if workers == "2" else "3"
    assert {line.split(" ", 1)[1] for line in lines} == {f"(1, 1) {frame_threads}"}


def test_pool_initializer_pins_a_spawned_worker():
    # A spawned worker inherits nothing from the parent's BLAS state.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, context, initializer=cli._pin_blas_threads) as pool:
        assert pool.submit(_blas_threads).result(timeout=120) == (1, 1)


def test_pool_initializer_sets_only_unpinned_libraries(monkeypatch):
    # A worker forked from the pinned parent is on one thread already;
    # setting the count again costs it time and memory for nothing.
    calls = []

    def control(name, threads):
        return (lambda: threads), (lambda count: calls.append((name, count)))

    controls = (control("pinned", 1), control("unpinned", 4))
    monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: controls)
    cli._pin_blas_threads()
    assert calls == [("unpinned", 1)]


def test_analyze_restores_the_callers_blas_threads(tiny_dataset, tmp_path, monkeypatch):
    controls = cli._openblas_thread_controls()
    saved = [get() for get, _ in controls]
    base = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "out")]
    try:
        for _, set_threads in controls:
            set_threads(2)
        assert main(base + FAST_FLAGS) == 0
        assert _blas_threads() == (2, 2)

        def fail(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "_song_job", fail)
        with pytest.raises(RuntimeError, match="injected"):
            main(base + FAST_FLAGS)
        assert _blas_threads() == (2, 2)
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def test_analyze_runs_unpinned_without_a_bundled_openblas(tiny_dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: [])
    base = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "out")]
    assert main(base + FAST_FLAGS) == 0
    err = capsys.readouterr().err
    assert err.count("BLAS threads are not pinned") == 1


def test_a_killed_worker_costs_one_song(tmp_path, monkeypatch, capsys):
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=4, seed=5, duration=0.3, n_channels=1)
    clean, killed = tmp_path / "clean", tmp_path / "killed"
    base = ["analyze", "--dataset", str(root)] + FAST_FLAGS
    assert main(base + ["--out", str(clean)]) == 0
    real_load_song = cli.load_song

    def load_song(song_dir, instruments):
        if Path(song_dir).name == "song01":
            os._exit(1)  # dies like an OOM-killed worker: no exception, no result
        return real_load_song(song_dir, instruments)

    monkeypatch.setattr(cli, "load_song", load_song)
    capsys.readouterr()
    assert main(base + ["--out", str(killed), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("failed:")] == ["failed: song01"]

    log = json.loads((killed / "logs" / "song01.json").read_text())
    assert log["status"] == "error"
    assert log["error"].startswith("BrokenProcessPool: ")
    for song in ("song00", "song02", "song03"):
        name = f"logs/{song}.json"
        assert (killed / name).read_bytes() == (clean / name).read_bytes()
    clean_lines = (clean / "scores.csv").read_text().splitlines(keepends=True)
    expected = "".join(line for line in clean_lines if not line.startswith("song01,"))
    assert (killed / "scores.csv").read_text() == expected


@pytest.mark.parametrize(
    "killers",
    [("song00",), ("song02",), ("song05",), ("song00", "song04")],
    ids=["kill-first-running", "kill-last-running", "kill-never-started", "kill-two"],
)
def test_killed_workers_rerun_alone_only_the_songs_that_can_have_started(
    tmp_path, monkeypatch, capsys, killers
):
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=6, seed=5, duration=0.3, n_channels=1)
    clean, killed = tmp_path / "clean", tmp_path / "killed"
    base = ["analyze", "--dataset", str(root)] + FAST_FLAGS
    assert main(base + ["--out", str(clean)]) == 0
    real_load_song = cli.load_song
    sizes, pools = [], []  # per pool: its width, and the songs submitted to it

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            pools.append([])
            super().__init__(max_workers=max_workers, initializer=initializer)

        def submit(self, fn, job):
            pools[-1].append(job[1])
            return super().submit(fn, job)

    def load_song(song_dir, instruments):
        if Path(song_dir).name in killers:
            os._exit(1)  # dies like an OOM-killed worker: no exception, no result
        return real_load_song(song_dir, instruments)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli, "load_song", load_song)
    capsys.readouterr()
    assert main(base + ["--out", str(killed), "--workers", "3"]) == 1
    err = capsys.readouterr().err
    failed = [line for line in err.splitlines() if line.startswith("failed:")]
    assert failed == [f"failed: {song}" for song in killers]

    # Of the songs a broken pool lost, only the three that can have been
    # running rerun alone, and the rest in one pool, however many songs
    # finished before the break; one pool per song would be six.
    assert sizes[0] == 3 and max(sizes) == 3
    if len(killers) == 1:
        lost = [song for pool in pools[1:] for song in pool]
        rest = [lost[3:]] if lost[3:] else []
        assert pools[1:] == [[song] for song in lost[:3]] + rest
        assert killers[0] in lost[:3]
    for song in killers:
        log = json.loads((killed / "logs" / f"{song}.json").read_text())
        assert log["status"] == "error"
        assert log["error"].startswith("BrokenProcessPool: ")
    for song in (f"song{i:02d}" for i in range(6)):
        if song not in killers:
            name = f"logs/{song}.json"
            assert (killed / name).read_bytes() == (clean / name).read_bytes()
    clean_lines = (clean / "scores.csv").read_text().splitlines(keepends=True)
    expected = "".join(line for line in clean_lines if line.split(",")[0] not in killers)
    assert (killed / "scores.csv").read_text() == expected


# The parent kills itself as it starts the song named by argv[1], the
# way an OOM kill would, after it scored every song before it.
_KILLED_AT_SONG = """
import os, signal, sys
from separability import cli

real_load_song = cli.load_song

def load_song(song_dir, instruments):
    if song_dir.name == sys.argv[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_load_song(song_dir, instruments)

cli.load_song = load_song
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("finished", [1, 3])
def test_a_killed_run_keeps_the_log_of_every_song_it_finished(tmp_path, finished):
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=4, seed=5, duration=0.3, n_channels=1)
    clean, killed = tmp_path / "clean", tmp_path / "killed"
    base = ["analyze", "--dataset", str(root)] + FAST_FLAGS
    assert main(base + ["--out", str(clean)]) == 0
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _KILLED_AT_SONG, f"song{finished:02d}", *base, "--out", str(killed)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == -signal.SIGKILL, run.stderr
    kept = [f"logs/song{i:02d}.json" for i in range(finished)]
    assert sorted(str(p.relative_to(killed)) for p in killed.rglob("*") if p.is_file()) == kept
    for name in kept:
        assert (killed / name).read_bytes() == (clean / name).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_each_log_is_written_as_its_song_is_scored(tiny_dataset, tmp_path, monkeypatch, workers):
    written = []
    real_write_text = cli._write_text

    def write_text(path, text):
        written.append(str(path.relative_to(tmp_path)))
        real_write_text(path, text)

    monkeypatch.setattr(cli, "_write_text", write_text)
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path), "--workers", workers]
    assert main(argv + FAST_FLAGS) == 0
    assert written[:2] == ["logs/song00.json", "logs/song01.json"]
    assert sorted(written[2:]) == sorted(
        ["scores.csv", "scores.json", "summary.csv", "summary.json", "separability_curve.csv"]
    )


def test_curve_writes_unsigned_zero_like_scores_csv():
    table = ScoreTable({"command": "test"})
    table.add_row("a", "bass", {"si_sdr": -1e-9})
    curve = _curve_csv(table, table.metadata)
    assert curve.splitlines()[-1] == "bass,1,a,0.000000"
    assert table.to_csv().splitlines()[-1].startswith("a,bass,0.000000,")


def test_analyze_refuses_a_hop_without_overlap_add_before_any_work(tiny_dataset, tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(out_dir), "--hop", "4096"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "window 'hann' size 4096 does not satisfy constant overlap-add at hop 4096" in err
    assert not out_dir.exists()


def test_analyze_without_dataset_or_manifest_is_a_usage_error(capsys):
    assert main(["analyze"]) == 2
    assert "need --dataset or --manifest" in capsys.readouterr().err


# -- rank / select ------------------------------------------------------


def test_rank_to_stdout(analyze_run, capsys):
    _, out_dir = analyze_run
    scores = str(out_dir / "scores.csv")
    code = main(["rank", "--scores", scores, "--metric", "si_sdr", "--instrument", "bass"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "ranking"
    assert payload["metric"] == "si_sdr"
    assert sorted(payload["ranking"]) == ["song00", "song01", "song02"]

    table = ScoreTable.from_csv(Path(scores).read_text())
    values = [table.value(song, "bass", "si_sdr") for song in payload["ranking"]]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("name", ["scores.csv", "scores.json"])
def test_rank_skips_a_leading_byte_order_mark(analyze_run, tmp_path, capsys, name):
    _, out_dir = analyze_run
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + (out_dir / name).read_bytes())
    rankings = []
    for scores in (out_dir / name, marked):
        argv = ["rank", "--scores", str(scores), "--metric", "sdr", "--instrument", "bass"]
        assert main(argv) == 0
        rankings.append(json.loads(capsys.readouterr().out)["ranking"])
    assert rankings[1] == rankings[0] and len(rankings[0]) == 3


def test_select_top_half_takes_ranking_head(analyze_run, tmp_path, capsys):
    _, out_dir = analyze_run
    scores = str(out_dir / "scores.csv")
    code = main(["rank", "--scores", scores, "--metric", "sdr", "--instrument", "drums"])
    ranking = json.loads(capsys.readouterr().out)["ranking"]

    plan_path = tmp_path / "plan.json"
    code = main(
        [
            "select",
            "--scores",
            scores,
            "--metric",
            "sdr",
            "--instrument",
            "drums",
            "--criterion",
            "top",
            "--fraction",
            "0.5",
            "--out",
            str(plan_path),
        ]
    )
    assert code == 0
    plan = json.loads(plan_path.read_text())
    assert plan["criterion"] == "top"
    # 3 songs at fraction 0.5 rounds half up to 2.
    assert plan["selected"] == ranking[:2]
    assert plan["config"]["population"] == "3"


def test_select_random_is_reproducible(analyze_run, tmp_path):
    _, out_dir = analyze_run
    scores = str(out_dir / "scores.csv")
    args = [
        "select",
        "--scores",
        scores,
        "--metric",
        "si_sdr",
        "--instrument",
        "vocals",
        "--criterion",
        "random",
        "--fraction",
        "0.67",
        "--seed",
        "9",
    ]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    plan = json.loads(first.read_text())
    assert plan["seed"] == 9
    assert plan["generator"] == "pcg64"
    assert len(plan["selected"]) == 2


# -- correlate ----------------------------------------------------------


def _handmade_table(scale: float = 1.0, shift: float = 0.0) -> ScoreTable:
    table = ScoreTable({"command": "test"})
    metrics = ("si_sdr", "sdr", "sir", "isr", "sar")
    for i, song in enumerate("abcdef"):
        for j, inst in enumerate(("bass", "drums")):
            base = {m: scale * (i + 0.1 * k + j) + shift for k, m in enumerate(metrics)}
            table.add_row(song, inst, base)
    return table


def test_correlate_affine_tables_agree_perfectly(tmp_path):
    (tmp_path / "a.csv").write_text(_handmade_table().to_csv())
    (tmp_path / "b.csv").write_text(_handmade_table(scale=2.0, shift=1.0).to_csv())
    out_dir = tmp_path / "corr"
    code = main(
        ["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--out", str(out_dir)]
    )
    assert code == 0
    payload = json.loads((out_dir / "correlations.json").read_text())
    for inst in ("bass", "drums"):
        for metric in ("si_sdr", "sdr", "sir", "isr", "sar"):
            assert payload["pearson"][inst][metric] == 1.0
            assert payload["spearman"][inst][metric] == 1.0
    assert (out_dir / "correlations.csv").exists()


def test_correlate_flags_undefined_cells(tmp_path, capsys):
    flat = ScoreTable()
    varied = ScoreTable()
    for i, song in enumerate("abcd"):
        flat.add_row(song, "bass", {"si_sdr": 5.0})  # zero variance
        varied.add_row(song, "bass", {"si_sdr": float(i)})
    (tmp_path / "a.csv").write_text(flat.to_csv())
    (tmp_path / "b.csv").write_text(varied.to_csv())

    code = main(
        ["correlate", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "undefined cell" in capsys.readouterr().err
    payload = json.loads((tmp_path / "o" / "correlations.json").read_text())
    assert payload["pearson"]["bass"]["si_sdr"] is None


@pytest.mark.parametrize("command", ["rank", "correlate"])
def test_table_with_comma_in_a_label_is_rejected(tmp_path, capsys, command):
    # A comma in an instrument label would add a cell to every CSV row written from it.
    rows = [
        {"song_id": song, "instrument": "bass,di", "si_sdr": float(i)}
        for i, song in enumerate("abcd")
    ]
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"format_version": "1", "config": {}, "rows": rows}))
    out = tmp_path / "out"
    if command == "rank":
        argv = ["rank", "--scores", str(scores), "--metric", "si_sdr", "--instrument", "bass,di"]
        argv += ["--out", str(out)]
    else:
        argv = ["correlate", str(scores), str(scores), "--out", str(out)]
    assert main(argv) == 2
    assert "contains ','" in capsys.readouterr().err
    assert not out.exists()


INFINITE_JSON_ROW = '{"rows": [{"song_id": "a", "instrument": "bass", "sdr": Infinity}]}'
NON_STRING_LABEL_ROWS = json.dumps({"rows": [
    {"song_id": None, "instrument": 7, "sdr": 1.0},
    {"song_id": "None", "instrument": "7", "sdr": 2.0},
]})
# One good row, so that only the value under test can fail the read.
GOOD_JSON_ROW = '{"song_id": "a", "instrument": "bass", "sdr": 1.0}'


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("rank", "scores.csv", CSV_HEADER_LINE + "a,bass,abc,1,1,1,1\n", "error: line 2: "),
        ("select", "scores.json", "{not json", "error: not a JSON score table: "),
        ("correlate", "scores.json", "[1, 2]", "error: expected a JSON object at the top level"),
        ("rank", "scores.csv", CSV_HEADER_LINE + "a,bass,1,-inf,1,1,1\n", "error: line 2: "),
        ("select", "scores.json", INFINITE_JSON_ROW, "error: row 0: "),
        ("correlate", "scores.csv", b"bj\xf8rk", "error: {scores}: not UTF-8 text: "),
        ("rank", "scores.csv", CSV_HEADER_LINE + "a,bass,1,,,,\nb,bass,,,,,\na,bass,2,,,,\n",
         "error: line 4: duplicate row for song 'a' instrument 'bass'\n"),
        ("select", "scores.json", INFINITE_JSON_ROW.replace("Infinity", "1" * 400),
         "error: row 0: int too large to convert to float\n"),
        ("correlate", "scores.json", INFINITE_JSON_ROW.replace("Infinity", "1" * 5000),
         "error: not a JSON score table: Exceeds the limit "),
        ("rank", "scores.json", "[" * 100000, "error: not a JSON score table: "),
        ("correlate", "scores.json", INFINITE_JSON_ROW.replace('"sdr": Infinity', '"SDR": 3.0'),
         "error: row 0: unknown metrics in row: ['SDR']\n"),
        # Not read as the song "None" and instrument "7", which row 1 really is.
        ("rank", "scores.json", NON_STRING_LABEL_ROWS,
         "error: row 0: label None is not a string\n"),
        ("select", "scores.json", NON_STRING_LABEL_ROWS.replace("null", '"a"'),
         "error: row 0: label 7 is not a string\n"),
        # float() would read these as 1.0, 1000.0 and missing.
        ("rank", "scores.json", INFINITE_JSON_ROW.replace("Infinity", "true"),
         "error: row 0: sdr True is not a number or null\n"),
        ("select", "scores.json", INFINITE_JSON_ROW.replace("Infinity", '"1e3"'),
         "error: row 0: sdr '1e3' is not a number or null\n"),
        ("correlate", "scores.json", INFINITE_JSON_ROW.replace("Infinity", '" nan "'),
         "error: row 0: sdr ' nan ' is not a number or null\n"),
        # str() would read these back as the text "None" and "[1, 2]".
        ("rank", "scores.json", f'{{"format_version": null, "rows": [{GOOD_JSON_ROW}]}}',
         "error: format_version: None is not a string\n"),
        ("select", "scores.json",
         f'{{"config": {{"dataset": "d", "n": [1, 2]}}, "rows": [{GOOD_JSON_ROW}]}}',
         "error: n: [1, 2] is not a string\n"),
        # float() would read these as missing, 1000.0, 1000.0, 5.0 and 3.0.
        ("rank", "scores.csv", CSV_HEADER_LINE + "a,bass,1,nan,1,1,1\n",
         "error: line 2: score 'nan' is not a decimal number\n"),
        ("select", "scores.csv", CSV_HEADER_LINE + "a,bass,1, 1e3,1,1,1\n",
         "error: line 2: score ' 1e3' is not a decimal number\n"),
        ("correlate", "scores.csv", CSV_HEADER_LINE + "a,bass,1,1,1_000,1,1\n",
         "error: line 2: score '1_000' is not a decimal number\n"),
        ("rank", "scores.csv", CSV_HEADER_LINE + "a,bass,1,1,1,+5,1\n",
         "error: line 2: score '+5' is not a decimal number\n"),
        ("select", "scores.csv", CSV_HEADER_LINE + "a,bass,1,1,1,1,\u0663\n",
         "error: line 2: score '\u0663' is not a decimal number\n"),
        ("rank", "scores.csv", "# format_version=1\n", "error: no header line found\n"),
        ("select", "scores.json", '{"config": [], "rows": []}',
         "error: 'config' must be an object and 'rows' a list\n"),
        ("correlate", "scores.json", '{"rows": [["a", "bass", 1.0]]}',
         "error: row 0: expected an object with song_id and instrument\n"),
    ],
    ids=["csv-cell", "not-json", "json-list", "csv-inf", "json-infinity", "not-utf8",
         "csv-duplicate", "json-overflow", "json-long-integer", "json-deep", "json-unknown-key",
         "json-null-song", "json-integer-instrument", "json-true-score", "json-string-score",
         "json-padded-nan-string", "json-null-version", "json-list-config", "csv-nan",
         "csv-padded-exponent", "csv-underscore", "csv-plus", "csv-non-ascii-digit",
         "csv-no-header", "json-config-list", "json-row-list"],
)
def test_malformed_score_table_is_a_usage_error(tmp_path, capsys, command, name, text, message):
    scores = tmp_path / name
    # The "not-utf8" case is raw bytes, no UTF-8 at all; the others are text.
    scores.write_bytes(text if isinstance(text, bytes) else text.encode())
    message = message.format(scores=scores)
    out = tmp_path / "out"
    pick = ["--scores", str(scores), "--metric", "si_sdr", "--instrument", "bass"]
    argv = {
        "rank": ["rank", *pick],
        "select": ["select", *pick, "--criterion", "top", "--fraction", "0.5"],
        "correlate": ["correlate", str(scores), str(scores)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_table_commands_are_utf8_in_the_c_locale(tmp_path, monkeypatch):
    # The C locale's default text encoding is ASCII; the files are UTF-8 in any locale.
    gen = np.random.default_rng(3)
    rows = [
        f"{song},{inst},{','.join(f'{v:.6f}' for v in gen.normal(0.0, 5.0, 5))}\n"
        for song in ("bjørk", "song01", "song02", "song03")
        for inst in ("bass", "cordés")
    ]
    (tmp_path / "scores.csv").write_bytes((CSV_HEADER_LINE + "".join(rows)).encode("utf-8"))
    # The instrument comes from argv, which the C locale decodes as ASCII.
    commands = [
        ["rank", "--scores", "scores.csv", "--metric", "sdr", "--instrument", "cordés",
         "--out", "{out}/rank.json"],
        ["correlate", "scores.csv", "scores.csv", "--out", "{out}/correlate"],
    ]
    _run_in_both_locales(tmp_path, monkeypatch, commands)
    rank = json.loads((tmp_path / "c" / "rank.json").read_bytes())
    assert rank["instrument"] == "cordés" and "bjørk" in rank["ranking"]
    assert "cordés".encode() in (tmp_path / "c" / "correlate" / "correlations.csv").read_bytes()


def _run_in_both_locales(tmp_path, monkeypatch, commands, code=0):
    """Run each argv in a C-locale subprocess writing under c/ and in-process
    writing under utf8/, both in tmp_path; each run must exit with ``code``
    and the two trees must match.  Returns the C-locale runs' stderr."""
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    monkeypatch.chdir(tmp_path)
    errors = []
    for argv in commands:
        c_locale = subprocess.run(
            [sys.executable, "-m", "separability", *(a.format(out="c") for a in argv)],
            env=env, capture_output=True, text=True,
        )
        assert c_locale.returncode == main([a.format(out="utf8") for a in argv]) == code, c_locale.stderr
        errors.append(c_locale.stderr)
    assert _tree(tmp_path / "c") == _tree(tmp_path / "utf8")
    return errors


def _utf8_named_dataset(root: Path, stem_name: bytes) -> Path:
    """The tiny dataset with song00 renamed bjørk and every vocals.wav renamed stem_name."""
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    (root / "song00").rename(root / "bjørk")
    for song in ("bjørk", "song01"):
        song_dir = os.fsencode(root / song)
        os.rename(os.path.join(song_dir, b"vocals.wav"), os.path.join(song_dir, stem_name))
    (root / "manifest.tsv").write_bytes("bjørk\ttrain\nsong01\ttrain\n".encode("utf-8"))
    return root


def test_dataset_commands_are_utf8_in_the_c_locale(tmp_path, monkeypatch):
    # Song directories, stem files, the dataset path and the instrument flag
    # all cross the filesystem or argv, which the C locale decodes as ASCII.
    _utf8_named_dataset(tmp_path / "dataset-é", "cordés.wav".encode("utf-8"))
    commands = [
        ["analyze", "--dataset", "dataset-é", "--out", "{out}/analyze", *FAST_FLAGS],
        ["mute-plan", "--dataset", "dataset-é", "--instrument", "cordés", "--ratios", "0.5",
         "--out", "{out}/plans"],
    ]
    _run_in_both_locales(tmp_path, monkeypatch, commands)
    analyze = tmp_path / "c" / "analyze"
    assert sorted(p.name for p in (analyze / "logs").iterdir()) == ["bjørk.json", "song01.json"]
    table = ScoreTable.from_csv((analyze / "scores.csv").read_bytes().decode("utf-8"))
    assert table.instruments() == ("bass", "cordés", "drums")
    assert "# dataset=dataset-é\n".encode("utf-8") in (analyze / "scores.csv").read_bytes()
    plan = json.loads((tmp_path / "c" / "plans" / "mute_plan_0.50.json").read_bytes())
    assert plan["instrument"] == "cordés" and plan["muted"] == ["song01"]


def test_names_that_are_not_utf8_are_input_errors(tmp_path, capsys):
    # Latin-1 bytes: a name no UTF-8 text can spell, whatever the locale.
    root = _utf8_named_dataset(tmp_path / "dataset", "cord\xe9s.wav".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["analyze", "--dataset", str(root), "--out", str(out), *FAST_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: name 'cord\\udce9s' is not UTF-8") and err.count("\n") == 1
    assert not out.exists()
    label = os.fsdecode("cord\xe9s".encode("latin-1"))
    assert main(["mute-plan", "--dataset", str(root), "--instrument", label, "--out", str(out)]) == 2
    assert "is not UTF-8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("brk", ["\u2028", "\r"])
def test_a_stem_name_holding_a_line_break_is_an_input_error(tmp_path, monkeypatch, capsys, brk):
    # A line break in an instrument label would split its CSV rows and the
    # '# instruments=' metadata line, so the table could not be read back.
    _utf8_named_dataset(tmp_path / "dataset", f"voc{brk}als.wav".encode("utf-8"))
    commands = [
        ["analyze", "--dataset", "dataset", "--out", "{out}/analyze", *FAST_FLAGS],
        ["mute-plan", "--dataset", "dataset", "--instrument", "bass", "--out", "{out}/plans"],
    ]
    errors = _run_in_both_locales(tmp_path, monkeypatch, commands, code=2)
    assert capsys.readouterr().err == "".join(errors)
    manifest = Path("dataset", "manifest.tsv")
    expected = f"error: {manifest}: {f'voc{brk}als'!r} contains a line break, "
    for err in errors:
        assert err.startswith(expected) and err.count("\n") == 1
    assert not (tmp_path / "c").exists() and not (tmp_path / "utf8").exists()


def test_a_stem_name_that_is_not_utf8_names_its_song_directory(tmp_path, capsys):
    root = _utf8_named_dataset(tmp_path / "dataset", "cord\xe9s.wav".encode("latin-1"))
    assert main(["mute-plan", "--dataset", str(root), "--instrument", "bass", "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: name 'cord\\udce9s' is not UTF-8 in song directory {root / 'bjørk'}\n"


# -- mute-plan ----------------------------------------------------------


def test_mute_plan_default_sweep(fixture_dataset, tmp_path):
    out_dir = tmp_path / "plans"
    code = main(
        ["mute-plan", "--manifest", str(fixture_dataset), "--instrument", "bass", "--out", str(out_dir)]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [f"mute_plan_{r:.2f}.json" for r in DEFAULT_RATIOS]

    # Two train songs: counts follow round-half-up of ratio * 2.
    for ratio in DEFAULT_RATIOS:
        plan = json.loads((out_dir / f"mute_plan_{ratio:.2f}.json").read_text())
        assert plan["instrument"] == "bass"
        assert len(plan["muted"]) == math.floor(ratio * 2 + 0.5)
        assert set(plan["muted"]) <= {"song00", "song01"}  # never the test split
        assert plan["config"]["train_population"] == "2"


def test_mute_plan_explicit_ratio_list(fixture_dataset, tmp_path):
    out_dir = tmp_path / "plans"
    code = main(
        [
            "mute-plan",
            "--manifest",
            str(fixture_dataset),
            "--instrument",
            "drums",
            "--ratios",
            "0.5,1.0",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["mute_plan_0.50.json", "mute_plan_1.00.json"]
    full = json.loads((out_dir / "mute_plan_1.00.json").read_text())
    assert full["muted"] == ["song00", "song01"]


def test_mute_plan_rejects_unknown_instrument(fixture_dataset, tmp_path, capsys):
    code = main(
        [
            "mute-plan",
            "--manifest",
            str(fixture_dataset),
            "--instrument",
            "kazoo",
            "--out",
            str(tmp_path / "plans"),
        ]
    )
    assert code == 2
    assert "kazoo" in capsys.readouterr().err
    assert not (tmp_path / "plans").exists()


def test_mute_plan_validates_ratios_before_writing(fixture_dataset, tmp_path, capsys):
    out_dir = tmp_path / "plans"
    for ratios in ("0.2,1.5", "", ",", "0.1,abc"):
        code = main(
            [
                "mute-plan",
                "--manifest",
                str(fixture_dataset),
                "--instrument",
                "bass",
                "--ratios",
                ratios,
                "--out",
                str(out_dir),
            ]
        )
        assert code == 2, ratios
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "ratios, first, second, name",
    [
        ("0.001,0.004,0.5", "0.001", "0.004", "mute_plan_0.00.json"),
        ("0.05,0.05", "0.05", "0.05", "mute_plan_0.05.json"),
    ],
)
def test_mute_plan_ratios_sharing_a_file_name_are_input_errors(
    fixture_dataset, tmp_path, capsys, ratios, first, second, name
):
    out_dir = tmp_path / "plans"
    argv = ["mute-plan", "--manifest", str(fixture_dataset), "--instrument", "bass"]
    assert main(argv + ["--ratios", ratios, "--out", str(out_dir)]) == 2
    assert f"ratios {first} and {second} both write {name}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["select", "--criterion", "random", "--seed", "-1"], {}, "seed must be >= 0"),
        (["mute-plan", "--seed", "-1"], {}, "seed must be >= 0"),
        (["analyze", "--alpha", "inf"], {}, "alpha must be finite"),
        (["analyze"], {"SEPARABILITY_ALPHA": "inf"}, "alpha must be finite"),
        (["analyze", "--workers", "-3"], {}, "--workers must be >= 1"),
        (["analyze"], {"SEPARABILITY_WORKERS": "0"}, "--workers must be >= 1"),
    ],
    ids=["select-seed", "mute-plan-seed", "alpha-flag", "alpha-env", "workers-flag", "workers-env"],
)
def test_values_a_command_cannot_use_are_input_errors(
    tiny_dataset, tmp_path, monkeypatch, capsys, argv, env, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    command, *flags = argv
    out = tmp_path / "out"
    table = tmp_path / "scores.csv"
    table.write_text(CSV_HEADER_LINE + "a,bass,1,1,1,1,1\nb,bass,2,2,2,2,2\n")
    inputs = {
        "select": ["--scores", str(table), "--metric", "sdr", "--instrument", "bass",
                   "--fraction", "0.5", "--out", str(out)],
        "mute-plan": ["--dataset", str(tiny_dataset), "--instrument", "bass", "--out", str(out)],
        "analyze": ["--dataset", str(tiny_dataset), "--out", str(out), "--filter-len", "2"],
    }[command]
    assert main([command, *flags, *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


# -- environment overrides ----------------------------------------------


def test_env_variable_feeds_defaults(monkeypatch):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "512")
    monkeypatch.setenv("SEPARABILITY_HOP", "256")
    assert main(["check-cola"]) == 1  # hann at half overlap fails the check


def test_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "512")
    monkeypatch.setenv("SEPARABILITY_HOP", "256")
    assert main(["check-cola", "--hop", "128"]) == 0
    # An explicit filter length wins over both variables that can set one.
    monkeypatch.setenv("SEPARABILITY_FAST_METRICS", "1")
    monkeypatch.setenv("SEPARABILITY_FILTER_LEN", "3")
    args = cli.build_parser().parse_args(["analyze", "--filter-len", "25"])
    cli._apply_environment(args)
    assert cli._configs(args)[2].filter_length == 25


@pytest.mark.parametrize("word", ["0", "off"])
def test_a_false_fast_metrics_variable_leaves_the_filter_length(monkeypatch, word):
    monkeypatch.setenv("SEPARABILITY_FAST_METRICS", word)
    monkeypatch.setenv("SEPARABILITY_FILTER_LEN", "3")
    args = cli.build_parser().parse_args(["analyze"])
    cli._apply_environment(args)
    assert cli._configs(args)[2].filter_length == 3


def test_a_fast_metrics_variable_that_is_not_a_boolean_is_a_usage_error(
    tiny_dataset, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SEPARABILITY_FAST_METRICS", "maybe")
    out = tmp_path / "out"
    assert main(["analyze", "--dataset", str(tiny_dataset), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad value for SEPARABILITY_FAST_METRICS: not a boolean: 'maybe'" in err
    assert not out.exists()


def test_bad_env_value_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "not-a-number")
    assert main(["check-cola"]) == 2
    assert "SEPARABILITY_WINDOW_SIZE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value, key, expected",
    [
        ("WINDOW_SIZE", "8192", "window_size", "8192"),
        ("HOP", "512", "hop_size", "512"),
        ("WINDOW_KIND", "rect", "window_kind", "rect"),
        ("ALPHA", "1.0", "alpha", "1.0"),
        ("FILTER_LEN", "3", "filter_length", "3"),
        ("FAST_METRICS", "yes", "filter_length", "1"),
        ("SEED", "7", "seed", "7"),
    ],
)
def test_env_variable_reaches_the_scores_header(
    tiny_dataset, tmp_path, monkeypatch, name, value, key, expected
):
    monkeypatch.setenv(f"SEPARABILITY_{name}", value)
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path)]
    if name not in ("FILTER_LEN", "FAST_METRICS"):
        argv += ["--filter-len", "2"]
    assert main(argv) == 0
    assert _metadata_lines((tmp_path / "scores.csv").read_text())[key] == expected


@pytest.mark.parametrize("name", ["DATASET", "MANIFEST"])
def test_env_variable_names_the_dataset(tiny_dataset, tmp_path, monkeypatch, name):
    manifest = tiny_dataset / "manifest.tsv"
    monkeypatch.setenv(f"SEPARABILITY_{name}", str(tiny_dataset if name == "DATASET" else manifest))
    assert main(["analyze", "--out", str(tmp_path)] + FAST_FLAGS) == 0
    meta = _metadata_lines((tmp_path / "scores.csv").read_text())
    assert (meta["dataset"], meta["manifest"]) == (str(tiny_dataset), str(manifest))


def test_env_variable_names_the_output_directory(tiny_dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("SEPARABILITY_OUT", str(tmp_path / "from_env"))
    assert main(["analyze", "--dataset", str(tiny_dataset)] + FAST_FLAGS) == 0
    assert (tmp_path / "from_env" / "scores.csv").exists()


def test_env_variable_sets_the_worker_count(tiny_dataset, tmp_path, monkeypatch):
    seen = []

    def serial(run, jobs, workers, keep):
        seen.append(workers)
        return [keep(run(job)) for job in jobs]

    monkeypatch.setattr(cli, "_pool_results", serial)
    monkeypatch.setenv("SEPARABILITY_WORKERS", "3")
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path)] + FAST_FLAGS
    assert main(argv) == 0
    assert seen == [3]


def test_pool_starts_no_more_workers_than_songs(tiny_dataset, tmp_path, monkeypatch):
    # Under fork a pool starts every one of its max_workers processes at
    # the first submit, whether or not a job is left for it.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    argv = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path), "--workers", "8"]
    assert main(argv + FAST_FLAGS) == 0
    assert sizes == [2]


def test_a_pool_that_breaks_while_songs_are_submitted_loses_none(tmp_path, monkeypatch):
    # The first pool breaks at its third submit, so songs 2-5 never start
    # there: the first three rerun alone, as songs that may have been
    # running would, and the fourth in a pool sized to it.
    root = tmp_path / "ds"
    write_fixture_dataset(root, n_songs=6, seed=5, duration=0.3, n_channels=1)
    base = ["analyze", "--dataset", str(root)] + FAST_FLAGS
    assert main(base + ["--out", str(tmp_path / "clean")]) == 0
    sizes = []

    class BreakingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            self.submits = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.submits += 1
            if len(sizes) == 1 and self.submits == 3:
                raise BrokenProcessPool("a worker died")
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", BreakingPool)
    assert main(base + ["--out", str(tmp_path / "broken"), "--workers", "3"]) == 0
    assert sizes == [3, 1, 1, 1, 1]
    assert _tree(tmp_path / "broken") == _tree(tmp_path / "clean")
