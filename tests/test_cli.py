"""End-to-end runs of the command line interface.

Heavy commands run against the shared synthetic dataset with reduced
analysis settings so the whole module stays fast.
"""

import contextlib
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from separability import ScoreTable, cli
from separability.cli import DEFAULT_RATIOS, _curve_csv, main
from separability.synth import write_fixture_dataset

FAST_FLAGS = ["--fast-metrics", "--window-size", "1024", "--hop", "256"]


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


# -- analyze ------------------------------------------------------------


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
    for name in ("scores.csv", "summary.json", "separability_curve.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


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


@pytest.mark.parametrize("renamed", ["song", "stem"])
def test_analyze_rejects_comma_in_labels(tmp_path, capsys, renamed):
    # A comma in a song id or instrument label would add a cell to its CSV rows.
    root = tmp_path / "comma"
    write_fixture_dataset(root, n_songs=2, seed=5, duration=0.3, n_channels=1)
    if renamed == "song":
        (root / "song01").rename(root / "song,01")
        manifest = root / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("song01", "song,01"))
    else:
        for song in ("song00", "song01"):
            (root / song / "bass.wav").rename(root / song / "bass,di.wav")

    out_dir = tmp_path / "out"
    code = main(["analyze", "--dataset", str(root), "--out", str(out_dir)] + FAST_FLAGS)
    assert code == 2
    assert "contains ','" in capsys.readouterr().err
    assert not out_dir.exists()


# -- BLAS threads and worker deaths ---------------------------------------


def _blas_threads() -> tuple[int, ...]:
    return tuple(get() for get, _ in cli._openblas_thread_controls())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_songs_are_scored_on_one_blas_thread(tiny_dataset, tmp_path, monkeypatch, workers):
    if workers == "2":
        # Leave the parent unpinned, so that each pool worker has to pin itself.
        monkeypatch.setattr(cli, "_one_blas_thread", contextlib.nullcontext)
    probe = tmp_path / "probe.txt"
    real_load_song = cli.load_song

    def load_song(song_dir, instruments):
        with open(probe, "a") as fh:
            fh.write(f"{os.getpid()} {_blas_threads()}\n")
        return real_load_song(song_dir, instruments)

    monkeypatch.setattr(cli, "load_song", load_song)
    base = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "out")]
    assert main(base + FAST_FLAGS + ["--workers", workers]) == 0
    lines = probe.read_text().splitlines()
    assert len(lines) == 2
    assert {line.split(" ", 1)[1] for line in lines} == {"(1, 1)"}


def test_pool_initializer_pins_a_spawned_worker():
    # A spawned worker inherits nothing from the parent's BLAS state.
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, context, initializer=cli._pin_blas_threads) as pool:
        assert pool.submit(_blas_threads).result(timeout=120) == (1, 1)


def test_analyze_restores_the_callers_blas_threads(tiny_dataset, tmp_path, monkeypatch):
    controls = cli._openblas_thread_controls()
    saved = [get() for get, _ in controls]
    base = ["analyze", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "out")]
    try:
        for _, set_threads in controls:
            set_threads(2)
        assert main(base + FAST_FLAGS) == 0
        assert _blas_threads() == (2, 2)

        def fail(payload):
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


def test_curve_writes_unsigned_zero_like_scores_csv():
    table = ScoreTable({"command": "test"})
    table.add_row("a", "bass", {"si_sdr": -1e-9})
    curve = _curve_csv(table, table.metadata)
    assert curve.splitlines()[-1] == "bass,1,a,0.000000"
    assert table.to_csv().splitlines()[-1].startswith("a,bass,0.000000,")


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
    code = main(
        [
            "mute-plan",
            "--manifest",
            str(fixture_dataset),
            "--instrument",
            "bass",
            "--ratios",
            "0.2,1.5",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 2
    assert not out_dir.exists()


# -- environment overrides ----------------------------------------------


def test_env_variable_feeds_defaults(monkeypatch):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "512")
    monkeypatch.setenv("SEPARABILITY_HOP", "256")
    assert main(["check-cola"]) == 1  # hann at half overlap fails the check


def test_flag_beats_environment(monkeypatch):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "512")
    monkeypatch.setenv("SEPARABILITY_HOP", "256")
    assert main(["check-cola", "--hop", "128"]) == 0


def test_bad_env_value_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SEPARABILITY_WINDOW_SIZE", "not-a-number")
    assert main(["check-cola"]) == 2
    assert "SEPARABILITY_WINDOW_SIZE" in capsys.readouterr().err
