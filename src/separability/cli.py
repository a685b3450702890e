"""Command-line front end.

Commands: analyze, rank, select, correlate, mute-plan, check-cola.
Eleven flags can also be supplied through an environment variable
named SEPARABILITY_<FLAG>: WINDOW_SIZE, HOP, WINDOW_KIND, ALPHA,
FILTER_LEN, FAST_METRICS, SEED, OUT, DATASET, MANIFEST and WORKERS.
``main`` applies the environment once, before the command runs: every
one of these flags the command has but was not given takes its
variable's value.  Explicit flags win over the environment, the
environment wins over defaults.

Exit codes: 0 success, 1 partial failure (some songs failed, or the
correlation grid has undefined cells, or a COLA check fails), 2 invalid
configuration or input.

All outputs are deterministic: fixed row ordering, fixed float
formatting, a pinned random generator, and no timestamps.  Re-running a
command with identical inputs reproduces its files byte for byte.  Every
file is written to a temporary name in its directory and then renamed,
so an interrupted command leaves the previous file or the new one,
never a truncated one.

``analyze`` scores every song on one BLAS thread per process, whatever
the environment says: song workers are the unit of parallelism, and a
BLAS reduction split over a machine-dependent number of threads would
make the last bits of a score depend on the core count.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy
import scipy

from .analysis import (
    CRITERIA,
    GENERATOR_ID,
    correlate_tables,
    plan_mutes,
    rank_songs,
    select_subset,
)
from .dataset import fs_name, load_manifest, load_song, make_mixture, normalize_loudness, utf8_name
from .errors import InvalidInputError, SeparabilityError
from .irm import OracleConfig, oracle_separate
from .metrics import METRICS, MetricConfig, ScoringReport, aggregate_song, framewise_scores
from .scores import (
    FORMAT_VERSION,
    ScoreTable,
    aggregate_dataset,
    document,
    envelope,
    format_score,
    metadata_fault,
    metric_json,
    summary_to_csv,
    write_csv,
    write_json,
)
from .stft import WINDOW_KINDS, StftConfig, check_cola, require_cola

ENV_PREFIX = "SEPARABILITY_"

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# The flags an environment variable can supply, by argparse dest: the
# variable is ENV_PREFIX + key.upper(), and its text goes through the cast.
# FAST_METRICS feeds filter_len, as its flag does, and wins over FILTER_LEN.
ENV_CASTS = {
    "window_size": int, "hop": int, "window_kind": str, "alpha": float,
    "fast_metrics": lambda raw: 1 if _parse_bool(raw) else None, "filter_len": int,
    "seed": int, "out": str, "dataset": str, "manifest": str, "workers": int,
}
_ENV_DESTS = {"fast_metrics": "filter_len"}


def _apply_environment(args) -> None:
    """Give every flag of the command that was not given its variable's value."""
    for key, cast in ENV_CASTS.items():
        name, dest = ENV_PREFIX + key.upper(), _ENV_DESTS.get(key, key)
        # A flag the command lacks is absent from args; one not given is None.
        if name in os.environ and dest in vars(args) and getattr(args, dest) is None:
            try:
                setattr(args, dest, cast(os.environ[name]))
            except (TypeError, ValueError) as exc:
                raise SeparabilityError(f"bad value for {name}: {exc}") from None


def _write_text(path: Path | str | None, text: str) -> None:
    """Write ``text`` to ``path`` atomically, or to stdout when ``path`` is None.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; a failed write removes the temporary
    file and leaves any previous ``path`` untouched.
    """
    if path is None:
        sys.stdout.write(text)
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_table(path: Path) -> ScoreTable:
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is skipped
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc}") from None
    if path.suffix.lower() == ".json":
        return ScoreTable.from_json(text)
    return ScoreTable.from_csv(text)


# -- configuration -----------------------------------------------------


def _given(**fields) -> dict:
    """The fields whose flag was given; every other one keeps its class default."""
    return {name: value for name, value in fields.items() if value is not None}


def _stft_config(args) -> StftConfig:
    return StftConfig(
        **_given(window_size=args.window_size, hop_size=args.hop, window_kind=args.window_kind)
    )


def _configs(args) -> tuple[StftConfig, OracleConfig, MetricConfig]:
    """The configs of the DSP flags given."""
    return (
        _stft_config(args),
        OracleConfig(**_given(alpha=args.alpha)),
        MetricConfig(**_given(filter_length=args.filter_len)),
    )


def _out_dir(args) -> Path:
    return Path("separability_out" if args.out is None else args.out)


def _dataset_and_manifest(args) -> tuple[Path, Path]:
    """--dataset and --manifest, each derived from the other when only one is given."""
    if args.dataset is None and args.manifest is None:
        raise SeparabilityError("need --dataset or --manifest")
    manifest = Path(args.dataset) / "manifest.tsv" if args.manifest is None else Path(args.manifest)
    dataset = manifest.parent if args.dataset is None else Path(args.dataset)
    return dataset, manifest


def _dsp_metadata(
    stft_config: StftConfig, oracle_config: OracleConfig, metric_config: MetricConfig
) -> dict[str, str]:
    return {
        "window_kind": stft_config.window_kind,
        "window_size": str(stft_config.window_size),
        "hop_size": str(stft_config.hop_size),
        "center": str(stft_config.center).lower(),
        "alpha": str(oracle_config.alpha),
        "window_length": str(metric_config.window_length),
        "window_hop": str(metric_config.window_hop),
        "filter_length": str(metric_config.filter_length),
        "silence_threshold": str(metric_config.silence_threshold),
        "db_cap": str(metric_config.db_cap),
    }


# -- analyze -----------------------------------------------------------


# NumPy's and SciPy's wheels each bundle an OpenBLAS: (package, library
# glob relative to its site directory, suffix of the exported symbols).
_OPENBLAS_LIBRARIES = (
    (numpy, "numpy.libs/libscipy_openblas64_*", "64_"),
    (scipy, "scipy.libs/libscipy_openblas-*", ""),
)


@functools.cache
def _openblas_thread_controls() -> tuple[tuple, ...]:
    """``(get, set)`` thread-count functions of every bundled OpenBLAS found.

    Empty when NumPy and SciPy were not installed from wheels that
    bundle OpenBLAS.  The lookup runs on the first call, never at import,
    and once per process: a worker forked after it inherits the handles
    instead of faulting the loader's pages in again.
    """
    controls = []
    for package, pattern, suffix in _OPENBLAS_LIBRARIES:
        site = Path(package.__file__).resolve().parent.parent
        for path in sorted(site.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


def _pin_blas_threads() -> None:
    """Pool initializer: run every BLAS call of this worker on one thread."""
    for get_threads, set_threads in _openblas_thread_controls():
        if get_threads() != 1:  # a worker forked from the pinned parent is already
            set_threads(1)


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's counts."""
    controls = _openblas_thread_controls()
    if not controls:
        print("note: no bundled OpenBLAS found; BLAS threads are not pinned", file=sys.stderr)
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, saved):
            set_threads(count)


def _song_log(job, error=None, instruments=(), report=None, frames=()) -> dict:
    """The log of the song ``job`` names, in file order, with float scores.

    A failed song passes its ``error`` and gets zero counts and no scores.
    A plain dict pickles cheaply and identically whichever process built it.
    """
    _, song_id, split = job
    report = ScoringReport() if report is None else report
    return {
        "format_version": FORMAT_VERSION,
        "song_id": song_id,
        "split": split,
        "status": "ok" if error is None else "error",
        "error": None if error is None else f"{type(error).__name__}: {error}",
        "n_windows": frames[0].n_windows if frames else 0,
        "windows_scored": report.windows_scored,
        "silent_windows": dict(zip(instruments, report.silent_windows)),
        "tail_samples_unscored": report.tail_samples_unscored,
        "solver_fallbacks": {
            "dense": report.dense_fallback,
            "ridge": report.ridge,
            "lstsq": report.lstsq,
        },
        "scores": {inst: aggregate_song(fr) for inst, fr in zip(instruments, frames)},
    }


def _song_job(instruments, stft_config, oracle_config, metric_config, normalize, job) -> dict:
    """Score one song and return its log; runs in a worker process, shares nothing.

    ``cmd_analyze`` binds the run's settings once, so a job is just the
    song: ``(song_dir, song_id, split)``, the id and split as the manifest
    spells them.
    """
    try:
        song = load_song(job[0], instruments)
        if normalize:
            song = normalize_loudness(song)
        stems = [song.stems[inst] for inst in instruments]
        estimates = oracle_separate(make_mixture(song), stems, stft_config, oracle_config)
        report = ScoringReport()
        frames = framewise_scores(stems, estimates, metric_config, report)
    except Exception as exc:
        return _song_log(job, error=exc)
    return _song_log(job, instruments=instruments, report=report, frames=frames)


def _pool_results(run, jobs: list, workers: int) -> list[dict]:
    """The logs ``run`` gives ``jobs``, in a pool of ``workers`` processes, in job order.

    A worker that dies (OOM kill, native crash) breaks the pool.  Songs
    start in job order and results sent before the break are read, so a
    song then running is among the first ``workers`` lost: each reruns
    alone (an error row if its worker dies again), the rest together at
    full width, where a culprit would be isolated, so no output relies on it.
    """
    results: list[dict | None] = [None] * len(jobs)
    # Under fork the pool starts all max_workers processes at the first
    # submit, so a process no job would use is never created.
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
        futures = []
        for job in jobs:
            try:
                futures.append(pool.submit(run, job))
            except BrokenProcessPool:
                break
        for i, future in enumerate(futures):
            with suppress(BrokenProcessPool):
                results[i] = future.result()
    lost = [i for i, log in enumerate(results) if log is None]
    if lost and len(jobs) == 1:  # the song broke a pool of its own
        return [_song_log(jobs[0], error=futures[0].exception())]
    for i in lost[:workers]:
        results[i] = _pool_results(run, [jobs[i]], 1)[0]
    if rest := lost[workers:]:
        for i, log in zip(rest, _pool_results(run, [jobs[i] for i in rest], workers)):
            results[i] = log
    return results


def _curve_csv(table: ScoreTable, metadata: dict[str, str]) -> str:
    """Long-format ranking curve: per instrument, songs by descending SI-SDR."""
    rows = [
        [instrument, str(rank), song_id, format_score(table.value(song_id, instrument, "si_sdr"))]
        for instrument in table.instruments()
        for rank, song_id in enumerate(rank_songs(table, "si_sdr", instrument), start=1)
    ]
    return write_csv(metadata, "instrument,rank,song_id,si_sdr", rows)


def cmd_analyze(args) -> int:
    dataset, manifest_path = _dataset_and_manifest(args)
    out_dir = _out_dir(args)
    if args.workers is not None and args.workers < 1:
        raise InvalidInputError(f"--workers must be >= 1, got {args.workers}")
    workers = args.workers or 1
    seed = args.seed or 0
    stft_config, oracle_config, metric_config = _configs(args)
    # An invalid overlap-add pair would fail every song; refuse it before any work.
    require_cola(stft_config)
    normalize = bool(args.normalize)

    manifest = load_manifest(manifest_path, root=dataset)
    jobs = [
        (manifest.song_dir(song_id), song_id, split) for song_id, split in sorted(manifest.entries)
    ]
    run = functools.partial(
        _song_job, manifest.instruments, stft_config, oracle_config, metric_config, normalize
    )

    metadata = {
        "command": "analyze",
        "dataset": utf8_name(str(dataset)),
        "manifest": utf8_name(str(manifest_path)),
        "instruments": "|".join(manifest.instruments),
        "normalize": str(normalize).lower(),
        **_dsp_metadata(stft_config, oracle_config, metric_config),
        "seed": str(seed),
        "generator": GENERATOR_ID,
    }
    # A path holding a line break would split its '# key=value' line.
    if fault := metadata_fault(metadata):
        raise InvalidInputError(fault)
    # An output directory that cannot be made would lose every song's work.
    out_dir.mkdir(parents=True, exist_ok=True)

    with _one_blas_thread():
        if workers <= 1:
            logs = [run(job) for job in jobs]
        else:
            logs = _pool_results(run, jobs, workers)

    table = ScoreTable(metadata)
    for log in logs:
        for inst, values in log["scores"].items():
            table.add_row(log["song_id"], inst, values)

    _write_text(out_dir / "scores.csv", table.to_csv())
    _write_text(out_dir / "scores.json", table.to_json())
    summary = aggregate_dataset(table)
    _write_text(out_dir / "summary.csv", summary_to_csv(summary, metadata))
    summary_payload = {inst: metric_json(values) for inst, values in summary.items()}
    _write_text(out_dir / "summary.json", write_json(envelope(metadata, summary=summary_payload)))
    _write_text(out_dir / "separability_curve.csv", _curve_csv(table, metadata))

    for log in logs:
        scores = {inst: metric_json(values) for inst, values in log["scores"].items()}
        log_name = fs_name(f"{log['song_id']}.json")
        _write_text(out_dir / "logs" / log_name, write_json({**log, "scores": scores}))

    failed = [log["song_id"] for log in logs if log["status"] != "ok"]
    for song_id in failed:
        print(f"failed: {song_id}", file=sys.stderr)
    print(f"analyzed {len(logs) - len(failed)}/{len(logs)} songs -> {out_dir}")
    return 1 if failed else 0


# -- rank / select ------------------------------------------------------


def cmd_rank(args) -> int:
    table = _load_table(Path(args.scores))
    ranking = rank_songs(table, args.metric, args.instrument)
    config = {"command": "rank", "scores": utf8_name(args.scores)}
    body = {"metric": args.metric, "instrument": args.instrument, "ranking": ranking}
    _write_text(args.out, write_json(document("ranking", config, **body)))
    return 0


def cmd_select(args) -> int:
    table = _load_table(Path(args.scores))
    ranking = rank_songs(table, args.metric, args.instrument)
    plan = select_subset(
        ranking,
        args.criterion,
        args.fraction,
        seed=args.seed or 0,
        metric=args.metric,
        instrument=args.instrument,
    )
    metadata = {
        "command": "select",
        "scores": utf8_name(args.scores),
        "population": str(len(ranking)),
    }
    _write_text(args.out, plan.to_json(metadata))
    return 0


# -- correlate ----------------------------------------------------------


def cmd_correlate(args) -> int:
    metadata = {
        "command": "correlate",
        "scores_a": utf8_name(args.scores_a),
        "scores_b": utf8_name(args.scores_b),
    }
    if fault := metadata_fault(metadata):
        raise InvalidInputError(fault)
    grid = correlate_tables(_load_table(Path(args.scores_a)), _load_table(Path(args.scores_b)))
    out_dir = _out_dir(args)
    _write_text(out_dir / "correlations.csv", grid.to_csv(metadata))
    _write_text(out_dir / "correlations.json", grid.to_json(metadata))
    for line in grid.diagnostics:
        print(f"undefined cell: {line}", file=sys.stderr)
    print(f"correlations -> {out_dir}")
    return 1 if grid.has_missing() else 0


# -- mute-plan ----------------------------------------------------------

DEFAULT_RATIOS = tuple(i / 20 for i in range(10))  # 0.00 .. 0.45 step 0.05


def _parse_ratios(raw: str) -> tuple[float, ...]:
    try:
        ratios = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise SeparabilityError(f"bad ratio list {raw!r}: {exc}") from None
    if not ratios:
        raise SeparabilityError(f"bad ratio list {raw!r}: no ratios")
    return ratios


def cmd_mute_plan(args) -> int:
    dataset, manifest_path = _dataset_and_manifest(args)
    manifest = load_manifest(manifest_path, root=dataset)
    seed = args.seed or 0
    ratios = DEFAULT_RATIOS if args.ratios is None else _parse_ratios(args.ratios)
    out_dir = _out_dir(args)

    # Validate every ratio before the first file is written.
    names = [f"mute_plan_{ratio:.2f}.json" for ratio in ratios]
    for i, name in enumerate(names):
        if name in names[:i]:
            first = ratios[names.index(name)]
            raise InvalidInputError(f"ratios {first} and {ratios[i]} both write {name}")
    plans = [plan_mutes(manifest, args.instrument, ratio, seed) for ratio in ratios]

    metadata = {
        "command": "mute-plan",
        "manifest": utf8_name(str(manifest_path)),
        "train_population": str(len(manifest.song_ids("train"))),
    }
    for name, plan in zip(names, plans):
        _write_text(out_dir / name, plan.to_json(metadata))
    print(f"wrote {len(plans)} mute plans -> {out_dir}")
    return 0


# -- check-cola ---------------------------------------------------------


def cmd_check_cola(args) -> int:
    stft_config = _stft_config(args)
    report = check_cola(stft_config)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{verdict}: window={stft_config.window_kind} size={stft_config.window_size} "
        f"hop={stft_config.hop_size} max_deviation={report.max_deviation:.3e} "
        f"overlap_gain={report.overlap_gain:.6f}"
    )
    return 0 if report.passed else 1


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="separability",
        description="Oracle-mask separability analysis of multitrack music datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    framing = argparse.ArgumentParser(add_help=False)
    framing.add_argument("--window-size", type=int, help="analysis window length in samples")
    framing.add_argument("--hop", type=int, help="analysis hop in samples")
    framing.add_argument("--window-kind", choices=WINDOW_KINDS, help="window taper")

    dsp = argparse.ArgumentParser(add_help=False)
    dsp.add_argument("--alpha", type=float, help="mask magnitude exponent")
    taps = dsp.add_mutually_exclusive_group()
    taps.add_argument("--filter-len", type=int, help="distortion filter taps")
    taps.add_argument(
        "--fast-metrics",
        dest="filter_len",
        action="store_const",
        const=1,
        help="gain-only decomposition (same as --filter-len 1)",
    )

    seed_arg = argparse.ArgumentParser(add_help=False)
    seed_arg.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser(
        "analyze", parents=[framing, dsp, seed_arg], help="score every song of a dataset"
    )
    p.add_argument("--dataset", help="dataset root directory")
    p.add_argument("--manifest", help="manifest path (default <dataset>/manifest.tsv)")
    p.add_argument("--out", help="output directory (default separability_out)")
    p.add_argument("--workers", type=int, help="parallel song workers (default 1)")
    p.add_argument(
        "--normalize",
        action="store_true",
        help="equalize stem loudness before mixing",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rank", help="order songs by a metric for one instrument")
    p.add_argument("--scores", required=True, help="scores.csv or scores.json")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--instrument", required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", parents=[seed_arg], help="cut a subset from the ranking")
    p.add_argument("--scores", required=True, help="scores.csv or scores.json")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--instrument", required=True)
    p.add_argument("--criterion", required=True, choices=CRITERIA)
    p.add_argument("--fraction", required=True, type=float)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("correlate", help="correlate two score tables cell by cell")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    p.add_argument("--out", help="output directory (default separability_out)")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser(
        "mute-plan", parents=[seed_arg], help="plan seeded stem muting over the train split"
    )
    p.add_argument("--dataset", help="dataset root directory")
    p.add_argument("--manifest", help="manifest path (default <dataset>/manifest.tsv)")
    p.add_argument("--instrument", required=True)
    p.add_argument(
        "--ratios",
        help="comma-separated mute ratios (default 0.00..0.45 step 0.05)",
    )
    p.add_argument("--out", help="output directory (default separability_out)")
    p.set_defaults(func=cmd_mute_plan)

    p = sub.add_parser("check-cola", parents=[framing], help="report the overlap-add condition")
    p.set_defaults(func=cmd_check_cola)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_environment(args)
        if "instrument" in vars(args):
            # A label from argv meets labels read from UTF-8 files and names.
            args.instrument = utf8_name(args.instrument)
        return args.func(args)
    except (SeparabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
