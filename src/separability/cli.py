"""Command-line front end.

Commands: analyze, rank, select, correlate, mute-plan, check-cola.
Twelve flags can also be supplied through an environment variable
named SEPARABILITY_<FLAG>: WINDOW_SIZE, HOP, WINDOW_KIND, ALPHA,
ZERO_BIN_POLICY, FILTER_LEN, FAST_METRICS, SEED, OUT, DATASET, MANIFEST
and WORKERS.  Explicit flags win over the environment, the environment
wins over defaults.

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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy
import scipy

from .analysis import (
    GENERATOR_ID,
    correlate_tables,
    plan_mutes,
    rank_songs,
    select_subset,
)
from .dataset import load_manifest, load_song, make_mixture, normalize_loudness
from .errors import SeparabilityError
from .irm import ZERO_BIN_POLICIES, OracleConfig, oracle_separate
from .metrics import METRICS, MetricConfig, ScoringReport, aggregate_song, framewise_scores
from .scores import (
    FORMAT_VERSION,
    ScoreTable,
    aggregate_dataset,
    envelope,
    format_score,
    metric_json,
    summary_to_csv,
    write_csv,
    write_json,
)
from .stft import WINDOW_KINDS, StftConfig, check_cola

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


def _resolve(flag_value, env_name: str, cast, default):
    """flag > environment > default, with cast errors reported as config errors."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_PREFIX + env_name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise SeparabilityError(f"bad value for {ENV_PREFIX}{env_name}: {exc}") from None


def _write_text(path: Path | None, text: str) -> None:
    """Write ``text`` to ``path`` atomically, or to stdout when ``path`` is None.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; a failed write removes the temporary
    file and leaves any previous ``path`` untouched.
    """
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_table(path: Path) -> ScoreTable:
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return ScoreTable.from_json(text)
    return ScoreTable.from_csv(text)


# -- configuration resolution -----------------------------------------


def _resolve_dsp(args) -> tuple[StftConfig, OracleConfig, MetricConfig]:
    stft_default, oracle_default, metric_default = StftConfig(), OracleConfig(), MetricConfig()
    window_size = _resolve(
        getattr(args, "window_size", None), "WINDOW_SIZE", int, stft_default.window_size
    )
    hop = _resolve(getattr(args, "hop", None), "HOP", int, stft_default.hop_size)
    window_kind = _resolve(
        getattr(args, "window_kind", None), "WINDOW_KIND", str, stft_default.window_kind
    )
    alpha = _resolve(getattr(args, "alpha", None), "ALPHA", float, oracle_default.alpha)
    zero_bin = _resolve(
        getattr(args, "zero_bin_policy", None),
        "ZERO_BIN_POLICY",
        str,
        oracle_default.zero_bin_policy,
    )
    filter_len = _resolve(
        getattr(args, "filter_len", None), "FILTER_LEN", int, metric_default.filter_length
    )
    fast = _resolve(
        True if getattr(args, "fast_metrics", False) else None,
        "FAST_METRICS",
        _parse_bool,
        False,
    )
    if fast:
        filter_len = 1
    stft_config = StftConfig(window_size, hop, window_kind)
    oracle_config = OracleConfig(alpha, zero_bin)
    metric_config = MetricConfig(filter_length=filter_len)
    return stft_config, oracle_config, metric_config


def _resolve_seed(args) -> int:
    return _resolve(getattr(args, "seed", None), "SEED", int, 0)


def _resolve_out(args, default: str | None) -> Path | None:
    raw = _resolve(getattr(args, "out", None), "OUT", str, default)
    return None if raw is None else Path(raw)


def _resolve_dataset_manifest(args) -> tuple[Path, Path]:
    dataset = _resolve(getattr(args, "dataset", None), "DATASET", str, None)
    manifest = _resolve(getattr(args, "manifest", None), "MANIFEST", str, None)
    if dataset is None and manifest is None:
        raise SeparabilityError("need --dataset or --manifest")
    if manifest is None:
        manifest = str(Path(dataset) / "manifest.tsv")
    if dataset is None:
        dataset = str(Path(manifest).parent)
    return Path(dataset), Path(manifest)


def _dsp_metadata(
    stft_config: StftConfig, oracle_config: OracleConfig, metric_config: MetricConfig
) -> dict[str, str]:
    return {
        "window_kind": stft_config.window_kind,
        "window_size": str(stft_config.window_size),
        "hop_size": str(stft_config.hop_size),
        "center": str(stft_config.center).lower(),
        "alpha": str(oracle_config.alpha),
        "zero_bin_policy": oracle_config.zero_bin_policy,
        "window_length": str(metric_config.window_length),
        "window_hop": str(metric_config.window_hop),
        "filter_length": str(metric_config.filter_length),
        "silence_threshold": str(metric_config.silence_threshold),
        "db_cap": str(metric_config.db_cap),
    }


# -- analyze -----------------------------------------------------------


def _accounting(report: ScoringReport, instruments) -> dict:
    """Window and solver counts of one song, in log order."""
    return {
        "windows_scored": report.windows_scored,
        "silent_windows": dict(zip(instruments, report.silent_windows)),
        "tail_samples_unscored": report.tail_samples_unscored,
        "solver_fallbacks": {
            "dense": report.dense_fallback,
            "ridge": report.ridge,
            "lstsq": report.lstsq,
        },
    }


# NumPy's and SciPy's wheels each bundle an OpenBLAS: (package, library
# glob relative to its site directory, suffix of the exported symbols).
_OPENBLAS_LIBRARIES = (
    (numpy, "numpy.libs/libscipy_openblas64_*", "64_"),
    (scipy, "scipy.libs/libscipy_openblas-*", ""),
)


def _openblas_thread_controls() -> list[tuple]:
    """``(get, set)`` thread-count functions of every bundled OpenBLAS found.

    Empty when NumPy and SciPy were not installed from wheels that
    bundle OpenBLAS; the lookup runs when called, never at import.
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
    return controls


def _pin_blas_threads() -> None:
    """Pool initializer: run every BLAS call of this worker on one thread."""
    for _, set_threads in _openblas_thread_controls():
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


def _failed_result(payload, exc: BaseException) -> dict:
    """The error row of the song ``payload`` describes."""
    song_dir, _, split = payload[:3]
    return {
        "song_id": Path(song_dir).name,
        "split": split,
        "status": "error",
        "error": f"{type(exc).__name__}: {exc}",
        "n_windows": 0,
        "accounting": _accounting(ScoringReport(), ()),
        "scores": {},
    }


def _song_job(payload):
    """Score one song; runs in a worker process, shares nothing.

    Returns a plain dict so results pickle cheaply and identically no
    matter which process produced them.
    """
    (song_dir, instruments, split, stft_config, oracle_config, metric_config, normalize) = payload
    try:
        song = load_song(song_dir, instruments)
        if normalize:
            song = normalize_loudness(song)
        song = make_mixture(song)
        stems = [song.stems[inst] for inst in instruments]
        estimates = oracle_separate(song.mixture, stems, stft_config, oracle_config, instruments)
        report = ScoringReport()
        frames = framewise_scores(stems, estimates, metric_config, report)
        return {
            "song_id": Path(song_dir).name,
            "split": split,
            "status": "ok",
            "error": None,
            "n_windows": frames[0].n_windows,
            "accounting": _accounting(report, instruments),
            "scores": {
                inst: aggregate_song(fr) for inst, fr in zip(instruments, frames)
            },
        }
    except Exception as exc:
        return _failed_result(payload, exc)


def _pool_results(jobs: list, workers: int) -> list[dict]:
    """Score ``jobs`` in a pool of ``workers`` processes, in job order.

    A worker that dies (killed by the OOM killer, a crash in native
    code) breaks the pool and loses the result of every song still
    pending.  Each of those songs is then scored again alone, in a fresh
    one-worker pool, so a song that kills its worker even alone becomes
    an error row, and which songs happened to be in flight does not
    change any output.
    """
    results: list[dict | None] = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=workers, initializer=_pin_blas_threads) as pool:
        futures = []
        for job in jobs:
            try:
                futures.append(pool.submit(_song_job, job))
            except BrokenProcessPool:
                break
        for i, future in enumerate(futures):
            with suppress(BrokenProcessPool):
                results[i] = future.result()
    for i, job in enumerate(jobs):
        if results[i] is None:
            try:
                with ProcessPoolExecutor(max_workers=1, initializer=_pin_blas_threads) as pool:
                    results[i] = pool.submit(_song_job, job).result()
            except BrokenProcessPool as exc:
                results[i] = _failed_result(job, exc)
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
    dataset, manifest_path = _resolve_dataset_manifest(args)
    out_dir = _resolve_out(args, "separability_out")
    workers = _resolve(args.workers, "WORKERS", int, 1)
    seed = _resolve_seed(args)
    stft_config, oracle_config, metric_config = _resolve_dsp(args)
    normalize = bool(args.normalize)

    manifest = load_manifest(manifest_path, root=dataset)
    jobs = [
        (
            str(manifest.song_dir(song_id)),
            manifest.instruments,
            manifest.split_of(song_id),
            stft_config,
            oracle_config,
            metric_config,
            normalize,
        )
        for song_id in sorted(manifest.song_ids())
    ]

    with _one_blas_thread():
        if workers <= 1:
            results = [_song_job(job) for job in jobs]
        else:
            results = _pool_results(jobs, workers)

    metadata = {
        "format_version": FORMAT_VERSION,
        "command": "analyze",
        "dataset": str(dataset),
        "manifest": str(manifest_path),
        "instruments": "|".join(manifest.instruments),
        "normalize": str(normalize).lower(),
        **_dsp_metadata(stft_config, oracle_config, metric_config),
        "seed": str(seed),
        "generator": GENERATOR_ID,
    }

    table = ScoreTable(metadata)
    for result in results:
        if result["status"] != "ok":
            continue
        for inst in manifest.instruments:
            table.add_row(result["song_id"], inst, result["scores"][inst])

    _write_text(out_dir / "scores.csv", table.to_csv())
    _write_text(out_dir / "scores.json", table.to_json())
    summary = aggregate_dataset(table)
    _write_text(out_dir / "summary.csv", summary_to_csv(summary, metadata))
    summary_payload = {inst: metric_json(values) for inst, values in summary.items()}
    _write_text(out_dir / "summary.json", write_json(envelope(metadata, summary=summary_payload)))
    _write_text(out_dir / "separability_curve.csv", _curve_csv(table, metadata))

    for result in results:
        log_payload = {
            "format_version": FORMAT_VERSION,
            "song_id": result["song_id"],
            "split": result["split"],
            "status": result["status"],
            "error": result["error"],
            "n_windows": result["n_windows"],
            **result["accounting"],
            "scores": {inst: metric_json(values) for inst, values in result["scores"].items()},
        }
        _write_text(out_dir / "logs" / f"{result['song_id']}.json", write_json(log_payload))

    failed = [r["song_id"] for r in results if r["status"] != "ok"]
    for song_id in failed:
        print(f"failed: {song_id}", file=sys.stderr)
    print(f"analyzed {len(results) - len(failed)}/{len(results)} songs -> {out_dir}")
    return 1 if failed else 0


# -- rank / select ------------------------------------------------------


def cmd_rank(args) -> int:
    table = _load_table(Path(args.scores))
    ranking = rank_songs(table, args.metric, args.instrument)
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "ranking",
        "metric": args.metric,
        "instrument": args.instrument,
        "ranking": ranking,
        "config": {"command": "rank", "scores": str(args.scores)},
    }
    _write_text(_resolve_out(args, None), write_json(payload))
    return 0


def cmd_select(args) -> int:
    table = _load_table(Path(args.scores))
    seed = _resolve_seed(args)
    ranking = rank_songs(table, args.metric, args.instrument)
    plan = select_subset(
        ranking,
        args.criterion,
        args.fraction,
        seed=seed,
        metric=args.metric,
        instrument=args.instrument,
    )
    metadata = {
        "command": "select",
        "scores": str(args.scores),
        "population": str(len(ranking)),
    }
    _write_text(_resolve_out(args, None), plan.to_json(metadata))
    return 0


# -- correlate ----------------------------------------------------------


def cmd_correlate(args) -> int:
    table_a = _load_table(Path(args.scores_a))
    table_b = _load_table(Path(args.scores_b))
    grid = correlate_tables(table_a, table_b)
    out_dir = _resolve_out(args, "separability_out")
    metadata = {
        "format_version": FORMAT_VERSION,
        "command": "correlate",
        "scores_a": str(args.scores_a),
        "scores_b": str(args.scores_b),
    }
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
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise SeparabilityError(f"bad ratio list {raw!r}: {exc}") from None


def cmd_mute_plan(args) -> int:
    dataset, manifest_path = _resolve_dataset_manifest(args)
    manifest = load_manifest(manifest_path, root=dataset)
    seed = _resolve_seed(args)
    ratios = DEFAULT_RATIOS if args.ratios is None else _parse_ratios(args.ratios)
    out_dir = _resolve_out(args, "separability_out")

    # Validate every ratio before the first file is written.
    plans = [plan_mutes(manifest, args.instrument, ratio, seed) for ratio in ratios]

    for plan in plans:
        metadata = {
            "command": "mute-plan",
            "manifest": str(manifest_path),
            "train_population": str(len(manifest.song_ids("train"))),
        }
        _write_text(out_dir / f"mute_plan_{plan.ratio:.2f}.json", plan.to_json(metadata))
    print(f"wrote {len(plans)} mute plans -> {out_dir}")
    return 0


# -- check-cola ---------------------------------------------------------


def cmd_check_cola(args) -> int:
    stft_config, _, _ = _resolve_dsp(args)
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

    dsp = argparse.ArgumentParser(add_help=False)
    dsp.add_argument("--window-size", type=int, help="analysis window length in samples")
    dsp.add_argument("--hop", type=int, help="analysis hop in samples")
    dsp.add_argument("--window-kind", choices=WINDOW_KINDS, help="window taper")
    dsp.add_argument("--alpha", type=float, help="mask magnitude exponent")
    dsp.add_argument(
        "--zero-bin-policy", choices=ZERO_BIN_POLICIES, help="mask value at all-silent bins"
    )
    dsp.add_argument("--filter-len", type=int, help="distortion filter taps")
    dsp.add_argument(
        "--fast-metrics",
        action="store_true",
        default=None,
        help="gain-only decomposition (filter length 1)",
    )

    seed_arg = argparse.ArgumentParser(add_help=False)
    seed_arg.add_argument("--seed", type=int, help="random seed (default 0)")

    p = sub.add_parser("analyze", parents=[dsp, seed_arg], help="score every song of a dataset")
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
    p.add_argument("--criterion", required=True, choices=("top", "random", "bottom"))
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

    p = sub.add_parser("check-cola", parents=[dsp], help="report the overlap-add condition")
    p.set_defaults(func=cmd_check_cola)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeparabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
