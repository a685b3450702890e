"""Seeded benchmark of ``separability analyze`` and the score-table commands.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense-w1 --seed 1 --seconds 15 --trace 0

One run generates the workload's inputs from the seed, then repeats the
workload's pattern of rounds at least twice and until ``--seconds`` have
passed.  A round runs ``analyze`` in one fresh client process and the
score-table commands in another (or only one of the two, or neither: a
set-up probe), and waits for each command (a closed loop with one
client, see client.py).  Every
round's outputs are checked (checks.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics of BENCHMARK.json with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  Lines before it give the
same metrics for reading, the diagnostics, and the run's metadata.

``--trace 1`` runs untraced rounds and traced 1-worker rounds side by
side; the per-layer times come from the traced ones, the tracing
overhead and the pool's CPU inflation from comparing the two.

The benchmark sets no environment variable: BLAS thread counts are
whatever the caller's environment says, and the metadata records them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference_scores.json"
WORK_DIR = ".perfbench_work"
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Boundaries that must record calls on every workload; sparse-w2-tables
# adds the score-table entry points only it calls.
REQUIRED = (
    "dataset.load_song", "dataset.make_mixture", "irm.oracle_separate", "irm.compute_irm",
    "irm.apply_masks", "stft.stft", "stft.istft", "metrics.framewise_scores",
    "metrics.si_sdr", "signal.fftconvolve", "linalg.toeplitz", "lapack.cho_factor",
    "lapack.cho_solve", "scores.to_csv", "scores.to_json", "scores.summary_to_csv",
    "analysis.rank_songs",
)
REQUIRED_TABLES = ("scores.from_csv", "scores.from_json", "analysis.select_subset",
                   "analysis.correlate_tables", "analysis.plan_mutes")

# per-layer metric -> (boundary, field) read straight from the trace.
LAYER_FIELDS = {
    "lapack.cho_factor.s": ("lapack.cho_factor", "s"),
    "lapack.cho_factor.calls": ("lapack.cho_factor", "calls"),
    "lapack.cho_factor.gflop": ("lapack.cho_factor", "gflop"),
    "lapack.cho_factor.fail": ("lapack.cho_factor", "fail"),
    "lapack.cho_solve.s": ("lapack.cho_solve", "s"),
    "lapack.cho_solve.calls": ("lapack.cho_solve", "calls"),
    "lapack.lstsq.calls": ("lapack.lstsq", "calls"),
    "metrics.framewise_scores.s": ("metrics.framewise_scores", "self_s"),
    "metrics.si_sdr.s": ("metrics.si_sdr", "s"),
    "signal.fftconvolve.s": ("signal.fftconvolve", "s"),
    "signal.fftconvolve.calls": ("signal.fftconvolve", "calls"),
    "linalg.toeplitz.s": ("linalg.toeplitz", "s"),
    "linalg.toeplitz.calls": ("linalg.toeplitz", "calls"),
    "metrics.windows": ("metrics.framewise_scores", "windows"),
    "metrics.target_windows": ("metrics.framewise_scores", "target_windows"),
    "metrics.target_windows_scored": ("metrics.framewise_scores", "target_windows_scored"),
    "metrics.tail_samples_unscored": ("metrics.framewise_scores", "tail_samples_unscored"),
    "stft.stft.s": ("stft.stft", "s"),
    "stft.stft.calls": ("stft.stft", "calls"),
    "stft.istft.s": ("stft.istft", "s"),
    "stft.istft.calls": ("stft.istft", "calls"),
    "stft.bytes_out": ("stft.stft", "bytes_out"),
    "irm.oracle_separate.s": ("irm.oracle_separate", "self_s"),
    "irm.compute_irm.s": ("irm.compute_irm", "s"),
    "irm.apply_masks.s": ("irm.apply_masks", "s"),
    "irm.mask_bytes": ("irm.compute_irm", "mask_bytes"),
    "irm.rss_delta_mb": ("irm.oracle_separate", "rss_delta_mb"),
    "dataset.load_song.s": ("dataset.load_song", "s"),
    "dataset.bytes_read": ("dataset.load_song", "bytes_read"),
    "dataset.make_mixture.s": ("dataset.make_mixture", "s"),
    "scores.from_csv.s": ("scores.from_csv", "s"),
    "scores.from_json.s": ("scores.from_json", "s"),
    "analysis.rank_songs.s": ("analysis.rank_songs", "s"),
    "analysis.select_subset.s": ("analysis.select_subset", "s"),
    "analysis.correlate_tables.s": ("analysis.correlate_tables", "s"),
    "analysis.plan_mutes.s": ("analysis.plan_mutes", "s"),
}
SERIALIZERS = ("scores.to_csv", "scores.to_json", "scores.summary_to_csv")
# Units of values that are computed from shapes and counts, not timed;
# they must repeat exactly.
COMPUTED_UNITS = ("count", "B", "GFLOP")


@dataclass
class Round:
    """One round's measurements; the analyze fields are None in a table-only round."""

    workers: int
    analyze_wall_s: float | None
    analyze_cpu_s: float | None
    table_walls: list[float]
    table_rows: list[int]
    wall_s: float
    setups: list[float]
    maxrss_mb: float
    failed: int
    attempted: int
    max_err: float
    digest: dict
    bytes_written: int
    trace: dict | None


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.work = root / WORK_DIR / args.workload
        self.start = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.wl = workloads.build(args.workload, args.seed, args.size, self.work)
        reference = None
        if args.seed == 0 and args.size == "full" and REFERENCE.is_file():
            reference = json.loads(REFERENCE.read_text()).get(args.workload)
        self.reference = reference

    def _client(self, plan: dict) -> dict:
        """Run one client process to completion (killing its group on timeout)."""
        plan = {"src": str(self.root / "src"), "bench": str(BENCH),
                "manifest": self.wl.manifest, **plan}
        (self.work / "plan.json").write_text(json.dumps(plan))
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        budget = max(10.0, RUN_BUDGET_S - (time.perf_counter() - self.start))
        with open(self.work / "client.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "client.py"), "plan.json", "result.json"],
                cwd=self.work, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                rc = proc.wait(timeout=budget)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise RuntimeError(f"client exceeded {budget:.0f} s")
        if rc != 0:
            tail = (self.work / "client.log").read_text()[-2000:]
            raise RuntimeError(f"client exited with {rc}:\n{tail}")
        return json.loads(result.read_text())

    def round(self, workers: int, traced: bool = False, analyze: bool = True,
              tables: bool = True) -> Round:
        """``analyze`` in a fresh client, then the score-table commands in another.

        A traced round runs both in one client, where the tracer lives.
        A round without ``tables`` keeps their outputs; one without
        either is a set-up probe: a client that runs no command.
        """
        wl, out = self.wl, self.work / workloads.ANALYZE_OUT
        outs = (out, self.work / workloads.TABLES_OUT)
        first = [wl.analyze_argv(workers)] if analyze else []
        then = wl.tables if tables else []
        for d, cleared in zip(outs, (first, then)):
            if cleared:
                shutil.rmtree(d, ignore_errors=True)
        if traced:
            parts = [self._client({"commands": first + then, "trace": True})]
        else:
            parts = [self._client({"commands": c}) for c in (first, then) if c]
            parts = parts or [self._client({"commands": []})]
        commands = [c for p in parts for c in p["commands"]]
        table_results = commands[len(first):]

        failed, max_err, wall, cpu = 0, float("nan"), None, None
        if analyze:
            wall, cpu = commands[0]["wall_s"], commands[0]["cpu_s"]
            try:
                failed, max_err = checks.check_analyze(wl, out, self.reference)
            except (OSError, KeyError, ValueError):
                failed = wl.songs
        failed += checks.check_tables(wl, self.args.seed, self.work, table_results)
        rows = {argv: checks.rows_read(argv, self.work) for argv in dict.fromkeys(map(tuple, then))}
        digest = {}
        for d in outs:
            digest.update({f"{d.name}/{k}": v for k, v in checks.tree_digest(d).items()})
        return Round(
            workers=workers,
            analyze_wall_s=wall,
            analyze_cpu_s=cpu,
            table_walls=[c["wall_s"] for c in table_results],
            table_rows=[rows[tuple(argv)] for argv in then],
            wall_s=sum(c["wall_s"] for c in commands),
            setups=[p["setup_s"] for p in parts],
            maxrss_mb=max(p["maxrss_mb"] for p in parts),
            failed=failed,
            attempted=wl.songs * analyze + len(then),
            max_err=max_err,
            digest=digest,
            bytes_written=sum(p.stat().st_size for d in outs for p in d.rglob("*") if p.is_file()),
            trace=parts[0].get("trace"),
        )

    def elapsed(self) -> float:
        return time.perf_counter() - self.measure_start

    def run_untraced(self) -> list[Round]:
        """The workload's pattern of rounds, twice and until --seconds have passed."""
        wl = self.wl
        kinds = {"F": {}, "A": {"tables": False}, "S": {"analyze": False, "tables": False}}
        self.measure_start = time.perf_counter()
        rounds = []
        while len(rounds) < 2 * len(wl.pattern) or self.elapsed() < self.args.seconds:
            rounds += [self.round(wl.workers, **kinds[k]) for k in wl.pattern]
        return rounds

    def run_traced(self) -> list[tuple[Round, Round, Round]]:
        """Sets of (untraced, untraced at 1 worker, traced at 1 worker)."""
        self.measure_start = time.perf_counter()
        sets = []
        while not sets or self.elapsed() < self.args.seconds:
            u = self.round(self.wl.workers)
            u1 = u if self.wl.workers == 1 else self.round(1)
            sets.append((u, u1, self.round(1, traced=True)))
        return sets

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(wl, rounds: list[Round]) -> dict[str, float]:
    """Medians over rounds: whole processes run faster or slower here."""
    full = [r for r in rounds if r.analyze_wall_s is not None]
    return {
        "audio_s_per_s": _median(wl.audio_seconds / r.analyze_wall_s for r in full),
        "cpu_s_per_audio_s": _median(r.analyze_cpu_s / wl.audio_seconds for r in full),
        "peak_rss_mb": _median(r.maxrss_mb for r in full),
        "setup_s": _median(s for r in rounds for s in r.setups),
    }


def layer_values(u: Round, u1: Round, t: Round) -> dict[str, float]:
    """Per-layer values of one traced round and the untraced rounds beside it."""
    bd = t.trace["boundaries"]
    out = {name: float(bd[b].get(field, 0)) for name, (b, field) in LAYER_FIELDS.items()}
    cho_s = out["lapack.cho_factor.s"]
    out["lapack.cho_factor.gflop_per_s"] = out["lapack.cho_factor.gflop"] / cho_s if cho_s else 0.0
    windows = out["metrics.windows"]
    out["metrics.s_per_window"] = bd["metrics.framewise_scores"]["s"] / windows if windows else 0.0
    targets = out["metrics.target_windows"]
    out["metrics.scored_ratio"] = out["metrics.target_windows_scored"] / targets if targets else 0.0
    out["scores.serialize.s"] = sum(bd[b]["s"] for b in SERIALIZERS)
    out["cli.other.s"] = t.wall_s - t.trace["covered_s"]
    out["cli.pool.cpu_inflation"] = u.analyze_cpu_s / u1.analyze_cpu_s
    out["cli.bytes_written"] = float(t.bytes_written)
    out["trace.overhead_frac"] = t.wall_s / u1.wall_s - 1.0
    # Untraced, like the end-to-end metrics; 0 where no table command runs.
    out["table_rows_per_s"] = sum(u.table_rows) / sum(u.table_walls) if u.table_walls else 0.0
    return out


def per_layer(wl, sets, units: dict[str, str]) -> tuple[dict[str, float], list[str], int]:
    """Median per-layer values, the boundaries found missing, and failed checks.

    A check fails when computed counts differ between traced rounds or,
    on sparse inputs, disagree with the silence plan the inputs were
    written with.
    """
    per_round = [layer_values(u, u1, t) for u, u1, t in sets]
    values = {name: _median(r[name] for r in per_round) for name in per_round[0]}
    bad = 0
    for r in per_round[1:]:
        bad += any(r[n] != per_round[0][n] for n in r if units.get(n) in COMPUTED_UNITS)
    if wl.expected_scored_target_windows is not None:
        bad += values["metrics.target_windows_scored"] != wl.expected_scored_target_windows
    required = REQUIRED + (REQUIRED_TABLES if wl.table_inputs else ())
    calls = sets[0][2].trace["boundaries"]
    missing = [b for b in required if calls[b]["calls"] == 0]
    gone = {name for name, (b, _) in LAYER_FIELDS.items() if b in missing}
    return {n: v for n, v in values.items() if n not in gone}, missing, bad


def metadata(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        top, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.split()
        rev = rev if Path(top).resolve() == root.resolve() else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        rev = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the self-test")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's scores as the reference (seed 0, full size)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "separability" / "cli.py").is_file():
        print("error: run from the root of a separability checkout (no src/separability)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    bench = Bench(args, root)
    try:
        if args.trace:
            sets = bench.run_traced()
            rounds = list({id(r): r for s in sets for r in s}.values())
            values, missing, bad = per_layer(bench.wl, sets, units)
        else:
            rounds = bench.run_untraced()
            values, missing, bad = end_to_end(bench.wl, rounds), [], 0
        # Every round must write the same bytes: repeated runs, traced and
        # untraced, 1 worker and the pool.
        failed = sum(r.failed if r.digest == rounds[0].digest else r.attempted for r in rounds)
        attempted = sum(r.attempted for r in rounds)
        failed += bad
        values["fail_frac"] = failed / attempted
        if args.write_reference:
            if args.seed != 0 or args.size != "full":
                raise SystemExit("--write-reference needs --seed 0 --size full")
            stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            stored[args.workload] = checks.reference_of(bench.work / workloads.ANALYZE_OUT)
            REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    finally:
        bench.cleanup()

    errors = [r.max_err for r in rounds if r.max_err == r.max_err]
    print("# rounds: " + json.dumps({
        "workers": [r.workers for r in rounds],
        "analyze_wall_s": [r.analyze_wall_s and round(r.analyze_wall_s, 3) for r in rounds],
        "analyze_cpu_s": [r.analyze_cpu_s and round(r.analyze_cpu_s, 3) for r in rounds],
        "table_wall_s": [round(sum(r.table_walls), 3) for r in rounds],
        "setup_s": [round(x, 3) for r in rounds for x in r.setups],
    }))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} attempted={attempted} failed={failed}")
    for name in [n for n in units if n in values] + [n for n in values if n not in units]:
        value, unit = values[name], units.get(name, "ratio")
        label = " (computed)" if unit in COMPUTED_UNITS else ""
        print(f"{name} = {value:.6g} {unit}{label}")
    print(f"max_abs_score_err_db = {max(errors) if errors else 'n/a (no reference for this seed)'}")
    for name in missing:
        print(f"missing boundary: {name} recorded no calls", file=sys.stderr)
    print("# meta " + json.dumps(metadata(root), sort_keys=True))
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
