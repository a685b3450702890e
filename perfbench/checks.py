"""Correctness checks on what one round of a workload wrote.

Every check here recomputes the expected answer from the generated
inputs with the benchmark's own code (parsing, sorting, NumPy/SciPy
statistics, the documented PCG64 draw), so a wrong output cannot pass by
agreeing with itself.  A check returns the number of failed operations:
songs for ``analyze``, commands for the score-table commands.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.stats

from workloads import DEFAULT_MUTE_RATIOS, METRICS

# Largest score change a performance change may make (dB); scores are
# printed with six decimals, so allow for the rounding of both sides.
SCORE_TOLERANCE = 1e-6 + 1e-9


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def read_scores(path: Path) -> dict[tuple[str, str], list[float]]:
    """Parse a score-table CSV into {(song, instrument): [metric values]}."""
    out = {}
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "song_id,instrument," + ",".join(METRICS):
        raise ValueError(f"{path}: unexpected header")
    for line in lines[1:]:
        cells = line.split(",")
        out[(cells[0], cells[1])] = [float(c) if c else math.nan for c in cells[2:]]
    return out


def table_rows(path: Path) -> int:
    """Data rows of a score table in either format."""
    if path.suffix == ".json":
        return len(json.loads(path.read_text())["rows"])
    return sum(1 for ln in path.read_text().splitlines() if ln and not ln.startswith("#")) - 1


def rows_read(argv: list[str], cwd: Path) -> int:
    if argv[0] in ("rank", "select"):
        return table_rows(cwd / argv[argv.index("--scores") + 1])
    if argv[0] == "correlate":
        return table_rows(cwd / argv[1]) + table_rows(cwd / argv[2])
    return 0


def check_analyze(wl, out: Path, reference: dict | None) -> tuple[int, float]:
    """Failed songs and the largest |score - reference| (NaN without one).

    A song fails when its log reports an error, when a score is missing
    where it must exist (or present where every window is silent), or
    when a score is farther than SCORE_TOLERANCE from the reference.
    """
    scores = read_scores(out / "scores.csv")
    failed, max_err = set(), math.nan if reference is None else 0.0
    song_ids = sorted(p.stem for p in out.joinpath("logs").glob("*.json"))
    if len(song_ids) != wl.songs:
        return wl.songs, max_err
    for song_id in song_ids:
        log = json.loads((out / "logs" / f"{song_id}.json").read_text())
        if log["status"] != "ok":
            failed.add(song_id)
    instruments = sorted({inst for _, inst in scores})
    for song_id in song_ids:
        for inst in instruments:
            values = scores.get((song_id, inst))
            if values is None:
                failed.add(song_id)
                continue
            must_miss = (song_id, inst) in wl.expected_missing
            if any(math.isnan(v) != must_miss for v in values):
                failed.add(song_id)
            if reference is None:
                continue
            ref = reference.get(f"{song_id}/{inst}")
            if ref is None:
                failed.add(song_id)
                continue
            for v, r in zip(values, ref):
                r = math.nan if r is None else r
                if math.isnan(v) or math.isnan(r):
                    if math.isnan(v) != math.isnan(r):
                        failed.add(song_id)
                    continue
                max_err = max(max_err, abs(v - r))
                if abs(v - r) > SCORE_TOLERANCE:
                    failed.add(song_id)
    return len(failed), max_err


def reference_of(out: Path) -> dict:
    """Scores of a round in the layout of reference_scores.json."""
    return {
        f"{song}/{inst}": [None if math.isnan(v) else v for v in values]
        for (song, inst), values in sorted(read_scores(out / "scores.csv").items())
    }


def _ranking(values: dict[tuple[str, str], list[float]], metric: str, inst: str) -> list[str]:
    col = METRICS.index(metric)
    songs = [s for s, i in values if i == inst]

    def key(song):
        v = values[(song, inst)][col]
        return (math.isnan(v), 0.0 if math.isnan(v) else -v, song)

    return sorted(songs, key=key)


def _sample(n: int, k: int, seed: int) -> list[int]:
    """The package's documented draw: partial Fisher-Yates on PCG64."""
    gen = np.random.Generator(np.random.PCG64(seed))
    idx = list(range(n))
    for i in range(k):
        j = i + int(gen.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _table_values(songs, instruments, values) -> dict:
    return {(s, inst): list(values[i, j]) for i, s in enumerate(songs)
            for j, inst in enumerate(instruments)}


def _close(got, want: float) -> bool:
    if got is None or math.isnan(want):
        return got is None and math.isnan(want)
    return abs(got - want) <= SCORE_TOLERANCE


def _correlations(a: dict, b: dict, instruments) -> tuple[dict, dict]:
    songs_b = {s for s, _ in b}
    shared = [s for s in dict.fromkeys(s for s, _ in a) if s in songs_b]
    pear, spear = {}, {}
    for inst in instruments:
        for col, metric in enumerate(METRICS):
            x = np.array([a[(s, inst)][col] for s in shared])
            y = np.array([b[(s, inst)][col] for s in shared])
            keep = ~(np.isnan(x) | np.isnan(y))
            x, y = x[keep], y[keep]
            pear[(inst, metric)] = float(np.corrcoef(x, y)[0, 1])
            spear[(inst, metric)] = float(scipy.stats.spearmanr(x, y).statistic)
    return pear, spear


def check_tables(wl, seed: int, work: Path, results: list[dict]) -> int:
    """Failed score-table commands: wrong exit code or wrong output."""
    inputs = wl.table_inputs
    if not results:
        return 0
    a = _table_values(inputs["songs"], inputs["instruments"], inputs["a"])
    b = _table_values(inputs["songs"], inputs["instruments"], inputs["b"])
    failed = 0
    for argv, res in zip(wl.tables, results):
        try:
            ok = res["rc"] == 0 and _check_command(argv, work, a, b, seed, inputs)
        except (OSError, KeyError, ValueError):
            ok = False
        failed += not ok
    return failed


def _check_command(argv, work: Path, a: dict, b: dict, seed: int, inputs: dict) -> bool:
    opt = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "rank":
        got = json.loads((work / opt["--out"]).read_text())["ranking"]
        return got == _ranking(a, opt["--metric"], opt["--instrument"])
    if argv[0] == "select":
        ranking = _ranking(b, opt["--metric"], opt["--instrument"])
        n = len(ranking)
        size = max(1, _half_up(float(opt["--fraction"]) * n))
        want = {"top": ranking[:size], "bottom": ranking[n - size:],
                "random": [ranking[i] for i in _sample(n, size, seed)]}[opt["--criterion"]]
        return json.loads((work / opt["--out"]).read_text())["selected"] == want
    if argv[0] == "correlate":
        got = json.loads((work / argv[argv.index("--out") + 1] / "correlations.json").read_text())
        pear, spear = _correlations(a, b, inputs["instruments"])
        return all(
            _close(got[block][inst][metric], cells[(inst, metric)])
            for block, cells in (("pearson", pear), ("spearman", spear))
            for inst, metric in cells
        )
    if argv[0] == "mute-plan":
        train = sorted(line.split("\t")[0] for line in inputs["plan_manifest"].splitlines()
                       if line.endswith("\ttrain"))
        for ratio in DEFAULT_MUTE_RATIOS:
            path = work / opt["--out"] / f"mute_plan_{ratio:.2f}.json"
            size = _half_up(ratio * len(train))
            want = [train[i] for i in _sample(len(train), size, seed)]
            if json.loads(path.read_text())["muted"] != want:
                return False
        return True
    return False
