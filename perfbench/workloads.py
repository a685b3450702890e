"""Seeded inputs and command scripts for the benchmark workloads.

Every input is generated here from ``(workload, seed, size)`` with NumPy
and SciPy alone, so the program under test receives nothing but WAV
files, manifests and score tables.  Nothing here imports the package.

A workload is an ``analyze`` invocation plus a list of score-table
invocations, each one ``argv`` for ``separability.cli.main``.  Paths are
relative to the workload's work directory, which keeps every output byte
independent of where the checkout lives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.io.wavfile

SAMPLE_RATE = 44100
METRICS = ("si_sdr", "sdr", "sir", "isr", "sar")
CRITERIA = ("top", "random", "bottom")
DEFAULT_MUTE_RATIOS = tuple(i / 20 for i in range(10))
# Output directories of analyze and of the score-table commands.
ANALYZE_OUT = "out"
TABLES_OUT = "out_tables"


@dataclass
class Workload:
    """Generated inputs plus the script one round of the workload runs."""

    name: str
    workers: int
    audio_seconds: float
    songs: int
    manifest: str
    analyze: list[str]
    tables: list[list[str]] = field(default_factory=list)
    # (song_id, instrument) pairs whose score must be missing (NaN).
    expected_missing: set[tuple[str, str]] = field(default_factory=set)
    # Exact per-window silence plan for sparse inputs, for the traced counts.
    expected_scored_target_windows: int | None = None
    table_inputs: dict = field(default_factory=dict)
    # Kinds of round a run repeats: F runs analyze and then the table
    # commands, A only analyze, S only a set-up probe.  Spreading the
    # short kind over the run samples more of the machine's drift.
    pattern: str = "FSS"

    def analyze_argv(self, workers: int) -> list[str]:
        return self.analyze + ["--out", ANALYZE_OUT, "--workers", str(workers)]


# name -> (songs, seconds, instruments, fast, workers), at full and tiny size.
SHAPES = {
    "dense-w1": {
        "full": (2, 2.5, ("bass", "drums", "other", "vocals"), False, 1),
        "tiny": (1, 1.2, ("bass", "drums", "other", "vocals"), False, 1),
    },
    "long-fast": {
        "full": (1, 30.5, ("bass", "drums", "other", "vocals"), True, 1),
        "tiny": (1, 3.5, ("bass", "drums", "other", "vocals"), True, 1),
    },
    # Sparse songs through the pool, then the score tables.  --fast-metrics:
    # at the default 512-tap filter two workers with their own BLAS threads
    # make a round's wall time vary by +-25% (see README.md).
    "sparse-w2-tables": {
        "full": (8, 2.25, ("bass", "drums", "vocals"), True, 2),
        "tiny": (2, 2.25, ("bass", "drums", "vocals"), True, 2),
    },
}
WORKLOADS = tuple(SHAPES)

# Score-table shape of sparse-w2-tables at each size:
# (songs per table, instruments, songs in the mute-plan manifest).
TABLE_SHAPES = {"full": (2000, 8, 300), "tiny": (40, 3, 12)}
TABLE_INSTRUMENTS = ("bass", "drums", "guitar", "keys", "other", "piano", "strings", "vocals")


def _stem(rng: np.random.Generator, inst_index: int, n_samples: int) -> np.ndarray:
    """Stereo sine bank in an instrument-specific band plus a noise floor.

    Bands of neighbouring instruments overlap, so the masks leak and the
    decomposition sees real interference.
    """
    t = np.arange(n_samples) / SAMPLE_RATE
    k = 6
    low = 60.0 * 2.2**inst_index
    freqs = rng.uniform(low, 3.0 * low, k)
    amps = rng.uniform(0.05, 0.25, k)
    phases = rng.uniform(0.0, 2.0 * np.pi, (k, 2))
    tone = np.stack(
        [(amps[:, None] * np.sin(2 * np.pi * freqs[:, None] * t + phases[:, c : c + 1])).sum(0)
         for c in range(2)]
    )
    # Slow tremolo so windows differ from one another.
    env = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.2, 1.5) * t + rng.uniform(0, 6.3))
    return tone * env + rng.normal(0.0, 0.003, (2, n_samples))


def _write_wav(path: Path, samples: np.ndarray) -> None:
    scipy.io.wavfile.write(path, SAMPLE_RATE, np.ascontiguousarray(samples.T, dtype=np.float32))


def _write_dataset(root: Path, rng, n_songs, seconds, instruments, silence=None):
    """Write song folders and a manifest; returns the silence plan applied.

    ``silence(rng, stems)`` may edit the stems in place and returns the
    (instrument, window) pairs it made silent or near-silent.
    """
    root.mkdir(parents=True, exist_ok=True)
    n_samples = int(round(seconds * SAMPLE_RATE))
    lines, plans = [], {}
    for i in range(n_songs):
        song_id = f"song{i:03d}"
        stems = {inst: _stem(rng, j, n_samples) for j, inst in enumerate(instruments)}
        if silence is not None:
            plans[song_id] = silence(rng, stems)
        song_dir = root / song_id
        song_dir.mkdir(exist_ok=True)
        for inst, samples in stems.items():
            _write_wav(song_dir / f"{inst}.wav", samples)
        split = ("train", "train", "valid", "test")[i % 4]
        lines.append(f"{song_id}\t{split}")
    (root / "manifest.tsv").write_text("\n".join(lines) + "\n")
    return plans


def _sparse_silence(rng: np.random.Generator, stems: dict) -> list[tuple[str, int]]:
    """Silence half of the (instrument, 1 s window) cells of a song.

    Every window gets one -120 dB hum, and every even window also one
    exactly-zero stem; the seed picks the stems.  A zero stem's regressor
    is dropped, a hum stays as a near-singular regressor that sends the
    solver to its ridge fallback, and both fall under the metric's
    silence threshold, so their target-windows score missing.  The counts
    per window are fixed so that the cost of a song does not depend on
    the seed.
    """
    names = list(stems)
    n_windows = next(iter(stems.values())).shape[1] // SAMPLE_RATE
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    plan = []
    for w in range(n_windows):
        sl = slice(w * SAMPLE_RATE, (w + 1) * SAMPLE_RATE)
        picked = rng.choice(len(names), size=2 if w % 2 == 0 else 1, replace=False)
        hum, *zero = (names[i] for i in picked)
        stems[hum][:, sl] = 1e-6 * np.sin(2 * np.pi * rng.uniform(50.0, 70.0) * t)
        for inst in zero:
            stems[inst][:, sl] = 0.0
        plan += [(hum, w)] + [(inst, w) for inst in zero]
    return plan


def _fmt(value: float) -> str:
    return "" if np.isnan(value) else format(value, ".6f")


def _score_tables(rng, n_songs: int, instruments, missing: float = 0.05):
    """Two correlated random score tables, ~5% of cells missing in each."""
    shape = (n_songs, len(instruments), len(METRICS))
    base = rng.normal(5.0, 4.0, shape)
    a = np.round(base + rng.normal(0.0, 0.5, shape), 6)
    b = np.round(base + rng.normal(0.0, 2.0, shape), 6)
    a[rng.random(shape) < missing] = np.nan
    b[rng.random(shape) < missing] = np.nan
    songs = [f"s{i:04d}" for i in range(n_songs)]
    return songs, a, b


def _table_csv(songs, instruments, values) -> str:
    lines = ["# format_version=1", "# command=perfbench", "song_id,instrument," + ",".join(METRICS)]
    for i, song in enumerate(songs):
        for j, inst in enumerate(instruments):
            lines.append(",".join([song, inst] + [_fmt(v) for v in values[i, j]]))
    return "\n".join(lines) + "\n"


def _table_json(songs, instruments, values) -> str:
    rows = [
        {"song_id": song, "instrument": inst,
         **{m: None if np.isnan(v) else float(v) for m, v in zip(METRICS, values[i, j])}}
        for i, song in enumerate(songs)
        for j, inst in enumerate(instruments)
    ]
    return json.dumps({"format_version": "1", "config": {"command": "perfbench"}, "rows": rows}) + "\n"


def build(name: str, seed: int, size: str, work: Path) -> Workload:
    """Generate the inputs of one workload under ``work`` and describe a round."""
    n_songs, seconds, instruments, fast, workers = SHAPES[name][size]
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    data = work / "data"
    sparse = name == "sparse-w2-tables"
    plans = _write_dataset(data, rng, n_songs, seconds, instruments,
                           silence=_sparse_silence if sparse else None)
    analyze = ["analyze", "--dataset", "data", "--seed", str(seed)]
    if fast:
        analyze.append("--fast-metrics")
    wl = Workload(name, workers, n_songs * seconds, n_songs, "data/manifest.tsv", analyze)

    if sparse:
        n_windows = int(seconds)  # 1 s windows at a 1 s hop
        wl.expected_scored_target_windows = n_songs * len(instruments) * n_windows - sum(
            len(p) for p in plans.values())
        for song_id, plan in plans.items():
            for inst in instruments:
                if sum(1 for i, _ in plan if i == inst) == n_windows:
                    wl.expected_missing.add((song_id, inst))

        table_songs, table_insts, plan_songs = TABLE_SHAPES[size]
        insts = TABLE_INSTRUMENTS[:table_insts]
        songs, a, b = _score_tables(rng, table_songs, insts)
        tables = work / "tables"
        tables.mkdir(parents=True, exist_ok=True)
        (tables / "a.csv").write_text(_table_csv(songs, insts, a))
        (tables / "b.json").write_text(_table_json(songs, insts, b))
        # The mute-plan sweep gets its own, larger manifest of 50 ms songs:
        # there only loading the manifest (parse, stem discovery) costs time.
        _write_dataset(work / "plan", rng, plan_songs, 0.05, ("bass", "drums", "vocals"))
        wl.table_inputs = {"songs": songs, "instruments": insts, "a": a, "b": b,
                           "plan_manifest": (work / "plan" / "manifest.tsv").read_text()}
        cmds = [["rank", "--scores", "tables/a.csv", "--metric", m, "--instrument", inst,
                 "--out", f"{TABLES_OUT}/rank/{inst}_{m}.json"] for inst in insts for m in METRICS]
        cmds += [["select", "--scores", "tables/b.json", "--metric", "sdr",
                  "--instrument", insts[-1], "--criterion", c, "--fraction", "0.3",
                  "--seed", str(seed), "--out", f"{TABLES_OUT}/select/{c}.json"] for c in CRITERIA]
        cmds.append(["correlate", "tables/a.csv", "tables/b.json", "--out", f"{TABLES_OUT}/correlate"])
        cmds.append(["mute-plan", "--dataset", "plan", "--instrument", "vocals",
                     "--seed", str(seed), "--out", f"{TABLES_OUT}/mute"])
        wl.tables = cmds
        # Its analyze takes two seconds and its table commands several.
        wl.pattern = "FAA"
    return wl
