"""Dataset curation built on separability scores.

Songs are ranked by an oracle metric, subsets are cut from the top,
bottom, or at random, mute experiments silence a seeded fraction of one
instrument's stems across the training split, and score tables from two
systems are compared by Pearson and Spearman correlation per instrument
and metric.

Every seeded operation uses the PCG64 generator with a hand-rolled
partial Fisher-Yates draw, and the generator name travels with each
serialized plan, so plans reproduce bit-for-bit anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .audio import AudioClip
from .dataset import DatasetManifest, MultitrackSong
from .errors import InvalidInputError, UndefinedCorrelationError
from .metrics import METRICS
from .scores import ScoreTable, document, envelope, metric_cells, metric_json, write_csv, write_json

GENERATOR_ID = "pcg64"

CRITERIA = ("top", "random", "bottom")


def _sample_indices(n: int, k: int, seed: int) -> list[int]:
    """k of n indices, uniform without replacement, ascending order.

    Partial Fisher-Yates driven by PCG64 so the draw depends only on
    (n, k, seed), not on library version details of shuffle helpers.
    PCG64 takes no negative seed.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    gen = np.random.Generator(np.random.PCG64(seed))
    idx = list(range(n))
    for i in range(k):
        j = i + int(gen.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return sorted(idx[:k])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SelectionPlan:
    criterion: str
    fraction: float
    metric: str | None
    instrument: str | None
    seed: int | None
    selected: tuple[str, ...]

    def to_json(self, metadata: Mapping[str, str] | None = None) -> str:
        generator = GENERATOR_ID if self.criterion == "random" else None
        return write_json(document(
            "selection_plan", metadata or {}, criterion=self.criterion, fraction=self.fraction,
            metric=self.metric, instrument=self.instrument, seed=self.seed,
            generator=generator, selected=list(self.selected),
        ))


@dataclass(frozen=True)
class MutePlan:
    instrument: str
    ratio: float
    seed: int
    muted: tuple[str, ...]

    def to_json(self, metadata: Mapping[str, str] | None = None) -> str:
        return write_json(document(
            "mute_plan", metadata or {}, instrument=self.instrument, ratio=self.ratio,
            seed=self.seed, generator=GENERATOR_ID, muted=list(self.muted),
        ))


def rank_songs(table: ScoreTable, metric: str, instrument: str) -> list[str]:
    """Song ids ordered by descending metric value for one instrument.

    Missing values sort last; ties break on song_id so the order is total.
    """
    values = table.column(instrument, metric)
    if not values:
        raise InvalidInputError(f"instrument {instrument!r} not present in table")

    def key(song_id: str):
        value = values[song_id]
        missing = math.isnan(value)
        return (missing, -value if not missing else 0.0, song_id)

    return sorted(values, key=key)


def select_subset(
    ranking: Sequence[str],
    criterion: str,
    fraction: float,
    seed: int | None = None,
    metric: str | None = None,
    instrument: str | None = None,
) -> SelectionPlan:
    """Cut a subset of a ranking: its head, its tail, or a seeded sample.

    The subset size is fraction times the population, rounded half up,
    never below one.  Random picks preserve the ranking order.
    """
    if criterion not in CRITERIA:
        raise InvalidInputError(f"unknown criterion {criterion!r}, expected one of {CRITERIA}")
    if not 0.0 < fraction <= 1.0:
        raise InvalidInputError(f"fraction must be in (0, 1], got {fraction}")
    if len(ranking) == 0:
        raise InvalidInputError("cannot select from an empty ranking")
    n = len(ranking)
    size = max(1, _round_half_up(fraction * n))

    if criterion == "top":
        selected = tuple(ranking[:size])
        seed = None
    elif criterion == "bottom":
        selected = tuple(ranking[n - size :])
        seed = None
    else:
        if seed is None:
            raise InvalidInputError("random selection requires a seed")
        selected = tuple(ranking[i] for i in _sample_indices(n, size, seed))
    return SelectionPlan(criterion, fraction, metric, instrument, seed, selected)


def plan_mutes(manifest: DatasetManifest, instrument: str, ratio: float, seed: int) -> MutePlan:
    """Seeded choice of training songs whose stem will be silenced.

    Only the train split is eligible; valid and test songs are never
    muted.  The population is the sorted train song_id list, so the plan
    does not depend on manifest line order.
    """
    if instrument not in manifest.instruments:
        raise InvalidInputError(
            f"instrument {instrument!r} not in manifest instruments {manifest.instruments}"
        )
    if not 0.0 <= ratio <= 1.0:
        raise InvalidInputError(f"ratio must be in [0, 1], got {ratio}")
    population = sorted(manifest.song_ids("train"))
    size = _round_half_up(ratio * len(population))
    muted = tuple(population[i] for i in _sample_indices(len(population), size, seed))
    return MutePlan(instrument, ratio, seed, muted)


def apply_mute_plan(song: MultitrackSong, plan: MutePlan) -> MultitrackSong:
    """Materialize a plan on one song: silence the stem if the song is muted."""
    if song.song_id not in plan.muted:
        return song
    stems = dict(song.stems)
    clip = stems[plan.instrument]
    stems[plan.instrument] = AudioClip(np.zeros_like(clip.samples), clip.sample_rate)
    return MultitrackSong(song.song_id, stems)


def _drop_missing_pairs(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """x and y without the pairs missing a member; at least two pairs must remain."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError(f"x and y must be equal-length vectors, got {x.shape}, {y.shape}")
    keep = ~(np.isnan(x) | np.isnan(y))
    if keep.sum() < 2:
        raise InvalidInputError(f"need at least 2 complete pairs, got {keep.sum()}")
    return x[keep], y[keep]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample product-moment correlation; pairs with a missing member dropped."""
    x, y = _drop_missing_pairs(x, y)
    # An infinite input, or one whose squares overflow, is caught below.
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        sxx = float(np.dot(dx, dx))
        syy = float(np.dot(dy, dy))
        sxy = float(np.dot(dx, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance in at least one argument")
    norm = sxx * syy
    r = sxy / math.sqrt(norm)
    if not (math.isfinite(norm) and math.isfinite(r)):
        raise UndefinedCorrelationError("sum of squares or correlation is not finite")
    return min(1.0, max(-1.0, r))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Fractional ranks starting at 1; tied values share their mean rank."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    # A group of c tied values ending at sorted position k shares rank k - (c - 1) / 2.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of fractional average-tie ranks."""
    x, y = _drop_missing_pairs(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


@dataclass(frozen=True)
class CorrelationGrid:
    """Per-instrument, per-metric correlation cells between two score tables.

    NaN cells are undefined (too few shared songs or zero variance); the
    reason for each lands in diagnostics.
    """

    instruments: tuple[str, ...]
    pearson: Mapping[tuple[str, str], float]
    spearman: Mapping[tuple[str, str], float]
    diagnostics: tuple[str, ...]

    def has_missing(self) -> bool:
        cells = list(self.pearson.values()) + list(self.spearman.values())
        return any(math.isnan(v) for v in cells)

    def to_csv(self, metadata: Mapping[str, str] | None = None) -> str:
        rows = [
            [block, instrument, *metric_cells({m: cells[(instrument, m)] for m in METRICS})]
            for block, cells in (("pearson", self.pearson), ("spearman", self.spearman))
            for instrument in self.instruments
        ]
        return write_csv(metadata or {}, "block,instrument," + ",".join(METRICS), rows)

    def to_json(self, metadata: Mapping[str, str] | None = None) -> str:
        def block(cells: Mapping[tuple[str, str], float]):
            return {
                instrument: metric_json({m: cells[(instrument, m)] for m in METRICS})
                for instrument in self.instruments
            }

        return write_json(
            envelope(
                metadata or {},
                pearson=block(self.pearson),
                spearman=block(self.spearman),
                diagnostics=list(self.diagnostics),
            )
        )


def correlate_tables(a: ScoreTable, b: ScoreTable) -> CorrelationGrid:
    """Correlate two tables cell by cell over their shared songs.

    Cells are computed with pairwise deletion: a song contributes to a
    cell only when both tables have a non-missing value there.
    """
    instruments = tuple(
        dict.fromkeys(list(a.instruments()) + list(b.instruments()))
    )
    pearson_cells: dict[tuple[str, str], float] = {}
    spearman_cells: dict[tuple[str, str], float] = {}
    diagnostics: list[str] = []

    songs_b = set(b.song_ids())
    shared = [s for s in a.song_ids() if s in songs_b]
    for instrument in instruments:
        for metric in METRICS:
            col_a, col_b = a.column(instrument, metric), b.column(instrument, metric)
            xs = [col_a.get(s, math.nan) for s in shared]
            ys = [col_b.get(s, math.nan) for s in shared]
            for name, fn, cells in (
                ("pearson", pearson, pearson_cells),
                ("spearman", spearman, spearman_cells),
            ):
                try:
                    cells[(instrument, metric)] = fn(xs, ys)
                except (InvalidInputError, UndefinedCorrelationError) as exc:
                    cells[(instrument, metric)] = math.nan
                    diagnostics.append(f"{name}/{instrument}/{metric}: {exc}")
    return CorrelationGrid(instruments, pearson_cells, spearman_cells, tuple(diagnostics))
