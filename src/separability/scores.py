"""Score tables: per-song, per-instrument metric values and their serialization.

One row per (song_id, instrument).  Missing values are NaN in memory,
empty cells in CSV, null in JSON.  Serialized numbers are printed with
six decimal places (round-half-even) so that repeated runs diff cleanly.
Every serialized table starts with '#' metadata lines carrying a format
version and the resolved configuration of the run that produced it.
"""

from __future__ import annotations

import json
import math
from typing import Iterator, Mapping

from .errors import InvalidInputError
from .metrics import METRICS, median_ignoring_missing

FORMAT_VERSION = "1"

CSV_HEADER = "song_id,instrument," + ",".join(METRICS)


def format_score(value: float) -> str:
    """Six-decimal fixed-point form; empty string for missing."""
    if math.isnan(value):
        return ""
    out = format(value, ".6f")
    # A negative value that rounds to zero keeps its sign in '%f'; the
    # tables should not distinguish signed zeros.
    return "0.000000" if out == "-0.000000" else out


def json_value(value: float):
    """A score as a six-decimal JSON number; None for missing."""
    if math.isnan(value):
        return None
    return float(format_score(value)) + 0.0


class ScoreTable:
    """Ordered collection of per-(song, instrument) metric rows."""

    def __init__(self, metadata: Mapping[str, str] | None = None):
        self._rows: dict[tuple[str, str], dict[str, float]] = {}
        self.metadata: dict[str, str] = dict(metadata or {})

    def __len__(self) -> int:
        return len(self._rows)

    def add_row(self, song_id: str, instrument: str, values: Mapping[str, float]) -> None:
        key = (song_id, instrument)
        if key in self._rows:
            raise InvalidInputError(f"duplicate row for song {song_id!r} instrument {instrument!r}")
        unknown = set(values) - set(METRICS)
        if unknown:
            raise InvalidInputError(f"unknown metrics in row: {sorted(unknown)}")
        self._rows[key] = {m: float(values.get(m, math.nan)) for m in METRICS}

    def rows(self) -> Iterator[tuple[str, str, dict[str, float]]]:
        for (song_id, instrument), values in self._rows.items():
            yield song_id, instrument, dict(values)

    def song_ids(self) -> tuple[str, ...]:
        seen = dict.fromkeys(song_id for song_id, _ in self._rows)
        return tuple(seen)

    def instruments(self) -> tuple[str, ...]:
        seen = dict.fromkeys(instrument for _, instrument in self._rows)
        return tuple(seen)

    def value(self, song_id: str, instrument: str, metric: str) -> float:
        if metric not in METRICS:
            raise InvalidInputError(f"unknown metric {metric!r}")
        row = self._rows.get((song_id, instrument))
        return math.nan if row is None else row[metric]

    def has_instrument(self, instrument: str) -> bool:
        return any(inst == instrument for _, inst in self._rows)

    # -- serialization -------------------------------------------------

    def to_csv(self, metadata: Mapping[str, str] | None = None) -> str:
        meta = dict(metadata if metadata is not None else self.metadata)
        meta.setdefault("format_version", FORMAT_VERSION)
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(CSV_HEADER)
        for song_id, instrument, values in self.rows():
            cells = [song_id, instrument] + [format_score(values[m]) for m in METRICS]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ScoreTable":
        metadata: dict[str, str] = {}
        header_seen = False
        table = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise InvalidInputError(
                        f"line {lineno}: expected header {CSV_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != 2 + len(METRICS):
                raise InvalidInputError(f"line {lineno}: expected {2 + len(METRICS)} cells")
            values = {
                metric: float(cell) if cell else math.nan
                for metric, cell in zip(METRICS, cells[2:])
            }
            table.add_row(cells[0], cells[1], values)
        if not header_seen:
            raise InvalidInputError("no header line found")
        table.metadata = metadata
        return table

    def to_json(self, metadata: Mapping[str, str] | None = None) -> str:
        meta = dict(metadata if metadata is not None else self.metadata)
        meta.setdefault("format_version", FORMAT_VERSION)
        payload = {
            "format_version": meta["format_version"],
            "config": {k: v for k, v in meta.items() if k != "format_version"},
            "rows": [
                {
                    "song_id": song_id,
                    "instrument": instrument,
                    **{m: json_value(values[m]) for m in METRICS},
                }
                for song_id, instrument, values in self.rows()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScoreTable":
        payload = json.loads(text)
        table = cls()
        meta = {"format_version": str(payload.get("format_version", FORMAT_VERSION))}
        meta.update({str(k): str(v) for k, v in payload.get("config", {}).items()})
        table.metadata = meta
        for row in payload.get("rows", []):
            values = {
                m: math.nan if row.get(m) is None else float(row[m]) for m in METRICS
            }
            table.add_row(str(row["song_id"]), str(row["instrument"]), values)
        return table


def aggregate_dataset(table: ScoreTable) -> dict[str, dict[str, float]]:
    """Per-instrument median of per-song scores, skipping missing entries."""
    summary: dict[str, dict[str, float]] = {}
    for instrument in table.instruments():
        per_metric: dict[str, list[float]] = {m: [] for m in METRICS}
        for song_id, row_instrument, values in table.rows():
            if row_instrument != instrument:
                continue
            for m in METRICS:
                per_metric[m].append(values[m])
        summary[instrument] = {
            m: median_ignoring_missing(per_metric[m]) for m in METRICS
        }
    return summary


def summary_to_csv(summary: Mapping[str, Mapping[str, float]], metadata: Mapping[str, str]) -> str:
    meta = dict(metadata)
    meta.setdefault("format_version", FORMAT_VERSION)
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append("instrument," + ",".join(METRICS))
    for instrument, values in summary.items():
        lines.append(
            ",".join([instrument] + [format_score(values[m]) for m in METRICS])
        )
    return "\n".join(lines) + "\n"
