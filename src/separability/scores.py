"""Score tables, and the one output format every command writes.

One row per (song_id, instrument).  Missing values are NaN in memory,
empty cells in CSV, null in JSON.  Serialized numbers are printed with
six decimal places (round-half-even) so that repeated runs diff cleanly.
Every CSV file starts with '# key=value' metadata lines carrying a format
version and the resolved configuration of the run that produced it;
every JSON file is indented by two spaces.  This module is the only one
that knows that format: the other modules hand their rows and payloads
to ``write_csv``, ``write_json`` and ``envelope``.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Mapping, Sequence

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


def metric_cells(values: Mapping[str, float]) -> list[str]:
    """The CSV cells of one row's metrics, in ``METRICS`` order."""
    return [format_score(values[m]) for m in METRICS]


def metric_json(values: Mapping[str, float]) -> dict:
    """The JSON object of one row's metrics, in ``METRICS`` order."""
    return {m: json_value(values[m]) for m in METRICS}


def write_csv(metadata: Mapping[str, str], header: str, rows: Iterable[Sequence[str]]) -> str:
    """'# key=value' metadata lines, the header line, then one line per row.

    ``format_version`` is added to the metadata when absent; a value it
    already carries (a table read from a file) is kept.
    """
    meta = dict(metadata)
    meta.setdefault("format_version", FORMAT_VERSION)
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(header)
    lines.extend(",".join(cells) for cells in rows)
    return "\n".join(lines) + "\n"


def write_json(payload) -> str:
    """Two-space indented JSON, keys in insertion order, newline-terminated."""
    return json.dumps(payload, indent=2) + "\n"


def envelope(metadata: Mapping[str, str], **body) -> dict:
    """``format_version``, the run's configuration, then the body's keys."""
    return {
        "format_version": metadata.get("format_version", FORMAT_VERSION),
        "config": {k: v for k, v in metadata.items() if k != "format_version"},
        **body,
    }


class ScoreTable:
    """Ordered collection of per-(song, instrument) metric rows."""

    def __init__(self, metadata: Mapping[str, str] | None = None):
        self._rows: dict[tuple[str, str], dict[str, float]] = {}
        self.metadata: dict[str, str] = dict(metadata or {})

    def __len__(self) -> int:
        return len(self._rows)

    def add_row(self, song_id: str, instrument: str, values: Mapping[str, float]) -> None:
        for label in (song_id, instrument):
            if "," in label:
                raise InvalidInputError(f"{label!r} contains ',', which CSV cells cannot hold")
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

    def column(self, instrument: str, metric: str) -> dict[str, float]:
        """``{song_id: value}`` of one metric over one instrument's rows, in row order."""
        if metric not in METRICS:
            raise InvalidInputError(f"unknown metric {metric!r}")
        return {
            song_id: values[metric]
            for (song_id, inst), values in self._rows.items()
            if inst == instrument
        }

    # -- serialization -------------------------------------------------

    def to_csv(self) -> str:
        rows = ([song, inst, *metric_cells(values)] for song, inst, values in self.rows())
        return write_csv(self.metadata, CSV_HEADER, rows)

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

    def to_json(self) -> str:
        rows = [
            {"song_id": song_id, "instrument": instrument, **metric_json(values)}
            for song_id, instrument, values in self.rows()
        ]
        return write_json(envelope(self.metadata, rows=rows))

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
    rows = ([instrument, *metric_cells(values)] for instrument, values in summary.items())
    return write_csv(metadata, "instrument," + ",".join(METRICS), rows)
