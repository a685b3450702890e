"""Score tables, and the one output format every command writes.

One row per (song_id, instrument).  Missing values are NaN in memory,
empty cells in CSV, null in JSON; every other score is finite.  Every
row, added or read from a file, passes one gate (``ScoreTable._insert``)
that refuses a non-number, an infinite score and a repeated key, so a
table that holds a row can write it and read it back.  Serialized
numbers are printed with six decimal places (round-half-even) so that
repeated runs diff cleanly.
Every CSV file starts with '# key=value' metadata lines, the format
version first, then the resolved configuration of the run that produced
it; every JSON file is indented by two spaces.  A table's JSON
(``envelope``) opens with the format version and the configuration; a
command's document (``document``: a ranking, a subset or a mute plan)
opens with the format version and its kind and ends with the
configuration.  The other modules hand their rows and bodies to
``write_csv``, ``envelope`` and ``document``, and every JSON payload to
``write_json``.  Three things are laid out outside this module: a
per-song log, by ``cli._song_log`` (``FORMAT_VERSION`` first, the
scores last); the ranking curve's header, by ``cli._curve_csv``; and
the ``summary.json`` body, by ``cli.cmd_analyze``.
This module also owns the rules for what a song id or instrument label
may hold (``cell_label_fault``) and for a metadata value, which may not
hold a line break (``metadata_fault``).
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, Mapping, Sequence

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

    ``format_version`` comes first: the metadata's own (a table read from
    a file) or ``FORMAT_VERSION``.
    """
    meta = {"format_version": metadata.get("format_version", FORMAT_VERSION), **metadata}
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


def document(kind: str, config: Mapping[str, str], /, **body) -> dict:
    """``format_version``, ``kind``, the body's keys, then the command's configuration."""
    return {"format_version": FORMAT_VERSION, "kind": kind, **body, "config": dict(config)}


def _line_break_fault(text: str, holder: str) -> str | None:
    """Why ``text`` cannot go in ``holder`` (it holds a line break), or None."""
    # str.splitlines drops every line break, so a text it changes holds one.
    if "".join(text.splitlines()) != text:
        return f"{text!r} contains a line break, which {holder} cannot hold"
    return None


def cell_label_fault(label: str) -> str | None:
    """Why ``label`` cannot be a CSV cell (no string, a comma or a line break), or None."""
    if not isinstance(label, str):
        return f"label {label!r} is not a string"
    if "," in label:
        return f"{label!r} contains ',', which CSV cells cannot hold"
    return _line_break_fault(label, "CSV cells")


def metadata_fault(metadata: Mapping[str, str]) -> str | None:
    """Why ``metadata`` cannot be '# key=value' lines (a value holds a line break), or None."""
    for key, value in metadata.items():
        if fault := _line_break_fault(value, "a metadata line"):
            return f"{key}: {fault}"
    return None


class ScoreTable:
    """Ordered collection of per-(song, instrument) metric rows."""

    def __init__(self, metadata: Mapping[str, str] | None = None):
        # Each row's scores in METRICS order.
        self._rows: dict[tuple[str, str], tuple[float, ...]] = {}
        self.metadata: dict[str, str] = dict(metadata or {})

    def __len__(self) -> int:
        return len(self._rows)

    def add_row(self, song_id: str, instrument: str, values: Mapping[str, float]) -> None:
        for label in (song_id, instrument):
            if fault := cell_label_fault(label):
                raise InvalidInputError(fault)
        # A CSV row opens with its song id; the reader strips each line and
        # skips one that opens with '#'.
        if song_id[:1].isspace() or song_id.startswith("#"):
            raise InvalidInputError(f"song id {song_id!r} opens with whitespace or '#'")
        unknown = set(values) - set(METRICS)
        if unknown:
            raise InvalidInputError(f"unknown metrics in row: {sorted(unknown)}")
        self._insert(song_id, instrument, [values.get(m, math.nan) for m in METRICS])

    def _insert(self, song_id: str, instrument: str, values: Iterable) -> None:
        """Store one row, ``values`` in METRICS order: the gate every row passes.

        Each value must be a number, NaN for missing, never infinite; a
        second row for the same (song, instrument) is refused.
        """
        key = (song_id, instrument)
        if key in self._rows:
            raise InvalidInputError(f"duplicate row for song {song_id!r} instrument {instrument!r}")
        try:
            row = tuple(map(float, values))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(str(exc)) from None
        if any(map(math.isinf, row)):
            raise InvalidInputError("scores must be finite or missing")
        self._rows[key] = row

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
        return math.nan if row is None else row[METRICS.index(metric)]

    def column(self, instrument: str, metric: str) -> dict[str, float]:
        """``{song_id: value}`` of one metric over one instrument's rows, in row order."""
        if metric not in METRICS:
            raise InvalidInputError(f"unknown metric {metric!r}")
        column = METRICS.index(metric)
        return {
            song_id: values[column]
            for (song_id, inst), values in self._rows.items()
            if inst == instrument
        }

    # -- serialization -------------------------------------------------

    def to_csv(self) -> str:
        rows = ([*key, *map(format_score, row)] for key, row in self._rows.items())
        return write_csv(self.metadata, CSV_HEADER, rows)

    @classmethod
    def from_csv(cls, text: str) -> "ScoreTable":
        metadata: dict[str, str] = {}
        header_seen = False
        table = cls()
        # A score cell is empty (missing) or the writer's fixed-point decimal.
        decimal = r"-?[0-9]+(?:\.[0-9]+)?"
        # One pattern checks all of a row's score cells, which follow its two labels.
        scores = re.compile(",".join([f"(?:{decimal})?"] * len(METRICS)))
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                # The value is kept verbatim: whatever follows the first '='.
                key, eq, value = raw.partition("=")
                if eq:
                    metadata[key.strip().lstrip("#").strip()] = value
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
            if not scores.fullmatch(line, len(cells[0]) + len(cells[1]) + 2):
                # Name the first bad cell.
                for cell in cells[2:]:
                    if cell and not re.fullmatch(decimal, cell):
                        raise InvalidInputError(
                            f"line {lineno}: score {cell!r} is not a decimal number"
                        )
            try:
                # Cells split on ',' from one stripped line that is no comment
                # pass every label check of add_row; only the gate is left.
                table._insert(cells[0], cells[1], [cell or math.nan for cell in cells[2:]])
            except InvalidInputError as exc:
                raise InvalidInputError(f"line {lineno}: {exc}") from None
        if not header_seen:
            raise InvalidInputError("no header line found")
        table.metadata = metadata
        return table

    def to_json(self) -> str:
        fields = ("song_id", "instrument", *METRICS)
        rows = [dict(zip(fields, (*key, *map(json_value, row)))) for key, row in self._rows.items()]
        return write_json(envelope(self.metadata, rows=rows))

    @classmethod
    def from_json(cls, text: str) -> "ScoreTable":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
            raise InvalidInputError(f"not a JSON score table: {exc}") from None
        if not isinstance(payload, dict):
            kind = type(payload).__name__
            raise InvalidInputError(f"expected a JSON object at the top level, got {kind}")
        config, rows = payload.get("config", {}), payload.get("rows", [])
        if not isinstance(config, dict) or not isinstance(rows, list):
            raise InvalidInputError("'config' must be an object and 'rows' a list")
        metadata = {"format_version": payload.get("format_version", FORMAT_VERSION), **config}
        for key, value in metadata.items():
            if not isinstance(value, str):
                raise InvalidInputError(f"{key}: {value!r} is not a string")
        table = cls(metadata)
        for index, row in enumerate(rows):
            if not isinstance(row, dict) or not {"song_id", "instrument"} <= row.keys():
                raise InvalidInputError(
                    f"row {index}: expected an object with song_id and instrument"
                )
            values = {}
            for key, value in row.items():
                if key in ("song_id", "instrument"):
                    continue
                # bool is an int subclass, but true is no score.
                if value is not None and type(value) not in (int, float):
                    raise InvalidInputError(f"row {index}: {key} {value!r} is not a number or null")
                values[key] = math.nan if value is None else value
            try:
                table.add_row(row["song_id"], row["instrument"], values)
            except InvalidInputError as exc:
                raise InvalidInputError(f"row {index}: {exc}") from None
        return table


def aggregate_dataset(table: ScoreTable) -> dict[str, dict[str, float]]:
    """Per-instrument median of per-song scores, skipping missing entries."""
    return {
        instrument: {
            m: median_ignoring_missing(list(table.column(instrument, m).values()))
            for m in METRICS
        }
        for instrument in table.instruments()
    }


def summary_to_csv(summary: Mapping[str, Mapping[str, float]], metadata: Mapping[str, str]) -> str:
    rows = ([instrument, *metric_cells(values)] for instrument, values in summary.items())
    return write_csv(metadata, "instrument," + ",".join(METRICS), rows)
