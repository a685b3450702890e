import json
import math

import pytest
from hypothesis import given, strategies as st

from separability import InvalidInputError, ScoreTable, aggregate_dataset
from separability.metrics import METRICS
from separability.scores import (
    CSV_HEADER,
    cell_label_fault,
    format_score,
    json_value,
    metadata_fault,
    summary_to_csv,
)


def _table(rows, metadata=None):
    table = ScoreTable(metadata)
    for song_id, instrument, si in rows:
        table.add_row(
            song_id,
            instrument,
            {"si_sdr": si, "sdr": si + 1, "sir": si + 2, "isr": si + 3, "sar": si + 4},
        )
    return table


class TestFormatting:
    def test_six_decimals(self):
        assert format_score(1.5) == "1.500000"
        assert format_score(-3.0) == "-3.000000"

    def test_round_half_even(self):
        # Exact dyadic ties at the 6th decimal go to the even neighbour:
        # 0.0078125 = 2^-7 sits exactly between 0.007812 and 0.007813.
        assert format_score(0.0078125) == "0.007812"
        assert format_score(0.0234375) == "0.023438"

    def test_missing_is_empty(self):
        assert format_score(math.nan) == ""

    def test_no_negative_zero(self):
        assert format_score(-0.0) == "0.000000"
        assert format_score(-1e-9) == "0.000000"

    def test_json_value(self):
        assert json_value(math.nan) is None
        assert json_value(1.23456789) == 1.234568
        assert json.dumps(json_value(-1e-9)) == "0.0"


class TestTable:
    def test_duplicate_row_rejected(self):
        table = _table([("a", "bass", 1.0)])
        with pytest.raises(InvalidInputError):
            table.add_row("a", "bass", {"si_sdr": 2.0})

    def test_unknown_metric_rejected(self):
        table = ScoreTable()
        with pytest.raises(InvalidInputError):
            table.add_row("a", "bass", {"volume": 11.0})

    @pytest.mark.parametrize("song_id,instrument", [("a,b", "bass"), ("a", "bass,di")])
    def test_comma_in_label_rejected(self, song_id, instrument):
        table = ScoreTable()
        with pytest.raises(InvalidInputError, match="contains ','"):
            table.add_row(song_id, instrument, {"sdr": 1.0})
        assert len(table) == 0

    # Every separator str.splitlines splits on: each would end a CSV row, or
    # the '# instruments=' metadata line, that holds the label.
    @pytest.mark.parametrize("brk", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029") + ["\r\n"])
    @pytest.mark.parametrize("position", ["song_id", "instrument"])
    def test_line_break_in_label_rejected(self, brk, position):
        label = f"voc{brk}als"
        song_id, instrument = (label, "bass") if position == "song_id" else ("a", label)
        table = ScoreTable()
        with pytest.raises(InvalidInputError, match="contains a line break"):
            table.add_row(song_id, instrument, {"sdr": 1.0})
        assert len(table) == 0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, "abc"])
    def test_value_that_is_not_a_finite_number_rejected(self, value):
        table = ScoreTable()
        with pytest.raises(InvalidInputError):
            table.add_row("a", "bass", {"sdr": value})
        assert len(table) == 0

    # The reader strips each CSV line and skips one that opens with '#'.
    @pytest.mark.parametrize("song_id", [" a", "\ta", "\xa0a", "#a"])
    def test_song_id_that_would_open_its_row_badly_rejected(self, song_id):
        table = ScoreTable()
        with pytest.raises(InvalidInputError, match="opens with whitespace or '#'"):
            table.add_row(song_id, "bass", {"sdr": 1.0})
        table.add_row("a", f" {song_id}", {"sdr": 1.0})  # an instrument is mid-row
        assert ScoreTable.from_csv(table.to_csv()).instruments() == (f" {song_id}",)

    def test_missing_row_reads_as_missing(self):
        table = _table([("a", "bass", 1.0)])
        assert math.isnan(table.value("zzz", "bass", "si_sdr"))

    def test_orders_preserved(self):
        table = _table([("b", "drums", 1.0), ("a", "bass", 2.0), ("b", "bass", 3.0)])
        assert table.song_ids() == ("b", "a")
        assert table.instruments() == ("drums", "bass")


class TestCsv:
    def test_round_trip_with_missing(self):
        table = _table([("a", "bass", 1.25)], {"alpha": "2.0"})
        table.add_row("b", "bass", {"si_sdr": math.nan, "sdr": 2.0})
        text = table.to_csv()
        assert text.startswith("# format_version=1\n# alpha=2.0\n")
        assert CSV_HEADER in text
        back = ScoreTable.from_csv(text)
        assert back.metadata["alpha"] == "2.0"
        assert back.value("a", "bass", "si_sdr") == 1.25
        assert math.isnan(back.value("b", "bass", "si_sdr"))
        assert back.value("b", "bass", "sdr") == 2.0
        assert math.isnan(back.value("b", "bass", "sar"))

    def test_missing_cells_are_empty(self):
        table = ScoreTable()
        table.add_row("a", "bass", {"si_sdr": 1.0})
        line = table.to_csv().splitlines()[-1]
        assert line == "a,bass,1.000000,,,,"

    def test_header_enforced(self):
        with pytest.raises(InvalidInputError):
            ScoreTable.from_csv("song,inst,foo\n")

    def test_bad_cell_count(self):
        text = CSV_HEADER + "\na,bass,1.0\n"
        with pytest.raises(InvalidInputError):
            ScoreTable.from_csv(text)

    def test_duplicate_row_rejected(self):
        text = CSV_HEADER + "\na,bass,1.0,,,,\nb,bass,,,,,\na,bass,2.0,,,,\n"
        with pytest.raises(
            InvalidInputError, match="^line 4: duplicate row for song 'a' instrument 'bass'$"
        ):
            ScoreTable.from_csv(text)

    def test_comma_in_label_is_a_bad_cell_count(self):
        text = CSV_HEADER + "\na,bass,di,1.0,,,,\n"
        with pytest.raises(InvalidInputError, match="line 2: expected 7 cells"):
            ScoreTable.from_csv(text)

    # A value is written as one '# key=value' line, which any line break would split.
    @pytest.mark.parametrize("brk", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_metadata_value_holding_a_line_break_is_a_fault(self, brk):
        path = f"ds{brk}x"
        fault = metadata_fault({"command": "analyze", "dataset": path})
        assert fault == f"dataset: {path!r} contains a line break, which a metadata line cannot hold"
        assert metadata_fault({"command": "analyze", "dataset": "ds x"}) is None

    def test_serialization_is_stable(self):
        table = _table([("a", "bass", 1.0), ("a", "drums", -2.5)], {"seed": "0"})
        assert table.to_csv() == table.to_csv()
        assert ScoreTable.from_csv(table.to_csv()).to_csv() == table.to_csv()


class TestJson:
    def test_round_trip(self):
        table = _table([("a", "bass", 1.25), ("b", "bass", math.nan)], {"alpha": "2.0"})
        text = table.to_json()
        payload = json.loads(text)
        assert payload["format_version"] == "1"
        assert payload["config"]["alpha"] == "2.0"
        assert payload["rows"][1]["si_sdr"] is None
        back = ScoreTable.from_json(text)
        assert back.value("a", "bass", "si_sdr") == 1.25
        assert math.isnan(back.value("b", "bass", "si_sdr"))

    @pytest.mark.parametrize("label", ["voc\u2028als", "voc\rals"])
    def test_line_break_in_label_rejected(self, label):
        rows = [{"song_id": "a", "instrument": label, "sdr": 1.0}]
        text = json.dumps({"format_version": "1", "config": {}, "rows": rows})
        with pytest.raises(InvalidInputError, match="contains a line break"):
            ScoreTable.from_json(text)

    def test_values_rounded_to_six_decimals(self):
        table = ScoreTable()
        table.add_row("a", "bass", {"si_sdr": 1.23456789})
        payload = json.loads(table.to_json())
        assert payload["rows"][0]["si_sdr"] == 1.234568


# Labels a table can hold: no comma, no line break, and a song id that does
# not open its CSV row with whitespace or '#'.
_labels = st.text(max_size=6).filter(lambda label: cell_label_fault(label) is None)
_song_ids = _labels.filter(lambda song_id: not song_id[:1].isspace() and song_id[:1] != "#")
_scores = st.one_of(st.floats(allow_infinity=False), st.just(math.nan))
# Metadata a table can hold: any value without a line break, often one
# that opens or ends with whitespace.
_padding = st.sampled_from(["", " ", "\t", "  "])
_metadata = st.dictionaries(
    st.sampled_from(["command", "dataset", "manifest"]),
    st.tuples(_padding, st.text(max_size=6), _padding)
    .map("".join)
    .filter(lambda value: metadata_fault({"value": value}) is None),
)


def _six_decimal_rows(table: ScoreTable) -> dict:
    """Every row of ``table``, ``{(song_id, instrument): six-decimal cells}``."""
    return {
        (song_id, instrument): [format_score(table.column(instrument, m)[song_id]) for m in METRICS]
        for instrument in table.instruments()
        for song_id in table.column(instrument, METRICS[0])
    }


@given(
    rows=st.dictionaries(
        st.tuples(_song_ids, _labels), st.lists(_scores, min_size=5, max_size=5), max_size=6
    ),
    metadata=_metadata,
)
def test_tables_read_back_the_rows_they_wrote(rows, metadata):
    table = ScoreTable(metadata)
    for (song_id, instrument), values in rows.items():
        table.add_row(song_id, instrument, dict(zip(METRICS, values)))
    written = {key: [format_score(v) for v in values] for key, values in rows.items()}
    for back in (ScoreTable.from_csv(table.to_csv()), ScoreTable.from_json(table.to_json())):
        assert len(back) == len(rows)
        assert back.song_ids() == table.song_ids()
        assert back.instruments() == table.instruments()
        assert _six_decimal_rows(back) == written
        assert list(back.metadata.items()) == [("format_version", "1"), *metadata.items()]


class TestAggregateDataset:
    def test_median_per_instrument(self):
        table = _table(
            [("a", "bass", 1.0), ("b", "bass", 2.0), ("c", "bass", 100.0), ("a", "drums", 5.0)]
        )
        summary = aggregate_dataset(table)
        assert summary["bass"]["si_sdr"] == 2.0
        assert summary["drums"]["si_sdr"] == 5.0

    def test_even_count_mean_of_middle(self):
        table = _table([(s, "bass", v) for s, v in zip("abcd", [1.0, 2.0, 3.0, 4.0])])
        assert aggregate_dataset(table)["bass"]["si_sdr"] == 2.5

    def test_missing_songs_skipped(self):
        table = _table([("a", "bass", 1.0), ("b", "bass", math.nan), ("c", "bass", 3.0)])
        assert aggregate_dataset(table)["bass"]["si_sdr"] == 2.0

    def test_single_song(self):
        table = _table([("a", "bass", 7.5)])
        assert aggregate_dataset(table)["bass"]["si_sdr"] == 7.5

    def test_summary_csv_shape(self):
        table = _table([("a", "bass", 1.0)])
        text = summary_to_csv(aggregate_dataset(table), {"command": "analyze"})
        lines = text.splitlines()
        assert lines[:2] == ["# format_version=1", "# command=analyze"]
        assert lines[-2] == "instrument,si_sdr,sdr,sir,isr,sar"
        assert lines[-1].startswith("bass,1.000000,2.000000")
