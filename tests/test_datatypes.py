"""Unit and property tests for the data type system."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.datatypes import (
    DataType,
    DateValue,
    NormalizationError,
    candidate_property_types,
    detect_cell_type,
    detect_column_type,
    normalize_value,
    value_similarity,
    values_equal,
)
from repro.datatypes.normalization import (
    parse_date,
    parse_nominal_integer,
    parse_quantity,
)


class TestDateValue:
    def test_year_granularity(self):
        date = DateValue(1987)
        assert not date.is_day_granular
        assert str(date) == "1987"

    def test_day_granularity(self):
        date = DateValue(1987, 3, 14)
        assert date.is_day_granular
        assert str(date) == "1987-03-14"

    def test_partial_date_rejected(self):
        with pytest.raises(ValueError):
            DateValue(1987, 3, None)

    def test_month_out_of_range(self):
        with pytest.raises(ValueError):
            DateValue(1987, 13, 1)

    def test_ordinal_ordering(self):
        assert DateValue(1987).ordinal() < DateValue(1987, 6, 15).ordinal()
        assert DateValue(1987, 6, 15).ordinal() < DateValue(1988).ordinal()


class TestDateParsing:
    @pytest.mark.parametrize(
        "raw",
        ["1987-03-14", "3/14/1987", "March 14, 1987", "14 March 1987"],
    )
    def test_formats_agree(self, raw):
        assert parse_date(raw) == DateValue(1987, 3, 14)

    def test_bare_year(self):
        assert parse_date("1987") == DateValue(1987)

    def test_garbage_raises(self):
        with pytest.raises(NormalizationError):
            parse_date("not a date")

    @pytest.mark.parametrize("raw", ["62/4/1990", "1990-13-01", "Mar 40, 1990"])
    def test_out_of_range_month_or_day_is_not_a_date(self, raw):
        with pytest.raises(NormalizationError):
            parse_date(raw)
        assert detect_cell_type(raw) is not DataType.DATE

    def test_column_with_a_typo_date_still_types(self):
        cells = ["3/14/1987", "62/4/1990", "7/1/1975", "12/30/2001"]
        assert detect_column_type(cells) is DataType.DATE

    def test_pipeline_runs_over_a_table_with_a_typo_date(self, tiny_world):
        from repro.api import RunSession
        from repro.webtables.corpus import TableCorpus
        from repro.webtables.table import WebTable

        corpus = TableCorpus(tiny_world.corpus)
        corpus.add(
            WebTable(
                table_id="typo-date",
                header=("name", "birth date"),
                rows=[
                    ("Alan Ameche", "6/1/1933"),
                    ("Jim Brown", "62/4/1936"),
                    ("Otto Graham", "12/6/1921"),
                ],
            )
        )
        session = RunSession(
            knowledge_base=tiny_world.knowledge_base, corpus=corpus
        )
        result = session.run(
            "GridironFootballPlayer", executor="serial", use_cache=False
        )
        assert result.final.entities


class TestQuantityParsing:
    def test_plain_number(self):
        assert parse_quantity("42") == 42.0

    def test_thousands_separators(self):
        assert parse_quantity("1,234,567") == 1234567.0

    def test_runtime_minutes_seconds(self):
        assert parse_quantity("3:45") == 225.0

    def test_runtime_hours(self):
        assert parse_quantity("1:02:03") == 3723.0

    def test_feet_inches_to_meters(self):
        assert parse_quantity("6'2\"") == pytest.approx(1.8796, abs=1e-3)

    def test_pounds_to_kilograms(self):
        assert parse_quantity("220 lbs") == pytest.approx(99.79, abs=0.01)

    def test_garbage_raises(self):
        with pytest.raises(NormalizationError):
            parse_quantity("tall")


class TestNominalInteger:
    def test_plain(self):
        assert parse_nominal_integer("12") == 12

    def test_hash_prefix(self):
        assert parse_nominal_integer("#12") == 12

    def test_ordinal_suffix(self):
        assert parse_nominal_integer("3rd") == 3

    def test_garbage_raises(self):
        with pytest.raises(NormalizationError):
            parse_nominal_integer("twelve")


class TestNormalizeValue:
    def test_empty_text_raises(self):
        with pytest.raises(NormalizationError):
            normalize_value("   ", DataType.TEXT)

    def test_nominal_string_normalized(self):
        assert normalize_value("  DE ", DataType.NOMINAL_STRING) == "de"

    def test_instance_reference_keeps_case(self):
        assert normalize_value("Green Bay Packers", DataType.INSTANCE_REFERENCE) == (
            "Green Bay Packers"
        )


class TestDetection:
    def test_date_cell(self):
        assert detect_cell_type("March 14, 1987") is DataType.DATE

    def test_quantity_cell(self):
        assert detect_cell_type("1,234") is DataType.QUANTITY

    def test_text_cell(self):
        assert detect_cell_type("Green Bay") is DataType.TEXT

    def test_empty_cell(self):
        assert detect_cell_type("") is None
        assert detect_cell_type(None) is None

    def test_column_majority(self):
        cells = ["Green Bay", "Chicago", "1987", "Dallas"]
        assert detect_column_type(cells) is DataType.TEXT

    def test_bare_years_with_quantities_vote_quantity(self):
        cells = ["1987", "2001", "153", "87", "412"]
        assert detect_column_type(cells) is DataType.QUANTITY

    def test_pure_year_column_is_date(self):
        assert detect_column_type(["1987", "1990", "2001"]) is DataType.DATE

    def test_empty_column_defaults_to_text(self):
        assert detect_column_type([None, None]) is DataType.TEXT


class TestCandidateTypes:
    def test_text_candidates(self):
        assert candidate_property_types(DataType.TEXT) == frozenset(
            {DataType.INSTANCE_REFERENCE, DataType.NOMINAL_STRING, DataType.TEXT}
        )

    def test_quantity_candidates(self):
        assert candidate_property_types(DataType.QUANTITY) == frozenset(
            {DataType.QUANTITY, DataType.NOMINAL_INTEGER}
        )

    def test_date_candidates_include_quantity(self):
        assert DataType.QUANTITY in candidate_property_types(DataType.DATE)

    def test_undetectable_type_rejected(self):
        with pytest.raises(ValueError):
            candidate_property_types(DataType.INSTANCE_REFERENCE)


class TestSimilarity:
    def test_quantity_within_tolerance(self):
        assert values_equal(DataType.QUANTITY, 100.0, 104.0)

    def test_quantity_outside_tolerance(self):
        assert not values_equal(DataType.QUANTITY, 100.0, 120.0)

    def test_date_year_matches_full_date(self):
        assert values_equal(DataType.DATE, DateValue(1987), DateValue(1987, 3, 14))

    def test_date_different_days_unequal(self):
        assert not values_equal(
            DataType.DATE, DateValue(1987, 3, 14), DateValue(1987, 3, 15)
        )

    def test_nominal_string_exact_only(self):
        assert values_equal(DataType.NOMINAL_STRING, "Quarterback", "quarterback")
        assert not values_equal(DataType.NOMINAL_STRING, "Quarterback", "QB")

    def test_text_fuzzy(self):
        assert values_equal(DataType.TEXT, "John Smith", "Jon Smith")

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_quantity_self_similarity(self, value):
        assert value_similarity(DataType.QUANTITY, value, value) == 1.0

    @given(
        st.floats(min_value=0.1, max_value=1e6),
        st.floats(min_value=0.1, max_value=1e6),
    )
    def test_quantity_similarity_symmetric_and_bounded(self, a, b):
        score = value_similarity(DataType.QUANTITY, a, b)
        assert 0.0 <= score <= 1.0
        assert score == value_similarity(DataType.QUANTITY, b, a)
