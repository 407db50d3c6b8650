"""Unit tests for the SQL parser."""

import pytest

from repro.sql.ast import (
    Aggregate,
    ComparisonPredicate,
    Placeholder,
    RangePredicate,
    SelectStatement,
)
from repro.sql.parser import SQLSyntaxError, parse


class TestProjectionParsing:
    def test_single_column(self):
        statement = parse("SELECT objid FROM p")
        assert statement.table == "p"
        assert statement.columns == ("objid",)
        assert statement.predicates == ()

    def test_multiple_columns(self):
        statement = parse("select objid, ra, dec from photoobj")
        assert statement.columns == ("objid", "ra", "dec")

    def test_star_projection(self):
        assert parse("SELECT * FROM p").columns == ("*",)

    def test_aggregates(self):
        statement = parse("SELECT count(*), sum(ra) FROM p")
        assert statement.is_aggregate
        assert statement.aggregates[0] == Aggregate("count", None)
        assert statement.aggregates[1] == Aggregate("sum", "ra")

    def test_keywords_are_case_insensitive(self):
        statement = parse("SeLeCt objid FrOm P wHeRe ra BeTwEeN 1 AnD 2")
        assert statement.table == "p"
        assert isinstance(statement.predicates[0], RangePredicate)


class TestPredicateParsing:
    def test_between(self):
        statement = parse("SELECT objid FROM p WHERE ra BETWEEN 205.1 AND 205.12")
        predicate = statement.predicates[0]
        assert predicate == RangePredicate("ra", 205.1, 205.12)

    def test_conjunction_of_between_and_comparison(self):
        statement = parse(
            "SELECT objid FROM p WHERE ra BETWEEN 10 AND 20 AND dec >= 1.5 AND dec < 2"
        )
        assert len(statement.predicates) == 3
        assert statement.predicates[1] == ComparisonPredicate("dec", ">=", 1.5)
        assert statement.predicates[2] == ComparisonPredicate("dec", "<", 2.0)

    def test_scientific_notation_and_negative_numbers(self):
        statement = parse("SELECT objid FROM p WHERE ra BETWEEN -1.5e2 AND 2E2")
        predicate = statement.predicates[0]
        assert predicate.low == -150.0
        assert predicate.high == 200.0

    def test_limit(self):
        assert parse("SELECT objid FROM p LIMIT 5").limit == 5


class TestErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "",
            "SELECT FROM p",
            "SELECT objid p",
            "SELECT objid FROM p WHERE ra BETWEEN 1",
            "SELECT objid FROM p WHERE ra 1",
            "SELECT objid FROM p WHERE BETWEEN 1 AND 2",
            "SELECT objid FROM p extra",
            "INSERT INTO p VALUES (1)",
            "SELECT objid FROM p WHERE ra @ 5",
        ],
    )
    def test_invalid_queries_rejected(self, query):
        with pytest.raises(SQLSyntaxError):
            parse(query)


class TestASTValidation:
    def test_range_predicate_orders_bounds(self):
        with pytest.raises(ValueError):
            RangePredicate("ra", 10.0, 5.0)

    def test_comparison_operator_validated(self):
        with pytest.raises(ValueError):
            ComparisonPredicate("ra", "!", 1.0)

    def test_aggregate_validation(self):
        with pytest.raises(ValueError):
            Aggregate("median", "ra")
        with pytest.raises(ValueError):
            Aggregate("sum", None)
        assert Aggregate("count", None).label == "count(*)"

    def test_select_statement_needs_exactly_one_projection_kind(self):
        with pytest.raises(ValueError):
            SelectStatement(table="p")
        with pytest.raises(ValueError):
            SelectStatement(table="p", columns=("a",), aggregates=(Aggregate("count", None),))


class TestPlaceholders:
    def test_qmark_placeholders_parse_in_prepared_mode(self):
        statement = parse(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?", placeholders=True
        )
        predicate = statement.predicates[0]
        assert isinstance(predicate, RangePredicate)
        assert isinstance(predicate.low, Placeholder)
        assert isinstance(predicate.high, Placeholder)
        assert (predicate.low.index, predicate.high.index) == (0, 1)
        assert (predicate.low.key, predicate.high.key) == (0, 1)
        assert (predicate.low.name, predicate.high.name) == ("__p0", "__p1")

    def test_named_placeholders_keep_their_key(self):
        statement = parse(
            "SELECT objid FROM p WHERE ra BETWEEN :lo AND :Hi", placeholders=True
        )
        predicate = statement.predicates[0]
        assert (predicate.low.key, predicate.high.key) == ("lo", "hi")
        assert (predicate.low.index, predicate.high.index) == (0, 1)

    def test_repeated_name_gets_distinct_positions(self):
        statement = parse(
            "SELECT objid FROM p WHERE ra >= :x AND ra <= :x", placeholders=True
        )
        first, second = statement.predicates
        assert first.value.key == second.value.key == "x"
        assert (first.value.index, second.value.index) == (0, 1)
        assert (first.value.name, second.value.name) == ("__p0", "__p1")

    def test_comparison_placeholder(self):
        statement = parse("SELECT objid FROM p WHERE ra < ?", placeholders=True)
        assert isinstance(statement.predicates[0].value, Placeholder)

    def test_placeholders_rejected_outside_prepared_mode(self):
        with pytest.raises(SQLSyntaxError, match="prepared"):
            parse("SELECT objid FROM p WHERE ra < ?")
        with pytest.raises(SQLSyntaxError, match="prepared"):
            parse("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")

    def test_mixed_styles_rejected(self):
        with pytest.raises(SQLSyntaxError, match="mix"):
            parse("SELECT objid FROM p WHERE ra BETWEEN ? AND :hi", placeholders=True)

    def test_placeholder_not_allowed_in_limit(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT objid FROM p LIMIT ?", placeholders=True)

    def test_range_with_placeholder_skips_parse_time_ordering(self):
        # NaN payloads defeat the high < low check; bind time re-applies it.
        statement = parse(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND 5.0", placeholders=True
        )
        assert statement.predicates[0].high == 5.0
