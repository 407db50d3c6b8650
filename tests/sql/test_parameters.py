"""Tests for literal lifting (masking), placeholders and parameter binding."""

from decimal import Decimal

import numpy as np
import pytest

from repro.engine.plan_cache import normalize_sql
from repro.sql.ast import ComparisonPredicate, Placeholder, RangePredicate
from repro.sql.parameters import (
    BindError,
    BindingSpec,
    mask_literals,
    parameter_names,
    prepared_binding,
)
from repro.sql.parser import parse


def lifted(sql: str):
    """Literal ``sql`` as the engine lifts it: the prepared parse of its masked text."""
    masked, values = mask_literals(normalize_sql(sql))
    return parse(masked, placeholders=True), values


def masked_text(sql: str) -> str:
    """The plan-cache key of literal ``sql``."""
    return mask_literals(normalize_sql(sql))[0]


class TestPlaceholder:
    def test_is_a_nan_float_named_by_its_position(self):
        placeholder = Placeholder(1, "hi")
        assert placeholder != placeholder  # NaN: no parse-time range comparison holds
        assert (placeholder.name, placeholder.index, placeholder.key) == ("__p1", 1, "hi")


class TestLift:
    def test_range_literals_become_placeholders(self):
        statement, values = lifted("SELECT objid FROM p WHERE ra BETWEEN 10 AND 40")
        assert values == (10.0, 40.0)
        predicate = statement.predicates[0]
        assert isinstance(predicate, RangePredicate)
        assert isinstance(predicate.low, Placeholder) and predicate.low.name == "__p0"
        assert isinstance(predicate.high, Placeholder) and predicate.high.name == "__p1"

    def test_comparison_literal_becomes_a_placeholder(self):
        statement, values = lifted("SELECT objid FROM p WHERE ra < 7")
        assert values == (7.0,)
        predicate = statement.predicates[0]
        assert isinstance(predicate, ComparisonPredicate)
        assert isinstance(predicate.value, Placeholder)

    def test_multiple_predicates_number_parameters_in_textual_order(self):
        statement, values = lifted(
            "SELECT objid FROM p WHERE ra BETWEEN 10 AND 40 AND dec > 5"
        )
        assert values == (10.0, 40.0, 5.0)
        assert parameter_names(statement) == ("__p0", "__p1", "__p2")

    def test_no_predicates_no_parameters(self):
        statement, values = lifted("SELECT objid FROM p")
        assert values == ()
        assert parameter_names(statement) == ()


class TestMaskLiterals:
    def test_masks_literals_and_extracts_values(self):
        masked, values = mask_literals(
            normalize_sql("SELECT objid FROM p WHERE ra BETWEEN 10.5 AND 40")
        )
        assert masked == "select objid from p where ra between ? and ?"
        assert values == (10.5, 40.0)

    def test_literal_variants_share_one_masked_text(self):
        first = mask_literals(normalize_sql("SELECT x FROM t WHERE x < 10"))
        second = mask_literals(normalize_sql("SELECT  x FROM t   WHERE x < 1e1"))
        assert first[0] == second[0]
        assert first[1] == second[1] == (10.0,)

    def test_masked_text_distinguishes_structure(self):
        base = masked_text("SELECT objid FROM p WHERE ra BETWEEN 10 AND 40")
        assert masked_text("SELECT objid FROM p WHERE dec BETWEEN 10 AND 40") != base
        assert masked_text("SELECT objid FROM p WHERE ra < 40") != base
        assert masked_text("SELECT ra FROM p WHERE ra BETWEEN 10 AND 40") != base
        assert masked_text("SELECT objid FROM q WHERE ra BETWEEN 10 AND 40") != base
        assert masked_text("SELECT objid FROM p WHERE ra BETWEEN 10 AND 40 LIMIT 5") != base
        assert masked_text("SELECT count(*) FROM p WHERE ra BETWEEN 10 AND 40") != base

    def test_a_limit_count_stays_in_the_text(self):
        # The count is part of the plan, not a bound: it keys, it does not bind.
        masked, values = mask_literals(
            normalize_sql("SELECT objid FROM p WHERE ra BETWEEN 10 AND 40 LIMIT 5")
        )
        assert masked == "select objid from p where ra between ? and ? limit 5"
        assert values == (10.0, 40.0)
        assert masked_text("SELECT objid FROM p WHERE ra BETWEEN 1 AND 2 LIMIT 6") != masked
        assert masked_text("SELECT objid FROM p LIMIT +5") == "select objid from p limit +5"

    def test_a_sign_glued_to_a_keyword_is_not_half_masked(self):
        # "and-5" lexes as AND, -5.  Masking only the "5" would bind +5 on the
        # next execution; leaving the literal in keeps it part of the plan.
        masked, values = mask_literals("select x from t where x between -9 and-5")
        assert masked == "select x from t where x between ? and-5"
        assert values == (-9.0,)
        statement, _ = lifted("select x from t where x between -9 and-5")
        assert statement.predicates[0].high == -5.0  # baked, as a `?` text spells it

    def test_digits_inside_identifiers_are_not_masked(self):
        masked, values = mask_literals("select m1 from t2 where col3 < 5")
        assert masked == "select m1 from t2 where col3 < ?"
        assert values == (5.0,)

    def test_negative_literals_after_operators(self):
        masked, values = mask_literals("select x from t where x > -5")
        assert masked == "select x from t where x > ?"
        assert values == (-5.0,)
        masked, values = mask_literals("select x from t where x>-5")
        assert masked == "select x from t where x>?"
        assert values == (-5.0,)

    def test_adjacent_numbers_mask_divergently_but_harmlessly(self):
        # "10-5" lexes as two numbers (10, -5) and never parses; the masked
        # text keeps the "-5" so it can never collide with an installed plan.
        masked, values = mask_literals("select x from t where x between 10-5 and 20")
        assert masked == "select x from t where x between ?-5 and ?"
        assert values == (10.0, 20.0)

    def test_raw_question_marks_survive_masking(self):
        masked, values = mask_literals("select x from t where x between ? and 5")
        assert masked == "select x from t where x between ? and ?"
        assert values == (5.0,)  # fewer values than '?' occurrences → never matches


class TestLiftedBinding:
    """A lifted statement binds like the ``?`` statement its masked text spells."""

    def test_range_order_is_revalidated_on_the_lifted_literals(self):
        statement, _ = lifted("SELECT objid FROM p WHERE ra BETWEEN 10 AND 40 AND dec > 5")
        binding = prepared_binding(statement)
        assert binding.bind((10.0, 40.0, 5.0)) == (10.0, 40.0, 5.0)
        with pytest.raises(BindError, match="high >= low"):
            binding.bind((40.0, 10.0, 5.0))
        with pytest.raises(BindError, match="takes 3 parameter"):
            binding.bind((10.0, 40.0))

    def test_invalid_range_still_raises_at_parse_time(self):
        with pytest.raises(ValueError, match="high < low"):
            parse("SELECT x FROM t WHERE x BETWEEN 9 AND 3")


class TestMaskedTextIsThePlaceholderText:
    """Literal text and its ``?`` spelling meet at one plan-cache key."""

    def test_masked_literal_text_equals_the_normalized_placeholder_text(self):
        literal = "SELECT objid FROM p WHERE ra BETWEEN 1.5 AND 2.5"
        assert masked_text(literal) == normalize_sql(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND ?"
        )
        assert masked_text(literal) == masked_text(
            "SELECT objid FROM p WHERE ra BETWEEN 7.5 AND 9.5"
        )

    def test_a_statement_mixing_placeholders_and_literals_keys_apart(self):
        assert normalize_sql(
            "SELECT objid FROM p WHERE ra BETWEEN ? AND 20.0"
        ) != masked_text("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 20.0")


def prepared_spec(sql: str) -> BindingSpec:
    return prepared_binding(parse(sql, placeholders=True))


class TestBindingSpec:
    def test_qmark_spec(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        assert spec.style == "qmark"
        assert spec.keys == (0, 1)
        assert spec.range_checks == ((0, 0.0, 1, 0.0),)
        assert spec.bind((1.0, 2.0)) == (1.0, 2.0)

    def test_named_spec_case_insensitive(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        assert spec.style == "named"
        assert spec.keys == ("lo", "hi")
        assert spec.bind({"LO": 1, "hi": 2.5}) == (1.0, 2.5)

    def test_no_placeholders(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN 1.0 AND 2.0")
        assert spec.style == "none" and spec.count == 0
        assert spec.bind(()) == ()
        assert spec.bind(None) == ()
        with pytest.raises(BindError):
            spec.bind((1.0,))

    def test_mixed_range_check_against_baked_literal(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN ? AND 10.0")
        assert spec.range_checks == ((0, 0.0, -1, 10.0),)
        assert spec.bind((3.0,)) == (3.0,)
        with pytest.raises(BindError, match="high >= low"):
            spec.bind((11.0,))

    def test_comparison_placeholders_have_no_range_checks(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra < ? AND ra > ?")
        assert spec.range_checks == ()
        # No ordering constraint between independent comparisons.
        assert spec.bind((1.0, 99.0)) == (1.0, 99.0)

    def test_bind_rejects_nan_but_not_inf(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        with pytest.raises(BindError, match="NaN"):
            spec.bind((float("nan"), 1.0))
        assert spec.bind((float("-inf"), float("inf"))) == (float("-inf"), float("inf"))

    def test_bind_rejects_non_numeric_and_bool(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra < ?")
        for bad in ("1", None, object(), [1.0], True):
            with pytest.raises(BindError, match="numeric"):
                spec.bind((bad,))


class TestSubstitutePlaceholders:
    def test_named_keys_colliding_by_case_rejected(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN :lo AND :hi")
        with pytest.raises(BindError, match="more than once"):
            spec.bind({"lo": 1.0, "hi": 2.0, "HI": 3.0})

    def test_decimal_accepted(self):
        from decimal import Decimal

        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        assert spec.bind((Decimal("1.5"), Decimal("2"))) == (1.5, 2.0)
        with pytest.raises(BindError, match="NaN"):
            spec.bind((Decimal("NaN"), Decimal("2")))

    def test_unordered_containers_rejected(self):
        spec = prepared_spec("SELECT objid FROM p WHERE ra BETWEEN ? AND ?")
        for bad in ({1.0, 2.0}, frozenset({1.0, 2.0}), {"a": 1.0, "b": 2.0}.values()):
            with pytest.raises(BindError, match="ordered sequence"):
                spec.bind(bad)


class TestBindMany:
    def _spec(self):
        statement = parse("SELECT x FROM t WHERE x BETWEEN ? AND ?", placeholders=True)
        return prepared_binding(statement)

    def test_fast_path_matches_per_member_bind(self):
        spec = self._spec()
        batch = [(1.0, 2.0), (3, 7), (0.5, 0.5)]
        assert spec.bind_many(batch) == [spec.bind(p) for p in batch]

    def test_heterogeneous_values_fall_back_and_match(self):
        spec = self._spec()
        batch = [(Decimal("1.5"), 2.0), (np.float64(3.0), np.int64(7))]
        assert spec.bind_many(batch) == [spec.bind(p) for p in batch]

    def test_reversed_range_raises_the_per_member_error(self):
        spec = self._spec()
        with pytest.raises(BindError, match="high >= low"):
            spec.bind_many([(1.0, 2.0), (9.0, 3.0)])

    def test_nan_raises_the_per_member_error(self):
        spec = self._spec()
        with pytest.raises(BindError, match="NaN"):
            spec.bind_many([(1.0, 2.0), (float("nan"), 3.0)])

    def test_wrong_arity_raises(self):
        spec = self._spec()
        with pytest.raises(BindError, match="parameter"):
            spec.bind_many([(1.0, 2.0), (3.0,)])

    def test_boolean_rejected(self):
        spec = self._spec()
        with pytest.raises(BindError, match="numeric"):
            spec.bind_many([(True, 2.0)])

    def test_scalar_member_raises_bind_error(self):
        spec = self._spec()
        with pytest.raises(BindError, match="ordered sequence"):
            spec.bind_many([3.0])

    def test_named_style_falls_back(self):
        statement = parse(
            "SELECT x FROM t WHERE x BETWEEN :lo AND :hi", placeholders=True
        )
        spec = prepared_binding(statement)
        assert spec.bind_many([{"lo": 1.0, "hi": 2.0}]) == [
            spec.bind({"lo": 1.0, "hi": 2.0})
        ]

    def test_empty_batch(self):
        assert self._spec().bind_many([]) == []
