"""Unit tests for the segmentation models (Gaussian Dice and APM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import (
    AdaptivePageModel,
    GaussianDice,
    SplitAction,
    SplitDecision,
    model_from_name,
)
from repro.core.ranges import ValueRange
from repro.core.segment import Segment
from repro.util.units import KB
from tests.support.apm_oracle import ReferenceAdaptivePageModel


def uniform_segment(low: float, high: float, count: int) -> Segment:
    """A segment whose values are evenly spread (estimates are then exact)."""
    values = np.linspace(low, high, count, endpoint=False).astype(np.float64)
    return Segment(ValueRange(low, high), values)


class TestGaussianDiceProbability:
    def test_balanced_split_has_probability_one(self):
        assert GaussianDice.decision_probability(0.5, 0.3) == pytest.approx(1.0)

    def test_extreme_ratios_have_low_probability(self):
        assert GaussianDice.decision_probability(0.01, 0.1) < 1e-5
        assert GaussianDice.decision_probability(0.99, 0.1) < 1e-5

    def test_larger_sigma_is_more_permissive(self):
        narrow = GaussianDice.decision_probability(0.2, 0.1)
        wide = GaussianDice.decision_probability(0.2, 1.0)
        assert wide > narrow

    def test_symmetry_around_half(self):
        assert GaussianDice.decision_probability(0.3, 0.2) == pytest.approx(
            GaussianDice.decision_probability(0.7, 0.2)
        )

    def test_zero_sigma_degenerates_to_exact_half(self):
        assert GaussianDice.decision_probability(0.5, 0.0) == 1.0
        assert GaussianDice.decision_probability(0.4999, 0.0) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            GaussianDice.decision_probability(1.5, 0.1)
        with pytest.raises(ValueError):
            GaussianDice.decision_probability(0.5, -0.1)


class TestGaussianDiceDecisions:
    def test_whole_column_balanced_split_is_taken(self):
        segment = uniform_segment(0, 1000, 1000)
        model = GaussianDice(seed=1)
        decision = model.decide(ValueRange(0, 500), segment, total_bytes=segment.size_bytes)
        assert decision.should_split
        assert decision.action is SplitAction.SPLIT_AT_BOUNDS

    def test_point_query_on_small_segment_is_rejected(self):
        segment = uniform_segment(0, 100, 100)
        model = GaussianDice(seed=1)
        # The segment is 1% of the column, so sigma is tiny and a 1%-wide
        # selection has essentially zero acceptance probability.
        decisions = [
            model.decide(ValueRange(10, 11), segment, total_bytes=100 * segment.size_bytes)
            for _ in range(50)
        ]
        assert not any(decision.should_split for decision in decisions)

    def test_query_covering_whole_segment_is_never_a_split(self):
        segment = uniform_segment(0, 100, 100)
        model = GaussianDice(seed=1)
        decision = model.decide(ValueRange(0, 100), segment, total_bytes=segment.size_bytes)
        assert not decision.should_split

    def test_split_points_are_the_clipped_query_bounds(self):
        segment = uniform_segment(0, 1000, 1000)
        model = GaussianDice(seed=3)
        decision = model.decide(ValueRange(400, 2000), segment, total_bytes=segment.size_bytes)
        if decision.should_split:
            assert decision.points == (400.0,)

    def test_seeded_models_are_reproducible(self):
        segment = uniform_segment(0, 1000, 1000)
        query = ValueRange(100, 600)
        first = [
            GaussianDice(seed=7).decide(query, segment, total_bytes=segment.size_bytes).should_split
            for _ in range(1)
        ]
        second = [
            GaussianDice(seed=7).decide(query, segment, total_bytes=segment.size_bytes).should_split
            for _ in range(1)
        ]
        assert first == second


class TestAdaptivePageModel:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePageModel(m_min=12 * KB, m_max=3 * KB)
        with pytest.raises(ValueError):
            AdaptivePageModel(m_min=0, m_max=10)

    def test_rule1_small_segments_left_intact(self):
        segment = uniform_segment(0, 100, 100)  # 800 bytes
        model = AdaptivePageModel(m_min=1 * KB, m_max=4 * KB)
        decision = model.decide(ValueRange(20, 60), segment, total_bytes=10 * KB)
        assert not decision.should_split

    def test_rule2_split_at_bounds_when_pieces_large_enough(self):
        segment = uniform_segment(0, 1000, 4096)  # 32 KB
        model = AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)
        decision = model.decide(ValueRange(400, 600), segment, total_bytes=segment.size_bytes)
        assert decision.action is SplitAction.SPLIT_AT_BOUNDS
        assert decision.points == (400.0, 600.0)

    def test_rule3_small_selection_on_large_segment_splits_at_one_point(self):
        segment = uniform_segment(0, 1000, 4096)  # 32 KB > Mmax
        model = AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)
        decision = model.decide(ValueRange(500, 505), segment, total_bytes=segment.size_bytes)
        assert decision.action is SplitAction.SPLIT_AT_POINT
        assert len(decision.points) == 1
        point = decision.points[0]
        assert 0 < point < 1000

    def test_rule3_not_applied_to_mid_sized_segments(self):
        segment = uniform_segment(0, 1000, 1024)  # 8 KB: between Mmin and Mmax
        model = AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)
        decision = model.decide(ValueRange(500, 505), segment, total_bytes=segment.size_bytes)
        assert not decision.should_split

    def test_rule3_prefers_query_border_with_smaller_query_side(self):
        segment = uniform_segment(0, 1000, 8192)  # 64 KB
        model = AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)
        # Query near the low end: splitting at the high bound keeps the
        # query-side piece smaller.
        decision = model.decide(ValueRange(100, 110), segment, total_bytes=segment.size_bytes)
        assert decision.action is SplitAction.SPLIT_AT_POINT
        assert decision.points[0] == pytest.approx(110.0)

    def test_query_covering_whole_segment_is_no_split(self):
        segment = uniform_segment(0, 1000, 4096)
        model = AdaptivePageModel(m_min=3 * KB, m_max=12 * KB)
        decision = model.decide(ValueRange(0, 1000), segment, total_bytes=segment.size_bytes)
        assert not decision.should_split


def _bound(draw, low: float, high: float) -> float:
    """A query bound on, inside or outside the segment ``[low, high)``."""
    return draw(st.one_of(
        st.sampled_from([low, high]),
        st.floats(low, high) if low < high else st.just(low),
        st.floats(low - 1e4, low),
        st.floats(high, high + 1e4),
    ))


@st.composite
def _decisions(draw):
    """``(segment, query, m_min, m_max)``: what one APM decision sees."""
    low = draw(st.floats(-1e6, 1e6))
    high = low + draw(st.one_of(st.just(0.0), st.floats(1e-9, 1e6)))
    segment = Segment(
        ValueRange(low, high),
        value_width=draw(st.sampled_from([1, 2, 4, 8])),
        estimated_count=draw(st.one_of(st.integers(0, 40_000), st.floats(0.0, 40_000.0))),
    )
    first, second = _bound(draw, low, high), _bound(draw, low, high)
    if draw(st.booleans()):
        second = first  # a point query
    query = ValueRange(min(first, second), max(first, second))
    # Sometimes a piece lands exactly on Mmin: rule 2's comparison is then decisive.
    points = segment.vrange.interior_points([query.low, query.high])
    pieces = [
        size for size in ReferenceAdaptivePageModel(1.0, 2.0)._piece_sizes(segment, points)
        if size >= 1.0
    ]
    m_min = draw(st.floats(1.0, 64 * KB) | st.sampled_from(pieces or [1.0]))
    return segment, query, m_min, m_min * draw(st.floats(1.001, 64.0))


class TestDecisionOracle:
    """The inlined ``decide`` returns what the helper-based form returned."""

    @given(case=_decisions())
    @settings(max_examples=600, deadline=None)
    def test_decide_equals_the_reference(self, case):
        segment, query, m_min, m_max = case
        total = max(segment.size_bytes, 1.0)
        expected = ReferenceAdaptivePageModel(m_min, m_max).decide(
            query, segment, total_bytes=total
        )
        decision = AdaptivePageModel(m_min, m_max).decide(query, segment, total_bytes=total)
        assert (decision.action, decision.points) == (expected.action, expected.points)

    def test_every_rule_is_reached(self):
        """The property's ranges reach all three rules and both kinds of no-split."""
        reached = set()
        model, reference = AdaptivePageModel(3 * KB, 12 * KB), ReferenceAdaptivePageModel(
            3 * KB, 12 * KB
        )
        for count, (low, high) in [
            (100, (20, 60)), (4096, (400, 600)), (4096, (500, 505)), (1024, (500, 505)),
            (4096, (0, 1000)), (4096, (-5, 2000)),
        ]:
            segment = uniform_segment(0, 1000, count)
            decision = model.decide(ValueRange(low, high), segment, total_bytes=32 * KB)
            expected = reference.decide(ValueRange(low, high), segment, total_bytes=32 * KB)
            assert decision == expected
            reached.add(decision.action)
        assert reached == set(SplitAction)

    def test_no_split_is_one_shared_decision(self):
        model = AdaptivePageModel(3 * KB, 12 * KB)
        segment = uniform_segment(0, 1000, 100)
        first = model.decide(ValueRange(20, 60), segment, total_bytes=KB)
        second = model.decide(ValueRange(0, 1000), segment, total_bytes=KB)
        assert first is second is SplitDecision.no_split()


class TestModelFactory:
    def test_known_names(self):
        assert isinstance(model_from_name("gd"), GaussianDice)
        assert isinstance(model_from_name("APM"), AdaptivePageModel)

    def test_apm_receives_bounds(self):
        model = model_from_name("apm", m_min=1 * KB, m_max=2 * KB)
        assert model.m_min == 1 * KB
        assert model.m_max == 2 * KB

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            model_from_name("btree")
