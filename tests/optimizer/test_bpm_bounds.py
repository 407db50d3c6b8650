"""Unit tests for the BPM's SQL-to-half-open bound translation.

SQL's ``BETWEEN`` is inclusive on both sides and comparison predicates can be
open on either side, while the core adaptive columns use half-open ranges;
the BPM performs that translation (plus clamping to the column domain) when a
rewritten plan reaches it.  Getting these edges wrong silently loses boundary
tuples, so they get their own tests.
"""

import numpy as np
import pytest

from repro.core.models import AdaptivePageModel
from repro.core.segmentation import SegmentedColumn
from repro.storage.catalog import Catalog
from repro.util.half_open import half_open_in_domain
from repro.util.units import KB


@pytest.fixture
def column() -> SegmentedColumn:
    values = np.array([10.0, 20.0, 30.0, 40.0, 50.0] * 200)
    return SegmentedColumn(values, model=AdaptivePageModel(1 * KB, 4 * KB))


class TestHalfOpenBounds:
    def test_between_includes_both_bounds(self, column):
        low, high = half_open_in_domain(column.domain, 20.0, 40.0, True, True)
        result = column.select(low, high)
        assert sorted(set(result.values.tolist())) == [20.0, 30.0, 40.0]

    def test_exclusive_high(self, column):
        low, high = half_open_in_domain(column.domain, 20.0, 40.0, True, False)
        assert sorted(set(column.select(low, high).values.tolist())) == [20.0, 30.0]

    def test_exclusive_low(self, column):
        low, high = half_open_in_domain(column.domain, 20.0, 40.0, False, True)
        assert sorted(set(column.select(low, high).values.tolist())) == [30.0, 40.0]

    def test_infinite_bounds_clamp_to_domain(self, column):
        low, high = half_open_in_domain(column.domain, -np.inf, np.inf, True, False
        )
        assert column.select(low, high).count == 1000

    def test_upper_bound_beyond_domain_includes_maximum(self, column):
        low, high = half_open_in_domain(column.domain, 45.0, 1e9, True, True)
        assert sorted(set(column.select(low, high).values.tolist())) == [50.0]

    def test_degenerate_equality_range(self, column):
        low, high = half_open_in_domain(column.domain, 30.0, 30.0, True, True)
        assert set(column.select(low, high).values.tolist()) == {30.0}

    def test_empty_when_bounds_cross_after_clamping(self, column):
        low, high = half_open_in_domain(column.domain, 500.0, 600.0, True, True)
        assert column.select(low, high).count == 0

    @pytest.mark.parametrize("inclusive", [(True, True), (False, False)])
    def test_empty_when_entirely_below_the_domain(self, column, inclusive):
        low, high = half_open_in_domain(column.domain, -50.0, -10.0, *inclusive)
        assert low == high == column.domain.low  # empty, not reversed
        assert column.select(low, high).count == 0


class TestEngineBoundaryQueries:
    def test_between_boundary_values_via_sql(self):
        from repro.engine.database import Database

        values = np.array([1.0, 2.0, 2.0, 3.0, 4.0] * 100)
        database = Database()
        database.create_table("t", {"x": "float64"})
        database.bulk_load("t", {"x": values})
        expected = database.execute("SELECT x FROM t WHERE x BETWEEN 2 AND 3").row_count

        database.enable_adaptive("t", "x", strategy="segmentation", m_min=256, m_max=1024)
        for _ in range(3):
            adaptive = database.execute("SELECT x FROM t WHERE x BETWEEN 2 AND 3").row_count
            assert adaptive == expected == 300

    @pytest.mark.parametrize(
        "organisation", [None, "segmentation", "replication", "unsegmented"]
    )
    def test_range_below_the_domain_answers_empty_through_every_door(self, organisation):
        """``BETWEEN -50 AND -10`` on ``[0, 360)``: empty with the projected dtypes.

        An adaptive column used to raise ``ValueError`` here (the clamped
        range came out reversed) while a plain column answered empty.
        """
        from repro.engine.database import Database

        rng = np.random.default_rng(3)
        database = Database()
        database.create_table("p", {"objid": "int64", "ra": "float64"})
        database.bulk_load(
            "p", {"objid": np.arange(2_000), "ra": rng.uniform(0.0, 360.0, 2_000)}
        )
        if organisation is not None:
            database.enable_adaptive("p", "ra", strategy=organisation, m_min=1 * KB, m_max=4 * KB)
        prepared = database.prepare_statement("SELECT objid, ra FROM p WHERE ra BETWEEN ? AND ?")
        below, inside = (-50.0, -10.0), (10.0, 12.0)
        text = "SELECT objid, ra FROM p WHERE ra BETWEEN {} AND {}"
        results = [
            database.execute(text.format(*below)),
            database.execute_prepared(prepared, below),
            *database.execute_prepared_many(prepared, [below, inside, below])[::2],
            database.execute_wave([(prepared, inside), (prepared, below)])[1],
        ]
        assert len(results) == 5
        for result in results:
            assert result.row_count == 0
            assert result.column("objid").dtype == np.int64
            assert result.column("ra").dtype == np.float64
        if organisation is not None:
            database.adaptive_handle("p", "ra").adaptive.check_invariants()

    def test_comparison_boundaries_via_sql(self):
        from repro.engine.database import Database

        values = np.linspace(0.0, 9.0, 1000)
        database = Database()
        database.create_table("t", {"x": "float64"})
        database.bulk_load("t", {"x": values})
        database.enable_adaptive("t", "x", strategy="segmentation", m_min=256, m_max=1024)
        strictly_less = database.execute("SELECT x FROM t WHERE x < 9").row_count
        less_equal = database.execute("SELECT x FROM t WHERE x <= 9").row_count
        assert less_equal == strictly_less + 1
        greater_equal = database.execute("SELECT x FROM t WHERE x >= 0").row_count
        assert greater_equal == 1000
