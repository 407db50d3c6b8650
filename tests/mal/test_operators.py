"""Unit tests for the relational operators over BATs."""

import numpy as np
import pytest

from repro.mal import operators
from repro.storage.bat import BAT
from repro.storage.column import StoredColumn


@pytest.fixture
def ra_bat() -> BAT:
    return BAT(np.array([10.0, 25.0, 5.0, 40.0, 25.0]), name="ra")


class TestSelections:
    def test_select_half_open_default(self, ra_bat):
        result = operators.select(ra_bat, 10, 25)
        assert result.head.tolist() == [0]
        assert result.tail.tolist() == [10.0]

    def test_select_inclusive_bounds(self, ra_bat):
        result = operators.select(ra_bat, 10, 25, include_high=True)
        assert result.head.tolist() == [0, 1, 4]

    def test_select_exclusive_low(self, ra_bat):
        result = operators.select(ra_bat, 10, 40, include_low=False)
        assert result.head.tolist() == [1, 4]

    def test_select_respects_hseqbase(self):
        bat = BAT(np.array([1.0, 2.0, 3.0]), hseqbase=100)
        result = operators.select(bat, 2, 4, include_high=True)
        assert result.head.tolist() == [101, 102]

    def test_uselect_candidate_list(self, ra_bat):
        result = operators.uselect(ra_bat, 20, 30)
        assert result.head.tolist() == result.tail.tolist() == [1, 4]

    def test_thetaselect(self, ra_bat):
        assert operators.thetaselect(ra_bat, 25.0, ">").head.tolist() == [3]
        assert operators.thetaselect(ra_bat, 25.0, "==").head.tolist() == [1, 4]
        with pytest.raises(ValueError):
            operators.thetaselect(ra_bat, 25.0, "~")


class TestSetOperations:
    def test_kunion_prefers_left_pairs(self):
        left = BAT.from_pairs(np.array([0, 1]), np.array([10, 11]))
        right = BAT.from_pairs(np.array([1, 2]), np.array([99, 12]))
        merged = operators.kunion(left, right)
        assert dict(zip(merged.head.tolist(), merged.tail.tolist())) == {0: 10, 1: 11, 2: 12}

    def test_kunion_with_empty_passes_through(self):
        left = BAT.from_pairs(np.array([0]), np.array([1]))
        empty = BAT.empty(np.int64)
        assert operators.kunion(left, empty) is left
        assert operators.kunion(empty, left) is left

    def test_kdifference(self):
        left = BAT.from_pairs(np.array([0, 1, 2]), np.array([10, 11, 12]))
        right = BAT.from_pairs(np.array([1]), np.array([0]))
        result = operators.kdifference(left, right)
        assert result.head.tolist() == [0, 2]

    def test_kdifference_with_empty_right_is_identity(self):
        left = BAT.from_pairs(np.array([0, 1]), np.array([10, 11]))
        assert operators.kdifference(left, BAT.empty(np.int64)) is left

    def test_kintersect(self):
        left = BAT.from_pairs(np.array([0, 1, 2]), np.array([10, 11, 12]))
        right = BAT.from_pairs(np.array([2, 0]), np.array([0, 0]))
        result = operators.kintersect(left, right)
        assert result.head.tolist() == [0, 2]

    def test_kintersect_with_empty_is_empty(self):
        left = BAT.from_pairs(np.array([0, 1]), np.array([10, 11]))
        assert operators.kintersect(left, BAT.empty(np.int64)).count == 0


class TestTupleReconstruction:
    def test_mark_tail_assigns_dense_numbers(self):
        candidates = BAT.from_pairs(np.array([7, 3, 9]), np.array([7, 3, 9]))
        marked = operators.mark_tail(candidates, 0)
        assert marked.head.tolist() == [7, 3, 9]
        assert marked.tail.tolist() == [0, 1, 2]

    def test_join_against_void_head(self):
        positions = BAT.from_pairs(np.array([0, 1]), np.array([3, 1]))  # tail = oids to fetch
        column = BAT(np.array([100, 101, 102, 103]), hseqbase=0)
        joined = operators.join(positions, column)
        assert joined.head.tolist() == [0, 1]
        assert joined.tail.tolist() == [103, 101]

    def test_join_against_explicit_head(self):
        positions = BAT.from_pairs(np.array([0, 1]), np.array([9, 5]))
        column = BAT.from_pairs(np.array([5, 9]), np.array([50.0, 90.0]))
        joined = operators.join(positions, column)
        assert joined.tail.tolist() == [90.0, 50.0]

    def test_join_drops_unmatched_keys(self):
        positions = BAT.from_pairs(np.array([0, 1]), np.array([2, 42]))
        column = BAT(np.array([10, 11, 12]))
        joined = operators.join(positions, column)
        assert joined.head.tolist() == [0]
        assert joined.tail.tolist() == [12]

    def test_full_reconstruction_pipeline(self):
        """markT + reverse + join reproduces the Figure-1 tuple reconstruction."""
        ra = BAT(np.array([205.11, 100.0, 205.115, 300.0]), name="ra")
        objid = BAT(np.array([1000, 1001, 1002, 1003]), name="objid")
        candidates = operators.uselect(ra, 205.1, 205.12)
        marked = operators.mark_tail(candidates, 0)
        positions = marked.reverse()
        result = operators.join(positions, objid)
        assert result.tail.tolist() == [1000, 1002]
        assert operators.projection(objid, candidates.head).tolist() == [1000, 1002]

    def test_projection_keeps_joins_guard_and_empty_dtype(self):
        """One gather, same contract: unknown oids dropped (never wrapped), dtype kept."""
        column = BAT(np.array([10.5, 11.5, 12.5], dtype=np.float32), hseqbase=100)
        assert operators.projection(column, np.array([102, 100])).tolist() == [12.5, 10.5]
        for oids in ([101, 99, 103, -1, 100], [2], []):
            oids = np.array(oids, dtype=np.int64)
            positions = BAT.from_pairs(np.arange(oids.size), oids)
            gathered = operators.projection(column, oids)
            assert gathered.tolist() == operators.join(positions, column).tail.tolist()
            assert gathered.dtype == np.float32

    def test_gather_is_projection_without_the_guard(self):
        """The unchecked entry (batch / snapshot paths): same values for oids the column holds."""
        for hseqbase in (0, 100):
            column = BAT(np.array([10.5, 11.5, 12.5], dtype=np.float32), hseqbase=hseqbase)
            for oids in ([2, 0, 1, 2], []):
                oids = np.array(oids, dtype=np.int64) + hseqbase
                gathered = operators.gather(column, oids)
                assert gathered.tolist() == operators.projection(column, oids).tolist()
                assert gathered.dtype == np.float32


class TestDenseDeltas:
    """The Figure-1 cascade beside pending inserts / deletes: O(result + delta)."""

    @staticmethod
    def column(loaded: int = 1_000, inserted: int = 24) -> StoredColumn:
        column = StoredColumn("p", "v", np.int64)
        column.bulk_load(np.arange(loaded) * 10)
        column.append(np.arange(inserted) * 7, start_oid=loaded)
        return column

    @staticmethod
    def forbid(monkeypatch, *names: str) -> None:
        def forbidden(*args, **kwargs):
            raise AssertionError("per-read work proportional to the column")

        for name in names:
            monkeypatch.setattr(np, name, forbidden)

    def test_kunion_of_the_bind_levels_is_the_prebuilt_dense_view(self, monkeypatch):
        column = self.column()
        self.forbid(monkeypatch, "isin", "concatenate", "arange")
        merged = operators.kunion(column.bind(0), column.bind(1))
        assert merged.is_void_head and merged.hseqbase == 0 and merged.count == 1_024
        assert np.shares_memory(merged.tail, column._buffer)
        assert operators.kunion(column.bind(0), column.bind(1)) is merged

    def test_join_against_the_dense_view_never_sorts(self, monkeypatch):
        column = self.column()
        positions = BAT.from_pairs(np.arange(3), np.array([1_001, 2, 1_023]))
        self.forbid(monkeypatch, "argsort", "isin", "arange")
        merged = operators.kunion(column.bind(0), column.bind(1))
        result = operators.join(positions, merged)
        assert result.tail.tolist() == [7, 20, 161]

    def test_a_stale_or_foreign_insert_bat_takes_the_generic_union(self):
        column = self.column(4, 2)
        stale = column.bind(1)
        column.append(np.array([99]), start_oid=6)
        merged = operators.kunion(column.bind(0), stale)  # not the BAT it continues
        assert not merged.is_void_head
        assert merged.head.tolist() == [0, 1, 2, 3, 4, 5]

    def test_kunion_of_disjoint_oid_ranges_concatenates(self, monkeypatch):
        persistent_hits = BAT.from_pairs(np.array([7, 3, 5]), np.array([7, 3, 5]))
        insert_hits = BAT.from_pairs(np.array([10, 11]), np.array([10, 11]))
        self.forbid(monkeypatch, "isin")
        union = operators.kunion(persistent_hits, insert_hits)
        assert union.head.tolist() == [7, 3, 5, 10, 11]

    def test_kunion_of_overlapping_ranges_still_deduplicates(self):
        left = BAT.from_pairs(np.array([7, 3, 12]), np.array([70, 30, 120]))
        right = BAT.from_pairs(np.array([12, 10]), np.array([0, 100]))
        union = operators.kunion(left, right)
        assert dict(zip(union.head.tolist(), union.tail.tolist())) == {
            7: 70, 3: 30, 12: 120, 10: 100,
        }

    @pytest.mark.parametrize("operator", ["kdifference", "kintersect"])
    def test_sorted_heads_are_probed_not_hashed(self, operator, monkeypatch):
        rng = np.random.default_rng(5)
        heads = rng.permutation(500)[:200]
        left = BAT.from_pairs(heads, heads * 2)
        members = np.unique(rng.integers(0, 600, size=80))
        unsorted = BAT.from_pairs(members[::-1].copy(), members[::-1].copy())
        expected = getattr(operators, operator)(left, unsorted)
        deleted = BAT.from_pairs(members, members, tail_sorted=True).reverse()
        self.forbid(monkeypatch, "isin")
        probed = getattr(operators, operator)(left, deleted)
        assert probed.head.tolist() == expected.head.tolist()
        assert probed.tail.tolist() == expected.tail.tolist()
        # A key past the last member must not probe out of bounds.
        beyond = BAT.from_pairs(np.array([700, int(members[0])]), np.array([1, 2]))
        kept = [int(members[0])] if operator == "kintersect" else [700]
        assert getattr(operators, operator)(beyond, deleted).head.tolist() == kept


class TestAggregates:
    def test_aggregates(self):
        bat = BAT(np.array([1.0, 2.0, 3.0]))
        assert operators.aggr_sum(bat) == 6.0
        assert operators.aggr_count(bat) == 3
        assert operators.aggr_avg(bat) == pytest.approx(2.0)
        assert operators.aggr_min(bat) == 1.0
        assert operators.aggr_max(bat) == 3.0

    def test_aggregates_on_empty_bat(self):
        empty = BAT.empty(np.float64)
        assert operators.aggr_sum(empty) == 0.0
        assert operators.aggr_count(empty) == 0
        assert operators.aggr_avg(empty) == 0.0
        with pytest.raises(ValueError):
            operators.aggr_min(empty)
        with pytest.raises(ValueError):
            operators.aggr_max(empty)
