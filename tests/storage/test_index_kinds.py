"""Regression: ``create_index`` must never downgrade a sorted index.

A sorted index serves equality lookups as well as ranges, so a later
``"hash"`` request over an existing sorted index must return the sorted
index unchanged — replacing it would silently drop range-query support
for whichever caller built it first.
"""

import pytest

from repro.storage import Column, Table, TableSchema
from repro.storage import column_types as ct


@pytest.fixture()
def table():
    t = Table(TableSchema("recordings", [
        Column("id", ct.INTEGER),
        Column("year", ct.INTEGER),
    ], primary_key="id"))
    t.apply_prepared(t.prepare_rows(
        {"id": i, "year": 1990 + i} for i in range(10)))
    return t


class TestKindPreservation:
    def test_hash_request_keeps_existing_sorted_index(self, table):
        sorted_index = table.create_index("year", "sorted")
        again = table.create_index("year", "hash")
        assert again is sorted_index
        assert table.index_on("year").kind == "sorted"

    def test_hash_to_sorted_upgrade_replaces(self, table):
        hash_index = table.create_index("year", "hash")
        upgraded = table.create_index("year", "sorted")
        assert upgraded is not hash_index
        assert table.index_on("year").kind == "sorted"

    def test_same_kind_is_idempotent(self, table):
        first = table.create_index("year", "hash")
        assert table.create_index("year", "hash") is first
        sorted_first = table.create_index("year", "sorted")
        assert table.create_index("year", "sorted") is sorted_first

    def test_kept_sorted_index_still_serves_ranges(self, table):
        table.create_index("year", "sorted")
        table.create_index("year", "hash")  # no-op by design
        index = table.index_on("year")
        hits = index.range(1992, 1994)
        assert {table.row_by_id(rowid)["year"] for rowid in hits} == {
            1992, 1993, 1994,
        }

    def test_rebuilt_index_covers_existing_rows(self, table):
        table.create_index("year", "hash")
        upgraded = table.create_index("year", "sorted")
        assert sorted(
            table.row_by_id(rowid)["year"]
            for rowid in upgraded.lookup(1995)
        ) == [1995]
