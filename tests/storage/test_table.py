"""Table mutation, constraints and index maintenance.

The table validates a statement whole (``prepare_rows`` /
``prepare_update``) and then writes it (``apply_prepared`` /
``restore_update`` / ``restore_delete``); the helpers below run one-row
statements through those primitives the way ``Database`` does.
"""

import datetime as dt

import pytest

from repro.errors import (
    ConstraintViolation,
    RowNotFoundError,
    UnknownColumnError,
)
from repro.storage import Column, Table, TableSchema
from repro.storage import column_types as ct


def insert(table, values):
    [rowid] = table.apply_prepared(table.prepare_rows([values]))
    return rowid


def update(table, rowid, changes):
    [after] = table.prepare_update([(rowid, table.row_by_id(rowid))],
                                   changes)
    table.restore_update(rowid, after)
    return after


def delete(table, rowid):
    row = table.row_by_id(rowid)
    table.restore_delete(rowid)
    return row


@pytest.fixture()
def table():
    return Table(TableSchema("species", [
        Column("id", ct.INTEGER),
        Column("name", ct.TEXT, nullable=False, unique=True),
        Column("year", ct.INTEGER, default=2000),
        Column("score", ct.REAL, check=lambda v: 0 <= v <= 1),
    ], primary_key="id"))


class TestInsert:
    def test_returns_rowids_in_order(self, table):
        assert insert(table, {"id": 1, "name": "a"}) == 1
        assert insert(table, {"id": 2, "name": "b"}) == 2

    def test_default_applied(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        assert table.row_by_id(rowid)["year"] == 2000

    def test_explicit_value_beats_default(self, table):
        rowid = insert(table, {"id": 1, "name": "a", "year": 1975})
        assert table.row_by_id(rowid)["year"] == 1975

    def test_not_null_enforced(self, table):
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            insert(table, {"id": 1, "name": None})

    def test_unique_enforced(self, table):
        insert(table, {"id": 1, "name": "a"})
        with pytest.raises(ConstraintViolation, match="UNIQUE"):
            insert(table, {"id": 2, "name": "a"})

    def test_primary_key_unique(self, table):
        insert(table, {"id": 1, "name": "a"})
        with pytest.raises(ConstraintViolation, match="UNIQUE"):
            insert(table, {"id": 1, "name": "b"})

    def test_check_enforced(self, table):
        with pytest.raises(ConstraintViolation, match="CHECK"):
            insert(table, {"id": 1, "name": "a", "score": 1.5})

    def test_check_allows_valid(self, table):
        insert(table, {"id": 1, "name": "a", "score": 0.5})

    def test_type_coercion_on_insert(self, table):
        rowid = insert(table, {"id": "3", "name": "a"})
        assert table.row_by_id(rowid)["id"] == 3

    def test_uncoercible_raises_type_violation(self, table):
        with pytest.raises(ConstraintViolation, match="TYPE"):
            insert(table, {"id": "xyz", "name": "a"})

    def test_unknown_column_rejected(self, table):
        with pytest.raises(UnknownColumnError):
            insert(table, {"id": 1, "name": "a", "bogus": 1})

    def test_rows_are_copies(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        row = table.row_by_id(rowid)
        row["name"] = "mutated"
        assert table.row_by_id(rowid)["name"] == "a"


class TestUpdate:
    def test_partial_update(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        after = update(table, rowid, {"year": 1990})
        assert after["year"] == 1990
        assert after["name"] == "a"

    def test_update_missing_row(self, table):
        with pytest.raises(RowNotFoundError):
            update(table, 99, {"year": 1})

    def test_update_cannot_violate_unique(self, table):
        insert(table, {"id": 1, "name": "a"})
        rowid = insert(table, {"id": 2, "name": "b"})
        with pytest.raises(ConstraintViolation, match="UNIQUE"):
            update(table, rowid, {"name": "a"})

    def test_update_to_same_value_allowed(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        update(table, rowid, {"name": "a"})

    def test_update_keeps_indexes_consistent(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        update(table, rowid, {"name": "z"})
        index = table.index_on("name")
        assert index.lookup("a") == set()
        assert index.lookup("z") == {rowid}

    def test_update_not_null(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        with pytest.raises(ConstraintViolation, match="NOT NULL"):
            update(table, rowid, {"name": None})


class TestDelete:
    def test_delete_returns_row(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        deleted = delete(table, rowid)
        assert deleted["name"] == "a"
        assert len(table) == 0

    def test_delete_missing(self, table):
        with pytest.raises(RowNotFoundError):
            delete(table, 5)

    def test_delete_clears_indexes(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        delete(table, rowid)
        assert table.index_on("name").lookup("a") == set()

    def test_unique_value_reusable_after_delete(self, table):
        rowid = insert(table, {"id": 1, "name": "a"})
        delete(table, rowid)
        insert(table, {"id": 2, "name": "a"})


class TestSecondaryIndexes:
    def test_create_index_backfills(self, table):
        insert(table, {"id": 1, "name": "a", "year": 1970})
        insert(table, {"id": 2, "name": "b", "year": 1980})
        index = table.create_index("year", "sorted")
        assert set(index.range(1975, None)) == {2}

    def test_create_index_idempotent(self, table):
        first = table.create_index("year", "hash")
        second = table.create_index("year", "hash")
        assert first is second

    def test_create_index_unknown_column(self, table):
        with pytest.raises(UnknownColumnError):
            table.create_index("bogus")

    def test_candidate_rowids_uses_index(self, table):
        for i in range(10):
            insert(table, {"id": i, "name": f"n{i}", "year": 1970 + i})
        candidates = table.candidate_rowids({"name": "n3"}, {})
        assert candidates is not None and len(candidates) == 1

    def test_candidate_rowids_none_without_index(self, table):
        insert(table, {"id": 1, "name": "a"})
        assert table.candidate_rowids({"year": 2000}, {}) is None


class TestRestoreOperations:
    def test_restore_insert_preserves_rowid(self, table):
        table.restore_insert(42, {"id": 1, "name": "a", "year": 2000,
                                  "score": None})
        assert table.row_by_id(42)["name"] == "a"
        # next natural insert gets a later id
        rowid = insert(table, {"id": 2, "name": "b"})
        assert rowid == 43

    def test_restore_insert_collision(self, table):
        table.restore_insert(1, {"id": 1, "name": "a"})
        with pytest.raises(ConstraintViolation):
            table.restore_insert(1, {"id": 2, "name": "b"})

    def test_restore_update_missing_row_inserts(self, table):
        table.restore_update(7, {"id": 1, "name": "a"})
        assert table.row_by_id(7)["name"] == "a"

    def test_restore_delete_missing_is_noop(self, table):
        table.restore_delete(7)


class TestStateRoundTrip:
    def test_dump_and_load(self, table):
        insert(table, {"id": 1, "name": "a", "year": 1970, "score": 0.5})
        insert(table, {"id": 2, "name": "b"})
        table.create_index("year", "sorted")
        restored = Table.load_state(table.dump_state())
        assert len(restored) == 2
        assert restored.row_by_id(1)["score"] == 0.5
        assert restored.index_on("year") is not None
        # constraints still live after restore
        with pytest.raises(ConstraintViolation):
            insert(restored, {"id": 3, "name": "a"})

    def test_dates_survive(self):
        table = Table(TableSchema("t", [
            Column("id", ct.INTEGER), Column("d", ct.DATE),
        ], primary_key="id"))
        insert(table, {"id": 1, "d": dt.date(1975, 6, 30)})
        restored = Table.load_state(table.dump_state())
        assert restored.row_by_id(1)["d"] == dt.date(1975, 6, 30)
