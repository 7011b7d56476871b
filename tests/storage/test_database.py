"""Database-level behaviour: DDL, CRUD helpers, foreign keys."""

import pytest

from repro.errors import (
    ConstraintViolation,
    DuplicateTableError,
    RowNotFoundError,
    UnknownTableError,
)
from repro.storage import Column, Database, ForeignKey, TableSchema, col
from repro.storage import column_types as ct


@pytest.fixture()
def db():
    database = Database("d")
    database.create_table(TableSchema("parent", [
        Column("id", ct.INTEGER),
        Column("name", ct.TEXT),
    ], primary_key="id"))
    database.create_table(TableSchema("child", [
        Column("id", ct.INTEGER),
        Column("parent_id", ct.INTEGER),
    ], primary_key="id",
        foreign_keys=[ForeignKey("parent_id", "parent", "id")]))
    return database


class TestDDL:
    def test_table_names_sorted(self, db):
        assert db.table_names() == ["child", "parent"]

    def test_duplicate_table(self, db):
        with pytest.raises(DuplicateTableError):
            db.create_table(TableSchema("parent", [Column("x", ct.TEXT)]))

    def test_fk_to_missing_table_rejected(self, db):
        with pytest.raises(UnknownTableError):
            db.create_table(TableSchema("orphan", [
                Column("id", ct.INTEGER),
                Column("ref", ct.INTEGER),
            ], foreign_keys=[ForeignKey("ref", "nothing", "id")]))

    def test_self_referencing_fk_allowed(self):
        db = Database("d")
        db.create_table(TableSchema("node", [
            Column("id", ct.INTEGER),
            Column("parent", ct.INTEGER),
        ], primary_key="id",
            foreign_keys=[ForeignKey("parent", "node", "id")]))
        db.insert("node", {"id": 1, "parent": None})
        db.insert("node", {"id": 2, "parent": 1})

    def test_drop_table(self, db):
        db.drop_table("child")
        assert not db.has_table("child")
        with pytest.raises(UnknownTableError):
            db.table("child")


class TestCRUDHelpers:
    def test_get_by_primary_key(self, db):
        db.insert("parent", {"id": 7, "name": "x"})
        assert db.get("parent", 7)["name"] == "x"

    def test_get_missing_raises(self, db):
        with pytest.raises(RowNotFoundError):
            db.get("parent", 999)

    def test_insert_many(self, db):
        ids = db.insert_many("parent", [
            {"id": 1, "name": "a"}, {"id": 2, "name": "b"},
        ])
        assert len(ids) == 2
        assert db.count("parent") == 2

    def test_update_where(self, db):
        db.insert_many("parent", [
            {"id": i, "name": "old"} for i in range(5)
        ])
        updated = db.update_where("parent", col("id") >= 3, {"name": "new"})
        assert updated == 2
        assert db.query("parent").where(col("name") == "new").count() == 2

    def test_delete_where(self, db):
        db.insert_many("parent", [{"id": i, "name": "x"} for i in range(5)])
        deleted = db.delete_where("parent", col("id") < 2)
        assert deleted == 2
        assert db.count("parent") == 3

    def test_rowids_for(self, db):
        ids = db.insert_many("parent", [{"id": i, "name": "x"}
                                        for i in range(3)])
        assert db.rowids_for("parent", [2, 0, 9]) == {2: ids[2], 0: ids[0]}
        assert db.rowids_for("parent", []) == {}


class TestInMemoryJournalFree:
    def test_in_memory_writes_never_encode_rows(self, db, monkeypatch):
        """Without a journal there is nothing to encode a row for."""
        import repro.storage.database as database_module

        def forbidden(*args, **kwargs):
            raise AssertionError("encode_row called without a journal")

        monkeypatch.setattr(database_module, "encode_row", forbidden)
        rowid = db.insert("parent", {"id": 1, "name": "a"})
        db.bulk_load("parent", [{"id": 2, "name": "b"},
                                {"id": 3, "name": "c"}])
        db.update("parent", rowid, {"name": "z"})
        db.delete("parent", rowid)
        with db.transaction():
            db.insert("parent", {"id": 4, "name": "d"})
            db.bulk_load("parent", [{"id": 5, "name": "e"}])
        db.update_where("parent", col("id") > 3, {"name": "w"})
        db.delete_where("parent", col("id") == 2)
        assert db.query("parent").order_by("id").values("name") == [
            "c", "w", "w"]


class TestForeignKeys:
    def test_valid_reference(self, db):
        db.insert("parent", {"id": 1, "name": "a"})
        db.insert("child", {"id": 1, "parent_id": 1})

    def test_dangling_reference_rejected(self, db):
        with pytest.raises(ConstraintViolation, match="FOREIGN KEY"):
            db.insert("child", {"id": 1, "parent_id": 42})

    def test_rejected_insert_leaves_no_row(self, db):
        with pytest.raises(ConstraintViolation):
            db.insert("child", {"id": 1, "parent_id": 42})
        assert db.count("child") == 0
        # the id must be reusable
        db.insert("parent", {"id": 42, "name": "late"})
        db.insert("child", {"id": 1, "parent_id": 42})

    def test_null_reference_allowed(self, db):
        db.insert("child", {"id": 1, "parent_id": None})

    def test_update_to_dangling_rejected_and_restored(self, db):
        db.insert("parent", {"id": 1, "name": "a"})
        db.insert("child", {"id": 1, "parent_id": 1})
        rowid = db.rowid_for("child", 1)
        with pytest.raises(ConstraintViolation):
            db.update("child", rowid, {"parent_id": 99})
        assert db.get("child", 1)["parent_id"] == 1
