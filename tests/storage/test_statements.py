"""Every row statement lands whole or not at all, journal included.

A statement is durable before it is visible: when the journal append
raises, the statement must be undone before the error reaches the
caller — no row left visible live or in a new snapshot, no transaction
left open — and the next statement must be journaled as usual.
"""

import threading

import pytest

from repro.errors import ConstraintViolation, TransactionConflictError
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct


@pytest.fixture()
def db(tmp_path):
    database = Database("stmt", journal_path=tmp_path / "stmt.journal")
    database.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("v", ct.TEXT),
        Column("n", ct.INTEGER),
    ], primary_key="id"))
    database.create_index("t", "n", "sorted")
    database.insert("t", {"id": 1, "v": "one", "n": 10})
    database.insert("t", {"id": 2, "v": "two", "n": 20})
    return database


def fail_next_append(database, monkeypatch):
    """Make the journal's next append raise, whichever method is used."""
    journal = database.journal

    def boom(*args):
        monkeypatch.undo()
        raise OSError("disk full")

    monkeypatch.setattr(journal, "append", boom)
    monkeypatch.setattr(journal, "append_many", boom)


def rows(view):
    return sorted((row["id"], row["v"], row["n"])
                  for row in view.query("t").all())


def snapshot_rows(database):
    with database.snapshot() as snap:
        return rows(snap)


STATEMENTS = {
    "insert": lambda db: db.insert("t", {"id": 3, "v": "three", "n": 30}),
    "insert_many": lambda db: db.insert_many("t", [
        {"id": 3, "v": "three", "n": 30}, {"id": 4, "v": "four", "n": 40}]),
    "bulk_load": lambda db: db.bulk_load("t", [
        {"id": 3, "v": "three", "n": 30}, {"id": 4, "v": "four", "n": 40}]),
    "update": lambda db: db.update("t", db.rowid_for("t", 1), {"v": "x"}),
    "delete": lambda db: db.delete("t", db.rowid_for("t", 1)),
    "update_where": lambda db: db.update_where("t", col("n") >= 0,
                                               {"v": "x"}),
    "delete_where": lambda db: db.delete_where("t", col("n") >= 0),
}


@pytest.mark.parametrize("statement", sorted(STATEMENTS))
class TestFailedJournalAppend:
    def test_statement_leaves_nothing_behind(self, db, monkeypatch,
                                             statement):
        live, snapped = rows(db), snapshot_rows(db)
        fail_next_append(db, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            STATEMENTS[statement](db)
        assert rows(db) == live
        assert snapshot_rows(db) == snapped
        assert db.active_transactions() == 0
        assert db.query("t").where(col("n") >= 30).count() == 0

    def test_later_statement_is_journaled(self, db, monkeypatch, tmp_path,
                                          statement):
        fail_next_append(db, monkeypatch)
        with pytest.raises(OSError):
            STATEMENTS[statement](db)
        STATEMENTS[statement](db)
        db.insert("t", {"id": 9, "v": "nine", "n": 90})
        assert db.checkpoint() is not None  # no transaction left open
        recovered = Database.recover("again", tmp_path / "stmt.journal")
        assert rows(recovered) == rows(db)


class TestTransactionBlock:
    def test_failed_commit_in_with_block_rolls_back(self, db, monkeypatch,
                                                    tmp_path):
        fail_next_append(db, monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            with db.transaction():
                db.insert("t", {"id": 3, "v": "three", "n": 30})
                db.insert("t", {"id": 4, "v": "four", "n": 40})
        assert db.active_transactions() == 0
        assert db.count("t") == 2
        db.insert("t", {"id": 5, "v": "five", "n": 50})
        recovered = Database.recover("again", tmp_path / "stmt.journal")
        assert rows(recovered) == rows(db)
        assert recovered.count("t") == 3

    def test_failed_statement_inside_transaction_keeps_earlier_ones(
            self, db):
        """Statements are atomic inside a transaction too: a failing one
        is undone alone and the caller decides about the rest."""
        with db.transaction():
            db.update("t", db.rowid_for("t", 1), {"v": "kept"})
            with pytest.raises(ConstraintViolation):
                db.update_where("t", col("n") >= 0, {"id": 7})
            assert rows(db) == [(1, "kept", 10), (2, "two", 20)]
        assert rows(db) == [(1, "kept", 10), (2, "two", 20)]

    def test_conflicting_statement_releases_its_claims(self, db):
        """A statement that conflicts on its second row inside a
        transaction neither keeps its write to the first row nor its
        claim on it."""
        holding, release = threading.Event(), threading.Event()

        def holder():
            with db.transaction():
                db.update("t", db.rowid_for("t", 2), {"v": "held"})
                holding.set()
                assert release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert holding.wait(timeout=10)
        outcome = {}
        try:
            tx = db.transaction()
            with pytest.raises(TransactionConflictError):
                db.update_where("t", col("n") >= 0, {"v": "swept"})
            assert db.get("t", 1)["v"] == "one"

            def writer():
                try:
                    db.update("t", db.rowid_for("t", 1), {"v": "free"})
                    outcome["ok"] = True
                except TransactionConflictError as exc:
                    outcome["error"] = exc

            other = threading.Thread(target=writer)
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
            tx.rollback()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome == {"ok": True}
        assert db.get("t", 1)["v"] == "free"


class TestBatchAtomicity:
    def test_insert_many_is_all_or_nothing(self, db):
        with pytest.raises(ConstraintViolation, match="UNIQUE"):
            db.insert_many("t", [{"id": 3, "v": "three", "n": 30},
                                 {"id": 1, "v": "dup", "n": 0}])
        assert db.count("t") == 2

    def test_insert_many_journals_one_line(self, db, tmp_path):
        path = tmp_path / "stmt.journal"
        before = len(path.read_text().splitlines())
        db.insert_many("t", [{"id": 3, "v": "three", "n": 30},
                             {"id": 4, "v": "four", "n": 40}])
        lines = path.read_text().splitlines()
        assert len(lines) == before + 1
        assert '"op": "bulk_insert"' in lines[-1]
