"""Journal durability: replay, snapshots, corruption handling."""

import datetime as dt

import pytest

from repro.errors import JournalError
from repro.storage import Column, Database, Journal, TableSchema, col
from repro.storage import column_types as ct


def make_db(path):
    db = Database("d", journal_path=path)
    db.create_table(TableSchema("t", [
        Column("id", ct.INTEGER),
        Column("name", ct.TEXT),
        Column("when", ct.DATE),
    ], primary_key="id"))
    return db


class TestReplay:
    def test_insert_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a",
                        "when": dt.date(1975, 1, 2)})
        recovered = Database.recover("d", path)
        assert recovered.get("t", 1)["when"] == dt.date(1975, 1, 2)

    def test_update_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.update("t", db.rowid_for("t", 1), {"name": "b"})
        recovered = Database.recover("d", path)
        assert recovered.get("t", 1)["name"] == "b"

    def test_delete_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.delete("t", db.rowid_for("t", 1))
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 0

    def test_drop_table_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.drop_table("t")
        recovered = Database.recover("d", path)
        assert not recovered.has_table("t")

    def test_index_replayed(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.create_index("t", "name", "sorted")
        recovered = Database.recover("d", path)
        assert recovered.table("t").index_on("name") is not None

    def test_rowids_stable_across_recovery(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.insert("t", {"id": 2, "name": "b"})
        db.delete("t", db.rowid_for("t", 1))
        recovered = Database.recover("d", path)
        # a fresh insert must not collide with an existing rowid
        recovered.insert("t", {"id": 3, "name": "c"})
        assert recovered.count("t") == 2


class TestSnapshot:
    def test_checkpoint_then_recover(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        db.checkpoint()
        db.insert("t", {"id": 2, "name": "b"})
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 2

    def test_checkpoint_truncates_journal(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        for i in range(5):
            db.insert("t", {"id": i, "name": str(i)})
        db.checkpoint()
        assert path.read_text() == ""

    def test_checkpoint_in_memory_is_noop(self):
        db = Database("mem")
        assert db.checkpoint() is None


class TestCorruption:
    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        with path.open("a") as handle:
            handle.write('{"op": "insert", "table": "t"')  # torn write
        recovered = Database.recover("d", path)
        assert recovered.count("t") == 1

    def test_commits_after_recovering_a_cut_tail_survive(self, tmp_path):
        """Cut the last entry at every byte offset, recover, commit
        twice, recover again: every surviving and new commit is there."""
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        before_last = path.stat().st_size
        db.insert("t", {"id": 2, "name": "b"})
        intact = path.read_bytes()
        for cut in range(before_last, len(intact)):
            path.write_bytes(intact[:cut])
            recovered = Database.recover("d", path)
            kept = {1, 2} if cut == len(intact) - 1 else {1}
            assert {row["id"] for row in recovered.table("t").rows()} \
                == kept, cut
            recovered.insert("t", {"id": 3, "name": "c"})
            recovered.insert("t", {"id": 4, "name": "d"})
            again = Database.recover("d", path)
            assert {row["id"] for row in again.table("t").rows()} \
                == kept | {3, 4}, cut
            assert path.read_bytes().endswith(b"\n")

    def test_corruption_in_middle_raises(self, tmp_path):
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 1, "name": "a"})
        lines = path.read_text().splitlines()
        lines.insert(1, "NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        db2 = Database("d")
        with pytest.raises(JournalError):
            Journal(path).replay(db2)

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "j.log"
        journal = Journal(path)
        journal.append({"op": "explode"})
        with pytest.raises(JournalError, match="unknown journal op"):
            journal.replay(Database("d"))

    def test_missing_journal_is_empty(self, tmp_path):
        journal = Journal(tmp_path / "never-written.log")
        assert list(journal.entries()) == []


class TestDurabilityAcrossWorkload:
    def test_mixed_workload_equivalence(self, tmp_path):
        """After any sequence of committed ops, recover() must produce a
        database whose visible rows equal the original's."""
        path = tmp_path / "j.log"
        db = make_db(path)
        for i in range(30):
            db.insert("t", {"id": i, "name": f"name{i}"})
        db.update_where("t", col("id") < 10, {"name": "early"})
        db.delete_where("t", col("id") >= 25)
        recovered = Database.recover("d", path)
        original_rows = sorted(db.table("t").rows(), key=lambda r: r["id"])
        recovered_rows = sorted(recovered.table("t").rows(),
                                key=lambda r: r["id"])
        assert original_rows == recovered_rows


def ids(database):
    return {row["id"] for row in database.table("t").rows()}


class TestCommitAtomicity:
    def test_torn_transaction_recovers_all_or_none(self, tmp_path):
        """Cut a five-insert commit at every byte offset: recovery keeps
        all of its rows or none, and a commit made after recovery
        survives the next recovery."""
        path = tmp_path / "j.log"
        db = make_db(path)
        db.insert("t", {"id": 0, "name": "before"})
        before = path.stat().st_size
        with db.transaction():
            for i in range(1, 6):
                db.insert("t", {"id": i, "name": str(i)})
        intact = path.read_bytes()
        committed = {1, 2, 3, 4, 5}
        for cut in range(before, len(intact) + 1):
            path.write_bytes(intact[:cut])
            recovered = Database.recover("d", path)
            kept = ids(recovered) - {0}
            assert kept in (set(), committed), cut
            assert (kept == committed) == (cut >= len(intact) - 1), cut
            recovered.insert("t", {"id": 6, "name": "after"})
            again = Database.recover("d", path)
            assert ids(again) == {0, 6} | kept, cut

    def test_single_entry_lines_replay_as_before(self, tmp_path):
        """A journal written one entry per line, without commit records
        or sequence numbers, still replays."""
        path = tmp_path / "j.log"
        path.write_text(
            '{"op": "create_table", "schema": {"name": "t", "columns": '
            '[{"name": "id", "type": "INTEGER", "nullable": true}], '
            '"primary_key": "id"}}\n'
            '{"op": "insert", "table": "t", "rowid": 1, "row": {"id": 1}}\n'
            '{"op": "insert", "table": "t", "rowid": 2, "row": {"id": 2}}\n')
        recovered = Database.recover("d", path)
        assert ids(recovered) == {1, 2}
        recovered.insert("t", {"id": 3})
        assert ids(Database.recover("d", path)) == {1, 2, 3}


class TestCheckpointCrash:
    def workload(self, path):
        db = make_db(path)
        for i in range(3):
            db.insert("t", {"id": i, "name": str(i)})
        db.checkpoint()
        for i in range(3, 6):
            db.insert("t", {"id": i, "name": str(i)})
        with db.transaction():
            db.insert("t", {"id": 6, "name": "six"})
            db.update("t", db.rowid_for("t", 0), {"name": "zero"})
        db.delete("t", db.rowid_for("t", 4))
        return db

    @pytest.mark.parametrize("crash", [
        "before_replace", "between_replace_and_truncation",
        "after_truncation",
    ])
    def test_crash_during_checkpoint_recovers_the_committed_state(
            self, tmp_path, crash):
        path = tmp_path / "j.log"
        db = self.workload(path)
        snapshot = db.journal.snapshot_path()
        old_journal = path.read_bytes()
        old_snapshot = snapshot.read_bytes()
        expected = db.dump_state()
        db.checkpoint()
        if crash == "before_replace":
            snapshot.write_bytes(old_snapshot)
        if crash != "after_truncation":
            path.write_bytes(old_journal)

        recovered = Database.recover("d", path)
        assert recovered.dump_state() == expected
        recovered.insert("t", {"id": 7, "name": "seven"})
        with recovered.transaction():
            recovered.insert("t", {"id": 8, "name": "eight"})
            recovered.insert("t", {"id": 9, "name": "nine"})
        later = recovered.dump_state()
        assert Database.recover("d", path).dump_state() == later
        recovered.checkpoint()
        recovered.insert("t", {"id": 10, "name": "ten"})
        assert ids(Database.recover("d", path)) == {
            0, 1, 2, 3, 5, 6, 7, 8, 9, 10}
