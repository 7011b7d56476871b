"""Model-based testing of the storage engine.

A hypothesis state machine drives the :class:`Database` through random
sequences of inserts, updates, deletes, batch and predicate statements,
index creations, transactions (committed and rolled back), statements
whose journal append fails, and full journal recoveries, checking after
every step that the engine's visible state equals a trivial dict-based
reference model.

``REPRO_STATEFUL_BUDGET`` sets the search budget as
``<examples>x<steps>`` (default ``25x30``; CI's smoke job runs a deeper
one).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import ConstraintViolation, RowNotFoundError
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct


class StorageMachine(RuleBasedStateMachine):
    """Database vs. a dict model: {pk: (name, score)}."""

    def __init__(self) -> None:
        super().__init__()
        self.tmpdir = None

    @initialize(use_journal=st.booleans())
    def setup(self, use_journal):
        import tempfile

        self.journal_path = None
        if use_journal:
            self.tmpdir = tempfile.TemporaryDirectory()
            self.journal_path = f"{self.tmpdir.name}/state.journal"
        self.db = Database("state", journal_path=self.journal_path)
        self.db.create_table(TableSchema("t", [
            Column("pk", ct.INTEGER),
            Column("name", ct.TEXT),
            Column("score", ct.REAL),
        ], primary_key="pk"))
        self.model: dict[int, tuple[str | None, float | None]] = {}

    def teardown(self):
        if self.tmpdir is not None:
            self.tmpdir.cleanup()

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    @rule(pk=st.integers(0, 30), name=st.one_of(st.none(), st.text(max_size=8)),
          score=st.one_of(st.none(), st.floats(0, 1)))
    def insert(self, pk, name, score):
        if pk in self.model:
            with pytest.raises(ConstraintViolation):
                self.db.insert("t", {"pk": pk, "name": name,
                                     "score": score})
        else:
            self.db.insert("t", {"pk": pk, "name": name, "score": score})
            self.model[pk] = (name, score)

    @rule(pk=st.integers(0, 30), name=st.text(max_size=8))
    def update(self, pk, name):
        if pk in self.model:
            rowid = self.db.rowid_for("t", pk)
            self.db.update("t", rowid, {"name": name})
            self.model[pk] = (name, self.model[pk][1])

    @rule(pk=st.integers(0, 30))
    def delete(self, pk):
        if pk in self.model:
            self.db.delete("t", self.db.rowid_for("t", pk))
            del self.model[pk]

    @rule(rows=st.lists(st.tuples(st.integers(0, 30), st.text(max_size=8)),
                        max_size=4))
    def bulk_load(self, rows):
        pks = [pk for pk, __ in rows]
        batch = [{"pk": pk, "name": name, "score": None} for pk, name in rows]
        if len(set(pks)) < len(pks) or self.model.keys() & set(pks):
            # one bad row rejects the whole batch
            with pytest.raises(ConstraintViolation):
                self.db.bulk_load("t", batch)
        else:
            self.db.bulk_load("t", batch)
            self.model.update((pk, (name, None)) for pk, name in rows)

    @rule(low=st.integers(0, 30), high=st.integers(0, 30),
          name=st.text(max_size=8))
    def update_where(self, low, high, name):
        matched = self._between(low, high)
        assert self.db.update_where("t", col("pk").between(low, high),
                                    {"name": name}) == len(matched)
        for pk in matched:
            self.model[pk] = (name, self.model[pk][1])

    @rule(low=st.integers(0, 30), high=st.integers(0, 30),
          new_pk=st.integers(0, 30))
    def update_where_primary_key(self, low, high, new_pk):
        matched = self._between(low, high)
        taken = self.model.keys() - set(matched)
        predicate = col("pk").between(low, high)
        if len(matched) > 1 or (matched and new_pk in taken):
            # every match cannot take one unique value: nothing moves
            with pytest.raises(ConstraintViolation):
                self.db.update_where("t", predicate, {"pk": new_pk})
            return
        assert self.db.update_where("t", predicate,
                                    {"pk": new_pk}) == len(matched)
        for pk in matched:
            self.model[new_pk] = self.model.pop(pk)

    @rule(low=st.integers(0, 30), high=st.integers(0, 30))
    def delete_where(self, low, high):
        matched = self._between(low, high)
        assert self.db.delete_where(
            "t", col("pk").between(low, high)) == len(matched)
        for pk in matched:
            del self.model[pk]

    @rule(statement=st.sampled_from(
              ["insert", "bulk_load", "update", "delete", "update_where",
               "delete_where"]),
          pk=st.integers(0, 30))
    def failing_append(self, statement, pk):
        """The journal's next append raises: the statement must change
        nothing, leave no transaction open, and later recovery must
        still rebuild the model."""
        if self.journal_path is None:
            return
        journal = self.db.journal

        def boom(*args):
            del journal.append, journal.append_many
            raise OSError("disk full")

        journal.append = journal.append_many = boom
        row = {"pk": pk, "name": "lost", "score": None}
        everything = col("pk") >= 0
        run = {
            "insert": lambda: self.db.insert("t", row),
            "bulk_load": lambda: self.db.bulk_load("t", [row]),
            "update": lambda: self.db.update(
                "t", self.db.rowid_for("t", pk), {"name": "lost"}),
            "delete": lambda: self.db.delete(
                "t", self.db.rowid_for("t", pk)),
            "update_where": lambda: self.db.update_where(
                "t", everything, {"name": "lost"}),
            "delete_where": lambda: self.db.delete_where("t", everything),
        }[statement]
        try:
            run()
        except (OSError, ConstraintViolation, RowNotFoundError):
            pass
        finally:
            if "append" in vars(journal):  # the statement never appended
                del journal.append, journal.append_many
        assert self.db.active_transactions() == 0
        assert self._visible(self.db) == self.model
        recovered = Database.recover("state", self.journal_path)
        assert self._visible(recovered) == self.model

    def _between(self, low, high):
        return sorted(pk for pk in self.model if low <= pk <= high)

    @rule(kind=st.sampled_from(["hash", "sorted"]),
          column=st.sampled_from(["name", "score"]))
    def create_index(self, kind, column):
        self.db.table("t").create_index(column, kind)

    @rule(pk=st.integers(0, 30), name=st.text(max_size=8),
          commit=st.booleans())
    def transaction_insert(self, pk, name, commit):
        if pk in self.model:
            return
        tx = self.db.transaction()
        self.db.insert("t", {"pk": pk, "name": name, "score": None})
        if commit:
            tx.commit()
            self.model[pk] = (name, None)
        else:
            tx.rollback()

    @rule()
    def recover_from_journal(self):
        if self.journal_path is None:
            return
        recovered = Database.recover("state", self.journal_path)
        assert self._visible(recovered) == self.model

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    @staticmethod
    def _visible(db: Database) -> dict[int, tuple]:
        return {
            row["pk"]: (row["name"], row["score"])
            for row in db.table("t").rows()
        }

    @invariant()
    def engine_matches_model(self):
        assert self._visible(self.db) == self.model

    @invariant()
    def count_matches(self):
        assert self.db.count("t") == len(self.model)

    @invariant()
    def queries_match_filters(self):
        threshold = 0.5
        expected = {
            pk for pk, (__, score) in self.model.items()
            if score is not None and score >= threshold
        }
        got = {
            row["pk"]
            for row in self.db.query("t").where(
                col("score") >= threshold).all()
        }
        assert got == expected


EXAMPLES, STEPS = (int(part) for part in os.environ.get(
    "REPRO_STATEFUL_BUDGET", "25x30").split("x"))

TestStorageStateMachine = StorageMachine.TestCase
TestStorageStateMachine.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=STEPS, deadline=None)
