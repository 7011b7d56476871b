"""Concurrent transactions with undo logs and conflict detection.

The engine supports one open transaction *per thread* and any number of
threads: every session gets its own undo log and write-ahead journal
buffer, rows touched by an uncommitted transaction are claimed under
first-writer-wins conflict rules (see
:meth:`repro.storage.database.Database._claim_rows`), and commits are
serialized through the database's write lock so the journal records one
consistent history.  Databases expose the ergonomic form::

    with db.transaction():
        db.insert("species_updates", {...})
        db.update("recordings", rid, {...})
    # committed; an exception inside the block rolls everything back

Transaction states: ``open`` -> ``committed`` | ``rolled_back`` |
``failed``.  ``failed`` means the transaction was abandoned: either a
rollback blew up mid-replay (a ``restore_*`` call raised) or the owning
thread exited with the transaction still open (detected through a weak
reference to the thread and reaped by the database, since OS thread
idents are recycled).  Either way its row claims are released and every
further use raises :class:`TransactionError` — the database refuses to
reuse it.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Any

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database

__all__ = ["Transaction", "UndoRecord"]


class UndoRecord:
    """One reversible mutation: table, op and before/after images."""

    __slots__ = ("table", "op", "rowid", "before", "after")

    def __init__(self, table: str, op: str, rowid: int,
                 before: dict[str, Any] | None,
                 after: dict[str, Any] | None) -> None:
        self.table = table
        self.op = op
        self.rowid = rowid
        self.before = before
        self.after = after

    def __repr__(self) -> str:
        return f"UndoRecord({self.op} {self.table}#{self.rowid})"


class Transaction:
    """An open transaction; create via ``Database.transaction()``."""

    def __init__(self, database: "Database", tid: int,
                 start_seq: int) -> None:
        self._database = database
        self.tid = tid
        #: database commit sequence when this transaction began; writes
        #: to rows committed after this point conflict (first committer
        #: wins)
        self.start_seq = start_seq
        #: thread that opened the transaction — terminal operations must
        #: come from the same thread
        self.thread_ident = threading.get_ident()
        # weakly referenced so a finished worker thread can be detected
        # (and the Thread object collected) — OS idents are recycled, so
        # the ident alone cannot tell a dead owner from a new thread
        self._thread = weakref.ref(threading.current_thread())
        self._undo: list[UndoRecord] = []
        self._state = "open"
        #: journal entries buffered until commit (rolled-back work must
        #: never hit disk)
        self.journal_buffer: list[dict[str, Any]] = []
        #: ``(table, rowid)`` pairs this transaction holds write claims on
        self.claims: set[tuple[str, int]] = set()

    # -- recording ------------------------------------------------------

    def record(self, table: str, op: str, rowid: int,
               before: dict[str, Any] | None,
               after: dict[str, Any] | None) -> None:
        if self._state != "open":
            raise TransactionError(f"transaction is {self._state}")
        self._undo.append(UndoRecord(table, op, rowid, before, after))

    @property
    def state(self) -> str:
        return self._state

    def thread_alive(self) -> bool:
        """Whether the thread that opened this transaction still runs.

        A dead owner means the transaction is abandoned: it can never
        commit, and the database reaps it (rolls the undo log back,
        marks it ``failed``, releases its claims) on the next access.
        """
        thread = self._thread()
        return thread is not None and thread.is_alive()

    def mark_abandoned(self) -> None:
        """Called by the database when the owning thread died with the
        transaction open; every further use raises."""
        self._state = "failed"

    @property
    def pending_operations(self) -> int:
        return len(self._undo)

    def final_images(self) -> dict[tuple[str, int],
                                   tuple[dict[str, Any] | None,
                                         dict[str, Any] | None]]:
        """Per touched row: (first before-image, last after-image).

        This is what the commit publishes to the MVCC version history —
        intermediate images within the transaction were never visible to
        anyone else and need no version entries.
        """
        images: dict[tuple[str, int],
                     tuple[dict[str, Any] | None,
                           dict[str, Any] | None]] = {}
        for record in self._undo:
            key = (record.table, record.rowid)
            if key in images:
                images[key] = (images[key][0], record.after)
            else:
                images[key] = (record.before, record.after)
        return images

    def undo_records(self) -> list[UndoRecord]:
        return list(self._undo)

    # -- terminal operations ---------------------------------------------

    def commit(self) -> None:
        """Journal and publish every write.  If the journal append
        raises, the transaction stays open, its claims held and nothing
        published, so the caller may retry or roll back."""
        if self._state != "open":
            raise TransactionError(f"cannot commit a {self._state} transaction")
        self._database._commit_transaction(self)
        self._state = "committed"

    def rollback(self) -> None:
        if self._state != "open":
            raise TransactionError(
                f"cannot roll back a {self._state} transaction"
            )
        try:
            self._database._rollback_transaction(self)
        except Exception as exc:  # noqa: BLE001 - any mid-replay fault must abandon, see below
            # A restore_* call raised mid-replay: the database may hold a
            # half-undone state for the rows this transaction touched.
            # Mark the transaction failed (every further use raises) and
            # release its claims so other sessions are not wedged.
            self._state = "failed"
            self._database._abandon_transaction(self)
            self._database._storage_counter(
                "storage_rollback_failures_total").inc()
            raise TransactionError(
                "rollback failed mid-replay; transaction abandoned in "
                f"state 'failed': {exc}"
            ) from exc
        self._state = "rolled_back"

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Commit a block that finished, roll back one that raised.  A
        commit that fails (say, its journal append) rolls back too, then
        re-raises: a ``with`` block never leaves its transaction open."""
        if self._state != "open":
            return False
        if exc_type is not None:
            self.rollback()
            return False
        try:
            self.commit()
        except BaseException:  # noqa: BLE001 - roll back on any failed commit
            if self._state == "open":
                self.rollback()
            raise
        return False

    def __repr__(self) -> str:
        return (f"Transaction(tid={self.tid}, state={self._state}, "
                f"{len(self._undo)} undo records)")
