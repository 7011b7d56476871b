"""The database: named tables, transactions, journaling, queries.

This is the "DBMS" of the paper's architecture — the access layer shared
by the data repository, the workflow repository and the provenance
repository.  A :class:`Database` can be purely in-memory (default) or
durable when constructed with a journal path.

Concurrency model (multi-tenant storage)
----------------------------------------

* **Statements are serialized, transactions interleave.**  Every
  mutation takes the database write lock for its own duration, so any
  number of threads can run transactions concurrently; their statements
  interleave at row granularity.
* **First-writer-wins conflicts.**  A transaction's first write to a row
  *claims* it.  A second transaction (or an autocommit statement)
  touching a claimed row fails immediately with
  :class:`~repro.errors.TransactionConflictError`; so does a write to a
  row that was committed after the transaction began.  Conflicts are
  deterministic and eager — callers retry the whole transaction.
* **MVCC snapshot reads.**  :meth:`Database.snapshot` pins the current
  commit sequence and returns a read view whose queries run against the
  committed state as of that point: versioned row images
  (:meth:`~repro.storage.table.Table.note_committed`) keep pre-images
  alive while writers churn, so readers never block writers and never
  see uncommitted or later-committed data.
* **Commit serialization through the journal.**  Each transaction
  buffers its journal entries; the commit appends them atomically under
  the write lock, so the write-ahead journal records one serial history
  equivalent to the interleaved execution.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import (
    DuplicateTableError,
    RowNotFoundError,
    TransactionConflictError,
    TransactionError,
    UnknownTableError,
)
from repro.storage.journal import Journal, encode_row
from repro.storage.predicate import Predicate
from repro.storage.query import Query
from repro.storage.schema import TableSchema
from repro.storage.snapshot import Snapshot
from repro.storage.table import Table
from repro.storage.transactions import Transaction, UndoRecord

__all__ = ["Database"]

#: Commits between version-history pruning sweeps.
PRUNE_INTERVAL = 64

#: one row change of a statement: ``(rowid, before, after)``, where
#: ``before`` is ``None`` for an insert and ``after`` for a delete
_Change = tuple[int, dict[str, Any] | None, dict[str, Any] | None]

#: the per-table telemetry counter each statement kind bumps
_ROW_COUNTERS = {
    "insert": "storage_rows_inserted_total",
    "bulk_insert": "storage_rows_inserted_total",
    "update": "storage_rows_updated_total",
    "delete": "storage_rows_deleted_total",
}


def _journal_entries(table: Table, op: str,
                     changes: list[_Change]) -> list[dict[str, Any]]:
    """A statement's journal entries: one ``bulk_insert`` entry for a
    batch, else one entry per row (several land as one line)."""
    if op == "bulk_insert":
        return [{"op": op, "table": table.name, "rows": [
            {"rowid": rowid, "row": encode_row(table.schema, after)}
            for rowid, __, after in changes]}]
    if op == "delete":
        return [{"op": op, "table": table.name, "rowid": rowid}
                for rowid, __, __ in changes]
    return [{"op": op, "table": table.name, "rowid": rowid,
             "row": encode_row(table.schema, after)}
            for rowid, __, after in changes]


class Database:
    """A collection of tables with optional durability.

    Parameters
    ----------
    name:
        Purely informational label.
    journal_path:
        When given, every committed mutation is appended to a JSON-lines
        journal there, and :meth:`recover` can rebuild the database.
    """

    def __init__(self, name: str = "db",
                 journal_path: str | Path | None = None) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._journal = Journal(journal_path) if journal_path else None
        # -- concurrency state ------------------------------------------
        # One re-entrant lock serializes mutations, commits and
        # rollbacks; snapshot readers only take it briefly to collect a
        # consistent rowid set.
        self._lock = threading.RLock()
        #: monotonically increasing commit sequence (MVCC timestamps)
        self._commit_seq = 0
        self._last_prune_seq = 0
        self._tx_counter = 0
        #: open transaction per thread ident (one per thread, any number
        #: of threads)
        self._active_tx: dict[int, Transaction] = {}
        #: write claims: ``(table, rowid) -> owning transaction``
        self._row_writers: dict[tuple[str, int], Transaction] = {}
        #: pinned snapshot seqs -> refcount (pruning floor)
        self._snapshots: dict[int, int] = {}

    def __repr__(self) -> str:
        return f"Database({self.name}, tables={sorted(self._tables)})"

    # ------------------------------------------------------------------
    # schema operations
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema, *, _journal: bool = True) -> Table:
        """Create a table from ``schema``; returns it."""
        with self._lock:
            if schema.name in self._tables:
                raise DuplicateTableError(
                    f"table {schema.name!r} already exists")
            for fk in schema.foreign_keys:
                if fk.parent_table not in self._tables \
                        and fk.parent_table != schema.name:
                    raise UnknownTableError(
                        f"foreign key references missing table "
                        f"{fk.parent_table!r}"
                    )
            table = Table(schema)
            self._tables[schema.name] = table
            if _journal:
                self._journal_write(
                    {"op": "create_table", "schema": schema.to_dict()}
                )
            return table

    def drop_table(self, name: str, *, _journal: bool = True) -> None:
        with self._lock:
            if name not in self._tables:
                raise UnknownTableError(f"no table {name!r}")
            del self._tables[name]
            if _journal:
                self._journal_write({"op": "drop_table", "table": name})

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def create_index(self, table: str, column: str, kind: str = "hash") -> None:
        """Create a secondary index; journaled so recovery keeps it."""
        with self._lock:
            self.table(table).create_index(column, kind)
            self._journal_write(
                {"op": "create_index", "table": table, "column": column,
                 "kind": kind}
            )

    # ------------------------------------------------------------------
    # row operations
    # ------------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> int:
        """Insert one row; returns its row id."""
        return self._statement(table_name, "insert", values=[values])[0][0]

    def bulk_load(self, table_name: str,
                  rows: Iterable[Mapping[str, Any]]) -> list[int]:
        """Insert a batch of rows as one statement; returns their row ids.

        The whole batch is validated up front (a failing row leaves the
        table untouched), index maintenance is deferred to one bulk pass
        per index, and the batch is journaled as one ``bulk_insert``
        entry.  Foreign keys are checked after the batch lands, so rows
        may reference each other (and themselves); a violation undoes
        the whole batch.
        """
        return [rowid for rowid, __, __ in
                self._statement(table_name, "bulk_insert", values=rows)]

    #: all-or-nothing, like :meth:`bulk_load`
    insert_many = bulk_load

    def update(self, table_name: str, rowid: int,
               changes: Mapping[str, Any]) -> dict[str, Any]:
        """Update one row by id; returns the new row."""
        changed = self._statement(table_name, "update", [rowid], changes)
        return dict(changed[0][2])

    def delete(self, table_name: str, rowid: int) -> dict[str, Any]:
        """Delete one row by id; returns the deleted row."""
        return dict(self._statement(table_name, "delete", [rowid])[0][1])

    def update_where(self, table_name: str, predicate: Predicate,
                     changes: Mapping[str, Any]) -> int:
        """Update every matching row as one statement; returns the number
        updated.  A conflict or constraint violation on any matching row
        leaves every row as it was."""
        return len(self._statement(table_name, "update", values=changes,
                                   where=predicate))

    def delete_where(self, table_name: str, predicate: Predicate) -> int:
        """Delete every matching row as one statement; returns the number
        deleted (all or none, like :meth:`update_where`)."""
        return len(self._statement(table_name, "delete", where=predicate))

    def _statement(self, table_name: str, op: str,
                   rowids: Iterable[int] = (), values: Any = None,
                   where: Predicate | None = None) -> list[_Change]:
        """Run one row statement; returns its ``(rowid, before, after)``
        changes.

        ``op`` is ``insert`` or ``bulk_insert`` (``values``: the rows),
        ``update`` (``values``: the changes) or ``delete``; an update or
        delete touches ``rowids``, or every row ``where`` matches.  The
        steps, in order:

        1. validate the whole statement (nothing is touched on failure);
        2. claim its rows (first-writer-wins, pins pre-images for
           snapshot readers);
        3. apply them and check foreign keys on the new images;
        4. append exactly one journal line, or buffer the entries in the
           open transaction;
        5. publish: at one new commit sequence number, or into the open
           transaction's undo log.

        Durability before visibility: nothing is published before the
        journal append returns.  A failure in steps 3-4 undoes the
        statement and releases its new claims before the error
        propagates, so a statement lands whole or not at all.
        """
        with self._lock:
            table = self.table(table_name)
            if self._active_tx:
                self._reap_abandoned()
            transaction = self._current_transaction()
            if op in ("insert", "bulk_insert"):
                afters = table.prepare_rows(values)
                changes: list[_Change] = [
                    (rowid, None, after) for rowid, after
                    in enumerate(afters, start=table.next_rowid)]
            else:
                targets = (
                    [(rowid, table.row_by_id(rowid)) for rowid in rowids]
                    if where is None else
                    [(rowid, row) for rowid, row in table.rows_with_ids()
                     if where(row)])
                afters = (table.prepare_update(targets, values)
                          if op == "update" and targets
                          else [None] * len(targets))
                changes = [(rowid, before, after) for (rowid, before), after
                           in zip(targets, afters)]
            if not changes:
                return changes
            # with no open transaction and no snapshot there is nobody to
            # conflict with and no reader to pin pre-images for
            claimed = (self._claim_rows(table, transaction, changes)
                       if self._active_tx or self._snapshots else [])
            try:
                if op == "update":
                    for rowid, __, after in changes:
                        table.restore_update(rowid, after)
                elif op == "delete":
                    for rowid, __, __ in changes:
                        table.restore_delete(rowid)
                else:
                    table.apply_prepared(afters)
                if table.schema.foreign_keys and op != "delete":
                    for __, __, after in changes:
                        self._check_foreign_keys(table, after)
                if self._journal is not None:
                    entries = _journal_entries(table, op, changes)
                    if transaction is None:
                        self._journal.append_many(entries)
                    else:
                        transaction.journal_buffer.extend(entries)
            except BaseException:  # noqa: BLE001 - undo before any error propagates
                self._replay_undo(
                    UndoRecord(table_name, op, rowid, before, after)
                    for rowid, before, after in reversed(changes))
                self._release_claims(transaction, claimed)
                raise
            table.metric(_ROW_COUNTERS[op]).inc(len(changes))
            if op == "bulk_insert":
                table.metric("storage_bulk_batches_total").inc()
            if transaction is not None:
                for rowid, before, after in changes:
                    transaction.record(table_name, op, rowid, before, after)
            else:
                # rows nobody observes and with no history stay clean:
                # the physical row is the committed image
                seq = self._advance_seq()
                observed = bool(self._snapshots) or bool(self._active_tx)
                for rowid, before, after in changes:
                    if observed or rowid in table._history:
                        table.note_committed(rowid, before, after, seq)
                self._maybe_prune()
            return changes

    def get(self, table_name: str, key: Any) -> dict[str, Any]:
        """Fetch one row by primary-key value."""
        table = self.table(table_name)
        pk = table.schema.primary_key
        if pk is None:
            return table.row_by_id(int(key))
        index = table.index_on(pk)
        assert index is not None  # primary keys always have a hash index
        hits = index.lookup(key)
        if not hits:
            raise RowNotFoundError(
                f"{table_name}: no row with {pk}={key!r}"
            )
        return table.row_by_id(next(iter(hits)))

    def rowid_for(self, table_name: str, key: Any) -> int:
        """Row id of the row whose primary key equals ``key``."""
        table = self.table(table_name)
        pk = table.schema.primary_key
        if pk is None:
            return int(key)
        index = table.index_on(pk)
        assert index is not None
        hits = index.lookup(key)
        if not hits:
            raise RowNotFoundError(
                f"{table_name}: no row with {pk}={key!r}"
            )
        return next(iter(hits))

    def rowids_for(self, table_name: str,
                   keys: Iterable[Any]) -> dict[Any, int]:
        """``key -> row id`` for each of ``keys`` that has a row, probed
        in the primary-key index (keys without a row are left out)."""
        table = self.table(table_name)
        pk = table.schema.primary_key
        if pk is None:
            raise ValueError(f"table {table_name!r} has no primary key")
        index = table.index_on(pk)
        assert index is not None
        found: dict[Any, int] = {}
        for key in keys:
            hits = index.lookup(key)
            if hits:
                found[key] = next(iter(hits))
        return found

    def _check_foreign_keys(self, table: Table, row: Mapping[str, Any]) -> None:
        from repro.errors import ConstraintViolation

        for fk in table.schema.foreign_keys:
            value = row.get(fk.column)
            if value is None:
                continue
            parent = self.table(fk.parent_table)
            index = parent.index_on(fk.parent_column)
            if index is not None:
                found = bool(index.lookup(value))
            else:
                found = any(
                    parent_row.get(fk.parent_column) == value
                    for parent_row in parent.rows()
                )
            if not found:
                raise ConstraintViolation(
                    "FOREIGN KEY",
                    f"{table.name}.{fk.column}={value!r} has no parent in "
                    f"{fk.parent_table}.{fk.parent_column}",
                )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def query(self, table_name: str) -> Query:
        """Start a fluent :class:`~repro.storage.query.Query`.

        Reads the *latest* physical state, including this thread's own
        uncommitted writes (and, under concurrency, other sessions'
        uncommitted writes).  Use :meth:`snapshot` for isolated reads.
        """
        return Query(self.table(table_name), resolve_table=self.table)

    def count(self, table_name: str) -> int:
        return len(self.table(table_name))

    # ------------------------------------------------------------------
    # snapshots (MVCC read views)
    # ------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current committed state and return a read view.

        Queries through the snapshot see exactly the rows committed
        before this call — never uncommitted writes, never later
        commits — and never block writers.  Release the snapshot (it is
        a context manager) so version history can be pruned.
        """
        with self._lock:
            seq = self._commit_seq
            self._snapshots[seq] = self._snapshots.get(seq, 0) + 1
            self._storage_counter("storage_snapshots_total").inc()
            return Snapshot(self, seq)

    def _release_snapshot(self, seq: int) -> None:
        with self._lock:
            count = self._snapshots.get(seq, 0) - 1
            if count > 0:
                self._snapshots[seq] = count
            else:
                self._snapshots.pop(seq, None)

    def _storage_counter(self, name: str, **labels: str):
        from repro.telemetry import get_telemetry

        return get_telemetry().metrics.counter(name, database=self.name,
                                               **labels)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Open a transaction for the calling thread (usable as a
        context manager).

        Each thread may hold one open transaction; opening a second one
        from the same thread raises :class:`TransactionError` (undo
        records must never interleave within a session).  Different
        threads run transactions concurrently under first-writer-wins
        conflict detection.
        """
        with self._lock:
            if self._active_tx:
                self._reap_abandoned()
            ident = threading.get_ident()
            existing = self._active_tx.get(ident)
            if existing is not None:
                raise TransactionError(
                    "a transaction is already open in this thread "
                    f"(tid={existing.tid}); commit or roll it back before "
                    "opening another"
                )
            self._tx_counter += 1
            transaction = Transaction(self, self._tx_counter,
                                      start_seq=self._commit_seq)
            self._active_tx[ident] = transaction
            return transaction

    def in_transaction(self) -> bool:
        """Whether the *calling thread* has an open transaction."""
        return self._current_transaction() is not None

    def active_transactions(self) -> int:
        """Number of open transactions across all threads."""
        return len(self._active_tx)

    def _current_transaction(self) -> Transaction | None:
        transaction = self._active_tx.get(threading.get_ident())
        if transaction is not None and not transaction.thread_alive():
            # OS thread idents are recycled: a previous pool worker died
            # with this transaction open and *we* inherited its ident.
            # Reap it — this thread's work must never be recorded into
            # the dead transaction's undo log.
            with self._lock:
                self._reap_abandoned()
            return self._active_tx.get(threading.get_ident())
        return transaction

    def _claim_rows(self, table: Table, transaction: Transaction | None,
                    changes: list[_Change]) -> list[tuple[str, int]]:
        """First-writer-wins conflict detection for a statement's rows;
        returns the claims ``transaction`` newly took.

        Raises :class:`TransactionConflictError` when a row carries an
        uncommitted write from another transaction, or (inside a
        transaction) was committed after the transaction began; the
        claims this statement took are released first.  Each row's
        committed pre-image (``None`` for a new row) is pinned in the
        version history *before* the physical write, so lock-free
        snapshot readers never fall back to the mutated physical row.
        Only called when someone could observe the write (an open
        transaction or a live snapshot); otherwise there is nothing to
        claim or pin.
        """
        claimed: list[tuple[str, int]] = []
        for rowid, before, __ in changes:
            key = (table.name, rowid)
            owner = self._row_writers.get(key)
            if owner is not None and owner is not transaction \
                    and not owner.thread_alive():
                # the claim belongs to a transaction whose thread died
                # with it open: reap instead of conflicting with a ghost
                self._reap_abandoned()
                owner = self._row_writers.get(key)
            if owner is not None and owner is not transaction:
                self._release_claims(transaction, claimed)
                self._storage_counter("storage_transaction_conflicts_total",
                                      table=table.name,
                                      kind="write_write").inc()
                raise TransactionConflictError(
                    f"row {table.name}#{rowid} has an uncommitted write "
                    f"from transaction tid={owner.tid} (first writer wins)"
                )
            if transaction is None:
                table.ensure_baseline(rowid, before)
                continue
            if key in transaction.claims:
                continue
            last_seq = table.last_committed_seq(rowid)
            if last_seq > transaction.start_seq:
                self._release_claims(transaction, claimed)
                self._storage_counter(
                    "storage_transaction_conflicts_total",
                    table=table.name, kind="stale_write").inc()
                raise TransactionConflictError(
                    f"row {table.name}#{rowid} was committed at seq "
                    f"{last_seq}, after transaction tid={transaction.tid} "
                    f"began at seq {transaction.start_seq} (first "
                    "committer wins)"
                )
            transaction.claims.add(key)
            self._row_writers[key] = transaction
            claimed.append(key)
            table.ensure_baseline(rowid, before)
        return claimed

    def _advance_seq(self) -> int:
        self._commit_seq += 1
        return self._commit_seq

    def _commit_transaction(self, transaction: Transaction) -> None:
        with self._lock:
            if self._active_tx.get(transaction.thread_ident) \
                    is not transaction:
                raise TransactionError(
                    "finishing a transaction that is not open")
            # durability before visibility: the journal entries must be
            # on disk before any committed image becomes observable.  A
            # failed append leaves the transaction open with its claims
            # held and no versions published, so rollback() stays clean.
            if self._journal is not None and transaction.journal_buffer:
                self._journal.append_many(transaction.journal_buffer)
            transaction.journal_buffer = []
            seq = self._advance_seq()
            for (table_name, rowid), (before, after) \
                    in transaction.final_images().items():
                table = self._tables.get(table_name)
                if table is not None:
                    table.note_committed(rowid, before, after, seq)
            self._release_transaction(transaction)
            self._maybe_prune()

    def _rollback_transaction(self, transaction: Transaction) -> None:
        with self._lock:
            if self._active_tx.get(transaction.thread_ident) \
                    is not transaction:
                raise TransactionError(
                    "finishing a transaction that is not open")
            self._replay_undo(reversed(transaction.undo_records()))
            transaction.journal_buffer = []
            self._release_transaction(transaction)

    def _abandon_transaction(self, transaction: Transaction) -> None:
        """Detach a transaction whose rollback failed mid-replay: drop
        its buffered journal entries and release its claims so other
        sessions are not wedged; the transaction object itself is dead
        (state ``failed``) and every further use raises."""
        with self._lock:
            self._storage_counter("storage_failed_rollbacks_total").inc()
            transaction.journal_buffer = []
            self._release_transaction(transaction)

    def _reap_abandoned(self) -> None:
        """Roll back and release transactions whose owning thread died.

        A pool worker can exit with a transaction still open.  Left
        alone, its entry in ``_active_tx`` and its row claims would leak
        forever — wedging those rows, blocking :meth:`checkpoint` and
        pinning the prune floor — and, because OS thread idents are
        recycled, an unrelated new thread with the same ident would be
        captured by the dead transaction.  The owner can never commit,
        so an abandoned transaction is replayed backwards like a
        rollback, marked ``failed`` and released.  Callers hold the
        database lock.
        """
        for transaction in list(self._active_tx.values()):
            if transaction.thread_alive():
                continue
            self._storage_counter(
                "storage_abandoned_transactions_total").inc()
            try:
                self._replay_undo(reversed(transaction.undo_records()))
            finally:
                transaction.journal_buffer = []
                transaction.mark_abandoned()
                self._release_transaction(transaction)

    def _replay_undo(self, records: Iterable[UndoRecord]) -> None:
        """Put back each record's before-image, in the order given (a
        ``None`` image removes the row); tables dropped since are
        skipped.  Undoes a failed statement, a rollback and a reaped
        transaction alike."""
        for record in records:
            table = self._tables.get(record.table)
            if table is None:
                continue
            if record.before is None:
                table.restore_delete(record.rowid)
            else:
                table.restore_update(record.rowid, record.before)

    def _release_claims(self, transaction: Transaction | None,
                        keys: Iterable[tuple[str, int]]) -> None:
        for key in keys:
            transaction.claims.discard(key)
            if self._row_writers.get(key) is transaction:
                del self._row_writers[key]

    def _release_transaction(self, transaction: Transaction) -> None:
        self._release_claims(transaction, list(transaction.claims))
        if self._active_tx.get(transaction.thread_ident) is transaction:
            del self._active_tx[transaction.thread_ident]

    def _maybe_prune(self) -> None:
        """Drop version history nobody can observe any more (runs every
        :data:`PRUNE_INTERVAL` commits)."""
        if self._commit_seq - self._last_prune_seq < PRUNE_INTERVAL:
            return
        self._last_prune_seq = self._commit_seq
        if self._active_tx:
            # a dead thread's open transaction must not pin the floor
            self._reap_abandoned()
        floors = [self._commit_seq]
        floors.extend(self._snapshots)
        floors.extend(tx.start_seq for tx in self._active_tx.values())
        floor = min(floors)
        claimed: dict[str, set[int]] = {}
        for table_name, rowid in self._row_writers:
            claimed.setdefault(table_name, set()).add(rowid)
        for name, table in self._tables.items():
            table.prune_versions(floor, keep=claimed.get(name, ()))

    def _journal_write(self, entry: dict[str, Any]) -> None:
        """Journal a schema change (row statements journal themselves)."""
        if self._journal is None:
            return
        transaction = self._current_transaction()
        if transaction is not None:
            # Buffer until commit: rolled-back work must never hit disk.
            transaction.journal_buffer.append(entry)
        else:
            self._journal.append(entry)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Journal | None:
        return self._journal

    def checkpoint(self) -> Path | None:
        """Write a snapshot and truncate the journal (no-op in memory).

        Refuses to run while any transaction is open: the snapshot file
        would capture uncommitted physical rows, and a later rollback
        could not be replayed out of it.
        """
        if self._journal is None:
            return None
        with self._lock:
            if self._active_tx:
                self._reap_abandoned()
            if self._active_tx:
                raise TransactionError(
                    f"cannot checkpoint with {len(self._active_tx)} open "
                    "transaction(s)"
                )
            return self._journal.write_snapshot(self)

    @classmethod
    def recover(cls, name: str, journal_path: str | Path) -> "Database":
        """Rebuild a database from its snapshot + journal."""
        database = cls(name)
        journal = Journal(journal_path)
        journal.load_snapshot(database)
        journal.replay(database)
        database._journal = journal
        return database

    def dump_state(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "tables": {
                name: table.dump_state()
                for name, table in self._tables.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        self.name = state.get("name", self.name)
        self._tables = {
            name: Table.load_state(table_state)
            for name, table_state in state.get("tables", {}).items()
        }
