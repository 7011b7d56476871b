"""Durability: a JSON-lines write-ahead journal plus snapshots.

Every commit is appended to the journal as one numbered JSON line; a
transaction of several mutations is one ``commit`` record, so a crash
keeps all of it or none::

    {"op": "insert", "table": "recordings", "rowid": 17, "row": {...}, "seq": 1}
    {"op": "commit", "entries": [{"op": "insert", ...}, ...], "seq": 2}

:func:`Journal.replay` rebuilds a :class:`~repro.storage.database.Database`
from an empty state.  Snapshots (:meth:`Journal.write_snapshot`) compact
the journal: a snapshot file plus a truncated journal replaces the full
history.  Replay skips lines the snapshot already holds (a crash between
the two), and lines without a number (older journals) always replay.

The journal encodes values through each column type's ``to_json`` hook so
dates and datetimes survive the round trip.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import JournalError
from repro.storage.schema import TableSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database

__all__ = ["Journal"]


class Journal:
    """Append-only journal bound to a file path."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: last line number written or replayed; None until known
        self._seq: int | None = None
        #: the last line number the loaded snapshot holds
        self._snapshot_seq = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, entry: dict[str, Any]) -> None:
        """Append one entry as one line and fsync-lite (flush) it."""
        self._write([entry])

    def append_many(self, entries: list[dict[str, Any]]) -> None:
        """Append one transaction's entries as one line: a single entry
        as itself, several as one ``commit`` record."""
        if entries:
            self._write(entries)

    def _write(self, entries: list[dict[str, Any]]) -> None:
        seq = self._last_seq() + 1
        record = (dict(entries[0]) if len(entries) == 1
                  else {"op": "commit", "entries": entries})
        record["seq"] = seq
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._seq = seq

    def _last_seq(self) -> int:
        if self._seq is None:  # neither written nor replayed yet
            self._seq = max([self._read_snapshot().get("journal_seq", 0),
                             *(e.get("seq", 0) for e in self.entries())])
        return self._seq

    # ------------------------------------------------------------------
    # reading / replay
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[dict[str, Any]]:
        """Yield journal entries in order; tolerate a torn final line
        (interrupted write) but raise on corruption in the middle."""
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                if number == len(lines):
                    # torn tail from an interrupted append: ignore
                    return
                raise JournalError(
                    f"{self.path}: corrupt journal line {number}: {exc}"
                ) from None

    def replay(self, database: "Database") -> int:
        """Apply every journal line the loaded snapshot does not already
        hold to ``database``; returns the count.

        Afterwards the file ends on a line boundary, so the next append
        starts a line of its own instead of extending the tail."""
        applied = 0
        self._seq = self._snapshot_seq
        for entry in self.entries():
            seq = entry.get("seq", 0)
            if 0 < seq <= self._snapshot_seq:
                continue  # left by a checkpoint that crashed mid-way
            self._apply(database, entry)
            self._seq = max(self._seq, seq)
            applied += 1
        self._end_on_line_boundary()
        return applied

    def _end_on_line_boundary(self) -> None:
        """Cut a torn last line; terminate a complete unterminated one
        (replay already applied it)."""
        if not self.path.exists():
            return
        with self.path.open("rb+") as handle:
            size = handle.seek(0, os.SEEK_END)
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            start = data.rfind(b"\n") + 1
            try:
                json.loads(data[start:])
            except ValueError:
                handle.truncate(start)
            else:
                handle.write(b"\n")

    @staticmethod
    def _apply(database: "Database", entry: dict[str, Any]) -> None:
        op = entry.get("op")
        if op == "create_table":
            schema = TableSchema.from_dict(entry["schema"])
            if schema.name not in database.table_names():
                database.create_table(schema, _journal=False)
        elif op == "drop_table":
            if entry["table"] in database.table_names():
                database.drop_table(entry["table"], _journal=False)
        elif op == "insert":
            table = database.table(entry["table"])
            row = _decode_row(table.schema, entry["row"])
            table.restore_insert(entry["rowid"], row)
        elif op == "commit":
            for item in entry["entries"]:
                Journal._apply(database, item)
        elif op == "bulk_insert":
            # one batched entry from Database.bulk_load: {"rows":
            # [{"rowid": ..., "row": {...}}, ...]}
            table = database.table(entry["table"])
            for item in entry["rows"]:
                row = _decode_row(table.schema, item["row"])
                table.restore_insert(item["rowid"], row)
        elif op == "update":
            table = database.table(entry["table"])
            row = _decode_row(table.schema, entry["row"])
            table.restore_update(entry["rowid"], row)
        elif op == "delete":
            table = database.table(entry["table"])
            table.restore_delete(entry["rowid"])
        elif op == "create_index":
            table = database.table(entry["table"])
            table.create_index(entry["column"], entry.get("kind", "hash"))
        else:
            raise JournalError(f"unknown journal op {op!r}")

    # ------------------------------------------------------------------
    # snapshot compaction
    # ------------------------------------------------------------------

    def snapshot_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".snapshot")

    def write_snapshot(self, database: "Database") -> Path:
        """Write a full snapshot of ``database``, stamped with the last
        journal line number it holds, and truncate the journal."""
        snapshot = database.dump_state()
        snapshot["journal_seq"] = self._last_seq()
        target = self.snapshot_path()
        tmp = target.with_suffix(target.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, sort_keys=True)
        os.replace(tmp, target)
        # Truncate the journal now that its effects live in the snapshot.
        with self.path.open("w", encoding="utf-8"):
            pass
        return target

    def load_snapshot(self, database: "Database") -> bool:
        """Load the snapshot (if any) into ``database``; returns whether a
        snapshot existed.  Call before :meth:`replay`."""
        state = self._read_snapshot()
        if not state:
            return False
        database.load_state(state)
        self._snapshot_seq = state.get("journal_seq", 0)
        return True

    def _read_snapshot(self) -> dict[str, Any]:
        target = self.snapshot_path()
        if not target.exists():
            return {}
        with target.open("r", encoding="utf-8") as handle:
            try:
                return json.load(handle)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"{target}: corrupt snapshot: {exc}"
                ) from None


def _decode_row(schema: TableSchema, encoded: dict[str, Any]) -> dict[str, Any]:
    decoded: dict[str, Any] = {}
    for column in schema.columns:
        if column.name in encoded:
            decoded[column.name] = column.type.from_json(encoded[column.name])
    return decoded


def encode_row(schema: TableSchema, row: dict[str, Any]) -> dict[str, Any]:
    """Encode ``row`` for the journal using the schema's type hooks."""
    encoded: dict[str, Any] = {}
    for column in schema.columns:
        if column.name in row:
            encoded[column.name] = column.type.to_json(row[column.name])
    return encoded
