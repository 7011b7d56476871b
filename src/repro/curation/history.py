"""The curation-history log.

"This strategy is important in order to maintain the original collection
unchanged ... It also provides a historical log of metadata
modifications.  Before such names are persisted in the database, they
are flagged to be checked by biologists."

Every curation step records :class:`ProposedChange` rows in the
``curation_history`` table of the collection's own database.  Changes
start ``flagged``; human curators :meth:`~CurationHistory.approve` or
:meth:`~CurationHistory.reject` them.  The *curated view* of a record is
the original plus its approved changes — computed on read, never written
back over the original.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, NamedTuple

from repro.errors import CurationError
from repro.sounds.collection import RECORDINGS, SoundCollection
from repro.sounds.record import SoundRecord
from repro.storage import Column, ForeignKey, TableSchema, col
from repro.storage import column_types as ct

__all__ = ["Proposal", "ProposedChange", "CurationHistory"]

HISTORY = "curation_history"

_STATUSES = ("flagged", "approved", "rejected")


class ProposedChange:
    """One proposed metadata modification."""

    __slots__ = ("change_id", "record_id", "field", "old_value",
                 "new_value", "step", "status", "curator", "note")

    def __init__(self, change_id: int, record_id: int, field: str,
                 old_value: Any, new_value: Any, step: str,
                 status: str = "flagged", curator: str = "",
                 note: str = "") -> None:
        self.change_id = change_id
        self.record_id = record_id
        self.field = field
        self.old_value = old_value
        self.new_value = new_value
        self.step = step
        self.status = status
        self.curator = curator
        self.note = note

    def __repr__(self) -> str:
        return (
            f"ProposedChange(#{self.change_id} rec{self.record_id} "
            f"{self.field}: {self.old_value!r} -> {self.new_value!r} "
            f"[{self.status}])"
        )

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "ProposedChange":
        return cls(
            row["change_id"], row["record_id"], row["field"],
            json.loads(row["old_value"]) if row["old_value"] else None,
            json.loads(row["new_value"]) if row["new_value"] else None,
            row["step"], row["status"], row.get("curator") or "",
            row.get("note") or "",
        )


class Proposal(NamedTuple):
    """One change to log, as :meth:`CurationHistory.propose` takes it."""

    record_id: int
    field: str
    old_value: Any
    new_value: Any
    step: str
    note: str = ""
    auto_approve: bool = False
    curator: str = ""


class CurationHistory:
    """The log, bound to one collection's database."""

    def __init__(self, collection: SoundCollection) -> None:
        self.collection = collection
        self.database = collection.database
        if not self.database.has_table(HISTORY):
            self.database.create_table(TableSchema(HISTORY, [
                Column("change_id", ct.INTEGER),
                Column("record_id", ct.INTEGER, nullable=False),
                Column("field", ct.TEXT, nullable=False),
                Column("old_value", ct.TEXT),
                Column("new_value", ct.TEXT),
                Column("step", ct.TEXT, nullable=False),
                Column("status", ct.TEXT, nullable=False,
                       check=lambda v: v in _STATUSES),
                Column("curator", ct.TEXT, default=""),
                Column("note", ct.TEXT, default=""),
            ], primary_key="change_id",
                foreign_keys=[
                    ForeignKey("record_id", RECORDINGS, "record_id")
                ]))
            self.database.create_index(HISTORY, "record_id", "hash")
            self.database.create_index(HISTORY, "status", "hash")
        self._next_id = self.database.count(HISTORY) + 1

    def __len__(self) -> int:
        return self.database.count(HISTORY)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def propose(self, record_id: int, field: str, old_value: Any,
                new_value: Any, step: str, note: str = "",
                auto_approve: bool = False,
                curator: str = "") -> ProposedChange:
        """Log one proposed change (``flagged`` unless auto-approved —
        purely syntactic fixes may skip review)."""
        return self.propose_many([Proposal(
            record_id, field, old_value, new_value, step, note,
            auto_approve, curator)])[0]

    def propose_many(self,
                     proposals: Iterable[Proposal]) -> list[ProposedChange]:
        """Log a batch of proposed changes in one bulk write.

        Change ids are consecutive in batch order, as the same sequence
        of :meth:`propose` calls would number them.  The batch is
        atomic: one that violates a constraint (an unknown record, say)
        logs none of its changes and consumes no ids.
        """
        changes = [
            ProposedChange(self._next_id + offset, proposal.record_id,
                           proposal.field, proposal.old_value,
                           proposal.new_value, proposal.step,
                           "approved" if proposal.auto_approve
                           else "flagged",
                           proposal.curator, proposal.note)
            for offset, proposal in enumerate(proposals)
        ]
        if changes:
            self.database.bulk_load(HISTORY, ({
                "change_id": change.change_id,
                "record_id": change.record_id,
                "field": change.field,
                "old_value": json.dumps(change.old_value, default=str),
                "new_value": json.dumps(change.new_value, default=str),
                "step": change.step,
                "status": change.status,
                "curator": change.curator,
                "note": change.note,
            } for change in changes))
            self._next_id += len(changes)
        return changes

    def _set_status(self, change_id: int, status: str,
                    curator: str) -> None:
        rowid = self.database.rowid_for(HISTORY, change_id)
        row = self.database.get(HISTORY, change_id)
        if row["status"] != "flagged":
            raise CurationError(
                f"change {change_id} already {row['status']}"
            )
        self.database.update(HISTORY, rowid,
                             {"status": status, "curator": curator})

    def approve(self, change_id: int, curator: str = "biologist") -> None:
        self._set_status(change_id, "approved", curator)

    def reject(self, change_id: int, curator: str = "biologist") -> None:
        self._set_status(change_id, "rejected", curator)

    def approve_step(self, step: str, curator: str = "biologist") -> int:
        """Bulk-approve every flagged change of one step; returns count."""
        count = 0
        for change in self.pending(step=step):
            self.approve(change.change_id, curator)
            count += 1
        return count

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def changes(self, record_id: int | None = None,
                step: str | None = None,
                status: str | None = None) -> Iterator[ProposedChange]:
        query = self.database.query(HISTORY)
        if record_id is not None:
            query = query.where(col("record_id") == record_id)
        if step is not None:
            query = query.where(col("step") == step)
        if status is not None:
            query = query.where(col("status") == status)
        for row in query.order_by("change_id").all():
            yield ProposedChange.from_row(row)

    def pending(self, step: str | None = None) -> list[ProposedChange]:
        return list(self.changes(step=step, status="flagged"))

    def history_for(self, record_id: int) -> list[ProposedChange]:
        return list(self.changes(record_id=record_id))

    # ------------------------------------------------------------------
    # curated view
    # ------------------------------------------------------------------

    def curated_record(self, record_id: int) -> SoundRecord:
        """The original record with every *approved* change applied.

        The original row in ``recordings`` is untouched; this view is
        recomputed from the log on every call.
        """
        return _curated(
            self.collection.record(record_id),
            self.changes(record_id=record_id, status="approved"),
        )

    def curated_records(self) -> Iterator[SoundRecord]:
        """Every record's curated view, as :meth:`curated_record` gives
        it: one read of the approved changes grouped by record, then one
        pass over the collection."""
        approved: dict[int, list[ProposedChange]] = {}
        for change in self.changes(status="approved"):
            approved.setdefault(change.record_id, []).append(change)
        for record in self.collection.records():
            yield _curated(record, approved.get(record.record_id, ()))

    def summary(self) -> dict[str, int]:
        counts = {status: 0 for status in _STATUSES}
        for row in self.database.table(HISTORY).rows():
            counts[row["status"]] += 1
        counts["total"] = len(self)
        return counts


def _curated(record: SoundRecord,
             approved: Iterable[ProposedChange]) -> SoundRecord:
    """``record`` with ``approved`` (in change-id order, so the last
    change to a field wins) applied."""
    changes = {
        change.field: _coerce_back(record, change.field, change.new_value)
        for change in approved
    }
    return record.replace(**changes) if changes else record


def _coerce_back(record: SoundRecord, field: str, value: Any) -> Any:
    """JSON round-trips lose dates; coerce back via the field spec."""
    from repro.sounds.fields import field_spec

    if value is None:
        return None
    spec = field_spec(field)
    try:
        return spec.type.coerce(value)
    except (ValueError, TypeError):
        return value
