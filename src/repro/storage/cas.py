"""The content-addressed object store (CAS).

Every archived payload — a serialized
:class:`~repro.core.preservation.PreservationPackage`, one sound
record's metadata row, a migrated derivative, one port value of a
provenance run — is keyed by the SHA-256 of its bytes
(:func:`repro.hashing.sha256_hex`, the same digest recipe used
everywhere else in the library).  Content addressing buys the
vault three properties at once:

* **deduplication** — storing the same payload twice stores one blob
  and bumps a reference count;
* **fixity for free** — the key *is* the integrity baseline, so an
  audit just re-hashes the payload and compares against its own name;
* **stable provenance identity** — OPM artifact nodes can reference
  ``cas:<digest>`` and the reference survives replica repair and store
  migration, because the name never depends on *where* the bytes live.

Blobs live in an ordinary :class:`~repro.storage.Database` table, so
the vault inherits the engine's journaling, constraints and query
machinery instead of inventing a parallel persistence layer.  The
store sits in the storage package, below both of its users: the
preservation vault's replicas and the provenance repository's values
store (:mod:`repro.archive.cas` keeps the vault-side import path).

For tests and drills the store exposes two *corruption-injection*
hooks, :meth:`ContentAddressedStore.corrupt` and
:meth:`ContentAddressedStore.drop` — the only ways a payload and its
digest can legally disagree.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from typing import Any, Iterator, Sequence

from repro.errors import FixityError, ObjectMissingError
from repro.hashing import sha256_hex
from repro.storage import types as ct
from repro.storage.database import Database
from repro.storage.predicate import col
from repro.storage.schema import Column, TableSchema

__all__ = ["ContentAddressedStore", "ObjectStat", "PutItem"]

_OBJECTS = "cas_objects"

#: one :meth:`ContentAddressedStore.put_many` item:
#: ``(digest, payload, media_type)``
PutItem = tuple[str, str, str]


class ObjectStat:
    """Metadata of one stored object (no payload)."""

    __slots__ = ("digest", "size_bytes", "media_type", "refs")

    def __init__(self, digest: str, size_bytes: int, media_type: str,
                 refs: int) -> None:
        self.digest = digest
        self.size_bytes = size_bytes
        self.media_type = media_type
        self.refs = refs

    def __repr__(self) -> str:
        return (
            f"ObjectStat({self.digest[:12]}…, {self.size_bytes} B, "
            f"{self.media_type}, refs={self.refs})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "size_bytes": self.size_bytes,
            "media_type": self.media_type,
            "refs": self.refs,
        }


class ContentAddressedStore:
    """One named replica: sha256-keyed blobs on the storage engine.

    Parameters
    ----------
    name:
        The store's identity within a replica group (e.g. ``vault-r0``).
    database:
        Backing database; a fresh in-memory one per store by default,
        so each replica models an independent storage node.  Pass a
        journaled database for durability.
    """

    def __init__(self, name: str, database: Database | None = None) -> None:
        self.name = name
        self.database = database or Database(f"cas:{name}")
        if not self.database.has_table(_OBJECTS):
            self.database.create_table(TableSchema(_OBJECTS, [
                Column("digest", ct.TEXT),
                Column("size_bytes", ct.INTEGER, nullable=False),
                Column("media_type", ct.TEXT, nullable=False),
                Column("refs", ct.INTEGER, nullable=False),
                Column("payload", ct.TEXT, nullable=False),
            ], primary_key="digest"))

    def __repr__(self) -> str:
        return f"ContentAddressedStore({self.name}, {len(self)} objects)"

    def __len__(self) -> int:
        return self.database.count(_OBJECTS)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, payload: str,
            media_type: str = "application/json") -> str:
        """Store ``payload``; returns its digest.  Re-putting an
        existing payload deduplicates (one blob, ``refs`` + 1)."""
        digest = sha256_hex(payload)
        self.put_many([(digest, payload, media_type)])
        return digest

    def put_many(self, items: Sequence[PutItem]) -> list[bool]:
        """Store a batch of ``(digest, payload, media_type)`` items, where
        each digest is :func:`~repro.hashing.sha256_hex` of its payload
        (callers hash once and hand the same items to every replica).

        Returns, per item, whether it stored a new blob; ``False`` means
        it deduplicated against an existing object or an earlier item of
        the batch (``refs`` + 1 either way).  New blobs land in one
        :meth:`~repro.storage.Database.bulk_load`; the ``refs`` bumps
        join it in one transaction, so a failed call leaves the store
        unchanged and a retry can never bump ``refs`` twice.
        """
        known = self.database.rowids_for(
            _OBJECTS, dict.fromkeys(digest for digest, __, __ in items))
        fresh: dict[str, tuple[str, str]] = {}
        refs: dict[str, int] = {}
        stored: list[bool] = []
        for digest, payload, media_type in items:
            new = digest not in known and digest not in fresh
            if new:
                fresh[digest] = (payload, media_type)
            refs[digest] = refs.get(digest, 0) + 1
            stored.append(new)
        atomic: AbstractContextManager[Any] = (
            self.database.transaction()
            if known and not self.database.in_transaction()
            else nullcontext())
        with atomic:
            if fresh:
                self.database.bulk_load(_OBJECTS, (
                    {"digest": digest,
                     "size_bytes": len(payload.encode("utf-8")),
                     "media_type": media_type,
                     "refs": refs[digest],
                     "payload": payload}
                    for digest, (payload, media_type) in fresh.items()
                ))
            table = self.database.table(_OBJECTS)
            for digest, rowid in known.items():
                self.database.update(_OBJECTS, rowid, {
                    "refs": table.row_by_id(rowid)["refs"] + refs[digest]})
        return stored

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _row(self, digest: str) -> dict[str, Any] | None:
        return self.database.query(_OBJECTS).where(
            col("digest") == digest
        ).first()

    def exists(self, digest: str) -> bool:
        return self._row(digest) is not None

    def get(self, digest: str) -> str:
        """The raw payload, *without* fixity verification."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: no object {digest!r}"
            )
        return row["payload"]

    def get_verified(self, digest: str) -> str:
        """The payload, re-hashed against its name first."""
        payload = self.get(digest)
        actual = sha256_hex(payload)
        if actual != digest:
            raise FixityError(
                f"{self.name}: object {digest[:12]}… hashes to "
                f"{actual[:12]}… (bit rot or tampering)"
            )
        return payload

    def verify(self, digest: str) -> bool:
        """``True`` iff the object is present and its bytes still hash
        to its name."""
        row = self._row(digest)
        if row is None:
            return False
        return sha256_hex(row["payload"]) == digest

    def stat(self, digest: str) -> ObjectStat:
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: no object {digest!r}"
            )
        return ObjectStat(row["digest"], row["size_bytes"],
                          row["media_type"], row["refs"])

    def digests(self) -> list[str]:
        return sorted(self.database.query(_OBJECTS).values("digest"))

    def _scan(self) -> Iterator[dict[str, Any]]:
        """Every stored row, one copy at a time: a single pass over the
        table that never materialises the whole store."""
        return self.database.table(_OBJECTS).rows()

    def objects(self) -> Iterator[ObjectStat]:
        """Every object's metadata, by digest, from one scan."""
        stats = [ObjectStat(row["digest"], row["size_bytes"],
                            row["media_type"], row["refs"])
                 for row in self._scan()]
        stats.sort(key=lambda stat: stat.digest)
        yield from stats

    def total_bytes(self) -> int:
        return sum(row["size_bytes"] for row in self._scan())

    def fixity_scan(self) -> Iterator[tuple[str, int, bool]]:
        """One pass re-hashing every object: ``(digest, size_bytes,
        intact)`` per object, where ``intact`` means the bytes still hash
        to the digest (what :meth:`verify` answers for one object)."""
        for row in self._scan():
            yield (row["digest"], row["size_bytes"],
                   sha256_hex(row["payload"]) == row["digest"])

    # ------------------------------------------------------------------
    # corruption injection (tests, fire drills)
    # ------------------------------------------------------------------

    def corrupt(self, digest: str, payload: str = "\x00bitrot\x00") -> None:
        """Overwrite the stored bytes *without* changing the key —
        simulated bit rot for fixity-audit tests."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: cannot corrupt missing object {digest!r}"
            )
        rowid = self.database.rowid_for(_OBJECTS, digest)
        self.database.update(_OBJECTS, rowid, {"payload": payload})

    def drop(self, digest: str) -> None:
        """Delete a replica's copy — simulated media loss."""
        row = self._row(digest)
        if row is None:
            raise ObjectMissingError(
                f"{self.name}: cannot drop missing object {digest!r}"
            )
        self.database.delete(_OBJECTS, self.database.rowid_for(_OBJECTS,
                                                               digest))

    # ------------------------------------------------------------------
    # repair support
    # ------------------------------------------------------------------

    def restore(self, digest: str, payload: str,
                media_type: str = "application/json") -> None:
        """Overwrite-or-insert a verified copy (used by replica repair).

        Unlike :meth:`put`, the payload must hash to ``digest``.
        """
        actual = sha256_hex(payload)
        if actual != digest:
            raise FixityError(
                f"{self.name}: refusing to restore {digest[:12]}… from a "
                f"payload hashing to {actual[:12]}…"
            )
        row = self._row(digest)
        if row is None:
            self.database.insert(_OBJECTS, {
                "digest": digest,
                "size_bytes": len(payload.encode("utf-8")),
                "media_type": media_type,
                "refs": 1,
                "payload": payload,
            })
        else:
            rowid = self.database.rowid_for(_OBJECTS, digest)
            self.database.update(_OBJECTS, rowid, {
                "payload": payload,
                "size_bytes": len(payload.encode("utf-8")),
                "media_type": media_type,
            })
