"""Replica groups: N-way redundancy over named CAS stores.

The vault never trusts a single copy.  A :class:`ReplicaGroup` fans
every write out to all member stores, reads through a **verified
quorum** (at least ``quorum`` replicas whose bytes still hash to the
digest), and can rebuild a failed or corrupt replica from any healthy
one — the repair path the fixity auditor feeds.

Transient store failures are retried with exponential backoff.  The
backoff is *simulated*: the schedule is computed deterministically and
reported (attempt count, total backoff seconds) rather than slept, the
same convention the workflow engine uses for service-call latency — so
tests stay fast and byte-for-byte reproducible while the retry logic is
still genuinely exercised.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import ArchiveError, QuorumError
from repro.hashing import sha256_hex
from repro.storage.cas import ContentAddressedStore, PutItem

__all__ = ["ReplicaGroup", "ReplicaStatus", "RepairAction"]

#: replica states reported by :meth:`ReplicaGroup.replica_status`
OK, CORRUPT, MISSING = "ok", "corrupt", "missing"


class ReplicaStatus:
    """One object's health across every member store."""

    __slots__ = ("digest", "states")

    def __init__(self, digest: str, states: dict[str, str]) -> None:
        self.digest = digest
        self.states = states  # store name -> "ok" | "corrupt" | "missing"

    @property
    def healthy_stores(self) -> list[str]:
        return sorted(s for s, state in self.states.items() if state == OK)

    @property
    def corrupt_stores(self) -> list[str]:
        return sorted(s for s, state in self.states.items()
                      if state == CORRUPT)

    @property
    def missing_stores(self) -> list[str]:
        return sorted(s for s, state in self.states.items()
                      if state == MISSING)

    @property
    def intact(self) -> bool:
        return all(state == OK for state in self.states.values())

    def __repr__(self) -> str:
        return f"ReplicaStatus({self.digest[:12]}…, {self.states})"


class RepairAction:
    """One replica rebuilt from a healthy source."""

    __slots__ = ("digest", "store", "source", "reason", "attempts",
                 "backoff_seconds")

    def __init__(self, digest: str, store: str, source: str, reason: str,
                 attempts: int, backoff_seconds: float) -> None:
        self.digest = digest
        self.store = store
        self.source = source
        self.reason = reason  # the pre-repair state: "corrupt" | "missing"
        self.attempts = attempts
        self.backoff_seconds = backoff_seconds

    def __repr__(self) -> str:
        return (
            f"RepairAction({self.digest[:12]}… on {self.store} "
            f"from {self.source}, was {self.reason})"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "digest": self.digest,
            "store": self.store,
            "source": self.source,
            "reason": self.reason,
            "attempts": self.attempts,
            "backoff_seconds": self.backoff_seconds,
        }


class ReplicaGroup:
    """N named stores behaving as one logical object store.

    Parameters
    ----------
    stores:
        The member :class:`ContentAddressedStore`\\ s (at least one).
    quorum:
        Verified copies a read needs; defaults to a majority
        (``n // 2 + 1``).
    max_attempts:
        Per-store write attempts before the group gives up.
    backoff_base_seconds:
        First retry's simulated backoff; doubles per attempt.
    """

    def __init__(self, stores: Sequence[ContentAddressedStore],
                 quorum: int | None = None, max_attempts: int = 3,
                 backoff_base_seconds: float = 0.05) -> None:
        if not stores:
            raise ArchiveError("a replica group needs at least one store")
        names = [store.name for store in stores]
        if len(set(names)) != len(names):
            raise ArchiveError(f"duplicate store names: {names}")
        self.stores = list(stores)
        self.quorum = quorum if quorum is not None else len(stores) // 2 + 1
        if not 1 <= self.quorum <= len(stores):
            raise ArchiveError(
                f"quorum {self.quorum} out of range for "
                f"{len(stores)} stores"
            )
        self.max_attempts = max_attempts
        self.backoff_base_seconds = backoff_base_seconds

    def __repr__(self) -> str:
        return (
            f"ReplicaGroup({[s.name for s in self.stores]}, "
            f"quorum={self.quorum})"
        )

    def store(self, name: str) -> ContentAddressedStore:
        for member in self.stores:
            if member.name == name:
                return member
        raise ArchiveError(f"no store {name!r} in this group")

    # ------------------------------------------------------------------
    # retry/backoff
    # ------------------------------------------------------------------

    def _with_retry(self, action: Callable[[], Any],
                    what: str) -> tuple[Any, int, float]:
        """Run ``action`` up to ``max_attempts`` times; returns
        ``(result, attempts, simulated backoff seconds)``."""
        backoff = 0.0
        last: Exception | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return action(), attempt, backoff
            except ArchiveError as exc:
                last = exc
                if attempt < self.max_attempts:
                    backoff += self.backoff_base_seconds * 2 ** (attempt - 1)
        raise ArchiveError(
            f"{what} failed after {self.max_attempts} attempts: {last}"
        ) from last

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def put(self, payload: str,
            media_type: str = "application/json") -> str:
        """Write ``payload`` to every member store; returns the digest."""
        digest = sha256_hex(payload)
        self.put_many([(digest, payload, media_type)])
        return digest

    def put_many(self, items: Sequence[PutItem]) -> list[bool]:
        """Write a batch of ``(digest, payload, media_type)`` items to
        every member store, one atomic
        :meth:`~repro.storage.cas.ContentAddressedStore.put_many` per
        store (retried with backoff).  Returns the first store's
        per-item "stored a new blob" flags."""
        stored: list[bool] = []
        for position, member in enumerate(self.stores):
            result, __, __ = self._with_retry(
                lambda m=member: m.put_many(items),
                f"put on {member.name}",
            )
            if position == 0:
                stored = result
        return stored

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, digest: str) -> str:
        """Quorum read: the payload, provided at least ``quorum``
        replicas hold bytes that verify against ``digest``.

        A failed read raises a :class:`~repro.errors.QuorumError`
        carrying the *cause breakdown* — which member stores are
        missing the object vs. holding rotten bytes.  The two need
        different responses (a missing replica means a lost store or a
        partial write; a corrupt one means bit rot on live media), so
        conflating them — as this method once did by counting
        ``verify()`` failures — hid the true cause from operators and
        from repair provenance.
        """
        status = self.replica_status(digest)
        healthy = status.healthy_stores
        if len(healthy) < self.quorum:
            breakdown = []
            if status.missing_stores:
                breakdown.append(
                    f"missing on {', '.join(status.missing_stores)}")
            if status.corrupt_stores:
                breakdown.append(
                    f"corrupt on {', '.join(status.corrupt_stores)}")
            raise QuorumError(
                f"object {digest[:12]}…: {len(healthy)} verified "
                f"replica(s), quorum is {self.quorum}"
                + (f" ({'; '.join(breakdown)})" if breakdown else ""),
                missing=tuple(status.missing_stores),
                corrupt=tuple(status.corrupt_stores),
                verified=len(healthy),
            )
        return self.store(healthy[0]).get(digest)

    def digests(self) -> list[str]:
        """Union of object digests across all member stores."""
        union: set[str] = set()
        for member in self.stores:
            union.update(member.digests())
        return sorted(union)

    def replica_status(self, digest: str) -> ReplicaStatus:
        states: dict[str, str] = {}
        for member in self.stores:
            if not member.exists(digest):
                states[member.name] = MISSING
            elif member.verify(digest):
                states[member.name] = OK
            else:
                states[member.name] = CORRUPT
        return ReplicaStatus(digest, states)

    def survey(self, digests: Sequence[str] | None = None
               ) -> tuple[list[ReplicaStatus], int]:
        """Every object's health (or that of ``digests``) plus the bytes
        its stored copies hold, from one
        :meth:`~repro.storage.cas.ContentAddressedStore.fixity_scan` per
        member store."""
        scans = {
            member.name: {digest: (size, intact)
                          for digest, size, intact in member.fixity_scan()}
            for member in self.stores
        }
        catalog = list(digests) if digests is not None \
            else sorted(set().union(*scans.values()))
        statuses: list[ReplicaStatus] = []
        stored_bytes = 0
        for digest in catalog:
            states: dict[str, str] = {}
            for name, found in scans.items():
                entry = found.get(digest)
                if entry is None:
                    states[name] = MISSING
                else:
                    states[name] = OK if entry[1] else CORRUPT
                    stored_bytes += entry[0]
            statuses.append(ReplicaStatus(digest, states))
        return statuses, stored_bytes

    def replica_lag(self) -> dict[str, int]:
        """Per store: objects in the group the store lacks a *healthy*
        copy of (the repair backlog), from one scan per store."""
        # streams each scan rather than holding every store's (as
        # survey() does): after an ingest this runs at the memory peak
        catalog: set[str] = set()
        intact: dict[str, int] = {}
        for member in self.stores:
            intact[member.name] = 0
            for digest, __, ok in member.fixity_scan():
                catalog.add(digest)
                intact[member.name] += ok
        return {name: len(catalog) - count for name, count in intact.items()}

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------

    def repair(self, digest: str) -> list[RepairAction]:
        """Rebuild every corrupt/missing replica of ``digest`` from a
        healthy one.  Returns the actions taken (empty if intact)."""
        status = self.replica_status(digest)
        if status.intact:
            return []
        if not status.healthy_stores:
            raise QuorumError(
                f"object {digest[:12]}…: no healthy replica to repair "
                f"from ({len(status.missing_stores)} missing, "
                f"{len(status.corrupt_stores)} corrupt)",
                missing=tuple(status.missing_stores),
                corrupt=tuple(status.corrupt_stores),
                verified=0,
            )
        source = self.store(status.healthy_stores[0])
        payload = source.get_verified(digest)
        media_type = source.stat(digest).media_type
        actions: list[RepairAction] = []
        for name, state in sorted(status.states.items()):
            if state == OK:
                continue
            target = self.store(name)
            __, attempts, backoff = self._with_retry(
                lambda t=target: t.restore(digest, payload,
                                           media_type=media_type),
                f"restore on {name}",
            )
            actions.append(RepairAction(digest, name, source.name, state,
                                        attempts, backoff))
        return actions
