"""Batched ingest against a per-object reference.

``PreservationVault.ingest`` writes each replica with one
``ContentAddressedStore.put_many`` and upserts the manifest in one
batch.  :func:`sequential_ingest` is the per-object path it replaced —
one existence probe on the first store, one ``ReplicaGroup.put`` and one
manifest upsert per object, replica lag from ``verify()`` per digest —
and every case below must leave both vaults in the same observable
state: store rows, manifest rows, the ``IngestReport``, ``vault_*``
metrics and replica lag.
"""

import pytest

from repro.archive import PreservationVault
from repro.archive.cas import ContentAddressedStore
from repro.archive.replicas import ReplicaGroup
from repro.archive.vault import _SIZE_BUCKETS
from repro.core.preservation import PreservationLevel, archive_collection
from repro.errors import ArchiveError
from repro.hashing import canonical_json, sha256_hex
from repro.storage import Database, col
from repro.telemetry import Telemetry

from tests.archive.conftest import build_tiny_collection

LEVELS = (PreservationLevel.DOCUMENTATION,
          PreservationLevel.SIMPLIFIED_DATA,
          PreservationLevel.FULL_REPRODUCTION)


def _verify_lag(group):
    catalog = group.digests()
    return {member.name: sum(1 for digest in catalog
                             if not member.verify(digest))
            for member in group.stores}


def sequential_ingest(vault, collection, level):
    """The per-object reference ingest; returns ``IngestReport.to_dict()``."""
    level = PreservationLevel(level)
    metrics = vault.telemetry.metrics
    package = archive_collection(collection, level)
    report = {"collection": collection.name, "level": int(level),
              "records": 0, "new_objects": 0, "deduplicated": 0,
              "logical_bytes": 0}

    def store(payload, object_id, kind, fmt):
        known = vault.group.stores[0].exists(sha256_hex(payload))
        digest = vault.group.put(payload)
        size = len(payload.encode("utf-8"))
        if known:
            report["deduplicated"] += 1
            metrics.counter("vault_objects_deduplicated_total").inc()
        else:
            report["new_objects"] += 1
            report["logical_bytes"] += size
            metrics.counter("vault_objects_ingested_total", kind=kind).inc()
            metrics.counter("vault_bytes_ingested_total").inc(size)
            metrics.histogram("vault_object_bytes",
                              buckets=_SIZE_BUCKETS).observe(size)
        row = {"object_id": object_id, "digest": digest, "kind": kind,
               "collection": collection.name, "level": int(level),
               "format": fmt, "source_digest": None, "superseded": 0}
        existing = vault.catalog.query("vault_manifest").where(
            col("object_id") == object_id).first()
        if existing is None:
            vault.catalog.insert("vault_manifest", row)
        else:
            vault.catalog.update(
                "vault_manifest",
                vault.catalog.rowid_for("vault_manifest", object_id), row)
        return digest

    report["package_digest"] = store(
        canonical_json({"subject": package.subject, "level": int(level),
                        "contents": package.contents}),
        f"package/{collection.name}/level{int(level)}", "package", None)
    rows = package.contents.get(
        "records", package.contents.get("simplified_records", ()))
    for row in rows:
        report["records"] += 1
        store(canonical_json(row),
              f"record/{collection.name}/{row['record_id']}", "record",
              row.get("sound_file_format"))
    for name, lag in _verify_lag(vault.group).items():
        metrics.gauge("vault_replica_lag", store=name).set(lag)
    return report


def _store_rows(store):
    return store.database.query("cas_objects").order_by("digest").all()


def _state(vault):
    return {
        "stores": {store.name: _store_rows(store)
                   for store in vault.group.stores},
        "manifest": vault.catalog.query("vault_manifest")
        .order_by("object_id").all(),
        "metrics": {series: value for series, value
                    in vault.telemetry.metrics.snapshot().items()
                    if series.startswith("vault_")},
        "lag": vault.group.replica_lag(),
    }


def _pair():
    return (PreservationVault("v", telemetry=Telemetry()),
            PreservationVault("v", telemetry=Telemetry()))


def _assert_same(batched, reference, got, want):
    assert got == want
    assert _state(batched) == _state(reference)
    assert batched.group.replica_lag() == _verify_lag(batched.group)


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: f"level{int(lv)}")
class TestIngestDifferential:
    def test_fresh_ingest(self, level):
        batched, reference = _pair()
        collection = build_tiny_collection()
        got = batched.ingest(collection, level).to_dict()
        want = sequential_ingest(reference, collection, level)
        _assert_same(batched, reference, got, want)
        assert got["deduplicated"] == 0

    def test_reingest_deduplicates_everything(self, level):
        batched, reference = _pair()
        collection = build_tiny_collection()
        batched.ingest(collection, level)
        sequential_ingest(reference, collection, level)
        got = batched.ingest(collection, level).to_dict()
        want = sequential_ingest(reference, collection, level)
        _assert_same(batched, reference, got, want)
        assert got["new_objects"] == 0
        assert all(row["refs"] == 2
                   for row in _store_rows(batched.group.stores[0]))

    @pytest.mark.parametrize("store_index", [0, 1])
    def test_corrupt_replica_before_reingest(self, level, store_index):
        batched, reference = _pair()
        collection = build_tiny_collection()
        batched.ingest(collection, level)
        sequential_ingest(reference, collection, level)
        for vault in (batched, reference):
            vault.inject_corruption(store_index=store_index)
        got = batched.ingest(collection, level).to_dict()
        want = sequential_ingest(reference, collection, level)
        _assert_same(batched, reference, got, want)
        lag = batched.group.replica_lag()
        assert lag[f"v-r{store_index}"] == 1  # ingest does not repair

    @pytest.mark.parametrize("store_index", [0, 2])
    def test_replica_missing_an_object(self, level, store_index):
        batched, reference = _pair()
        collection = build_tiny_collection()
        batched.ingest(collection, level)
        sequential_ingest(reference, collection, level)
        for vault in (batched, reference):
            digest = vault.manifest()[0]["digest"]
            vault.group.stores[store_index].drop(digest)
        assert batched.group.replica_lag()[f"v-r{store_index}"] == 1
        got = batched.ingest(collection, level).to_dict()
        want = sequential_ingest(reference, collection, level)
        _assert_same(batched, reference, got, want)
        # the re-put restores the dropped copy with a fresh refcount
        assert batched.group.replica_lag()[f"v-r{store_index}"] == 0


class TestPutManyDifferential:
    def _items(self, payloads):
        return [(sha256_hex(p), p, "text/plain") for p in payloads]

    def test_duplicates_within_one_batch(self):
        payloads = ["a", "b", "a", "c", "a", "b"]
        batched = ReplicaGroup([ContentAddressedStore(f"r{i}")
                                for i in range(3)])
        reference = ReplicaGroup([ContentAddressedStore(f"r{i}")
                                  for i in range(3)])
        reference.put("b", media_type="text/plain")
        batched.put("b", media_type="text/plain")

        stored = batched.put_many(self._items(payloads))
        known = []
        for payload in payloads:
            known.append(reference.stores[0].exists(sha256_hex(payload)))
            reference.put(payload, media_type="text/plain")

        assert stored == [not k for k in known]
        assert stored == [True, False, False, True, False, False]
        for got, want in zip(batched.stores, reference.stores):
            assert _store_rows(got) == _store_rows(want)
        refs = {row["payload"]: row["refs"]
                for row in _store_rows(batched.stores[0])}
        assert refs == {"a": 3, "b": 3, "c": 1}

    def test_first_media_type_wins(self):
        store = ContentAddressedStore("s")
        digest = sha256_hex("x")
        store.put_many([(digest, "x", "text/plain"),
                        (digest, "x", "application/json")])
        assert store.stat(digest).media_type == "text/plain"
        assert store.stat(digest).refs == 2

    def test_empty_batch(self):
        group = ReplicaGroup([ContentAddressedStore("r0")])
        assert group.put_many([]) == []
        assert len(group.stores[0]) == 0


class FlakyBatchStore(ContentAddressedStore):
    """Fails the first ``failures`` batch writes with a transient error."""

    def __init__(self, name, failures):
        super().__init__(name)
        self.failures = failures
        self.calls = 0

    def put_many(self, items):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise ArchiveError(f"{self.name}: transient I/O error")
        return super().put_many(items)


class FailingUpdateDatabase(Database):
    """Raises a transient error on the ``fail_at``-th update (1-based),
    after earlier statements of the same batch already ran."""

    def __init__(self, name):
        super().__init__(name)
        self.fail_at = None
        self.updates = 0

    def update(self, table_name, rowid, changes):
        self.updates += 1
        if self.fail_at is not None and self.updates == self.fail_at:
            self.fail_at = None
            raise ArchiveError("transient write error")
        return super().update(table_name, rowid, changes)


class TestBatchRetry:
    def test_transient_failure_is_retried_and_refs_are_exact(self):
        flaky = FlakyBatchStore("r1", failures=0)
        group = ReplicaGroup([ContentAddressedStore("r0"), flaky],
                             backoff_base_seconds=0.05)
        group.put_many([(sha256_hex("old"), "old", "text/plain")])
        flaky.failures, flaky.calls = 2, 0
        items = [(sha256_hex(p), p, "text/plain")
                 for p in ("old", "new", "new")]
        calls = []
        original = group._with_retry

        def spy(action, what):
            result = original(action, what)
            calls.append((what, result[1], result[2]))
            return result

        group._with_retry = spy
        assert group.put_many(items) == [False, True, False]
        assert flaky.calls == 3
        assert calls[1] == ("put on r1", 3, pytest.approx(0.15))
        for store in group.stores:
            refs = {row["payload"]: row["refs"] for row in _store_rows(store)}
            assert refs == {"old": 2, "new": 2}

    def test_permanent_failure_exhausts_attempts(self):
        group = ReplicaGroup([ContentAddressedStore("r0"),
                              FlakyBatchStore("r1", failures=99)],
                             max_attempts=3)
        with pytest.raises(ArchiveError, match="after 3 attempts"):
            group.put_many([(sha256_hex("x"), "x", "text/plain")])

    def test_failure_mid_batch_leaves_the_store_unchanged(self):
        database = FailingUpdateDatabase("cas:r0")
        store = ContentAddressedStore("r0", database)
        group = ReplicaGroup([store])
        for payload in ("a", "b"):
            group.put(payload)
        before = _store_rows(store)
        items = [(sha256_hex(p), p, "application/json")
                 for p in ("a", "fresh", "b")]
        database.fail_at = database.updates + 2  # the second refs bump
        with pytest.raises(ArchiveError):
            store.put_many(items)
        assert _store_rows(store) == before
        # under the group, the same fault is retried once, exactly
        database.fail_at = database.updates + 2
        assert group.put_many(items) == [False, True, False]
        refs = {row["payload"]: row["refs"] for row in _store_rows(store)}
        assert refs == {"a": 2, "b": 2, "fresh": 1}


class TestScanDifferential:
    """Sweep, lag and totals from one scan per store equal the
    per-digest probes (``replica_status``, ``exists``, ``stat``)."""

    @pytest.fixture()
    def damaged(self):
        vault = PreservationVault("d", telemetry=Telemetry())
        vault.ingest(build_tiny_collection(), PreservationLevel.ANALYSIS_LEVEL)
        digests = [row["digest"] for row in vault.manifest()]
        vault.group.stores[1].corrupt(digests[1])
        vault.group.stores[2].drop(digests[2])
        vault.group.stores[0].drop(digests[3])
        vault.group.stores[1].corrupt(digests[3])
        return vault, digests

    def _reference(self, group, catalog):
        states = [(digest, group.replica_status(digest).states)
                  for digest in catalog]
        audited = sum(member.stat(digest).size_bytes
                      for digest in catalog for member in group.stores
                      if member.exists(digest))
        return states, audited

    @pytest.mark.parametrize("subset", [False, True])
    def test_sweep(self, damaged, subset):
        vault, digests = damaged
        catalog = ([digests[3], "0" * 64, digests[0]] if subset
                   else vault.group.digests())
        report = vault.auditor.sweep(catalog if subset else None)
        states, audited = self._reference(vault.group, catalog)
        assert [(s.digest, s.states) for s in report.statuses] == states
        assert report.bytes_audited == audited
        assert len(report.corrupt) == (1 if subset else 2)

    def test_lag(self, damaged):
        vault, __ = damaged
        assert vault.group.replica_lag() == _verify_lag(vault.group)
        assert vault.group.replica_lag() == {"d-r0": 1, "d-r1": 2,
                                             "d-r2": 1}

    def test_store_totals(self, damaged):
        vault, __ = damaged
        for store in vault.group.stores:
            stats = [store.stat(digest) for digest in store.digests()]
            assert [o.to_dict() for o in store.objects()] == [
                s.to_dict() for s in stats]
            assert store.total_bytes() == sum(s.size_bytes for s in stats)
