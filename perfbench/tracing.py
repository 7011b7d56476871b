"""Timing shims around the program's public functions, installed from
the benchmark's own files (nothing under ``src/`` changes).

:func:`install` wraps each boundary in :data:`BOUNDARIES` with a shim
that, while the :class:`Recorder` is active, records one span per call:
``(span id, parent span id, name, start, end, run id, thread)``.  Spans
stay in memory and are written as JSON lines at the end
(:meth:`Recorder.write_jsonl`).  A span's *self time* is its duration
minus the time its child spans cover; a layer is the part of a span
name before the first dot, and the harness's own root spans form the
``bench`` layer, reported as unattributed time.  Summing layer self
times therefore gives exactly the summed duration of the root spans.

Program counters come from the public ``get_telemetry().metrics``
registry (reset before the traced phase); a few byte counts are taken
by the shims themselves (see :data:`BOUNDARIES`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["BOUNDARIES", "Recorder", "install", "layer_metrics"]


def _rows_returned(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.add("rows_returned", len(result) if isinstance(result, list) else 1)


def _trace_bytes(rec: "Recorder", args: tuple, result: Any) -> None:
    repository, trace = args[0], args[1]
    with rec.paused():
        row = repository.database.get("provenance_runs", trace.run_id)
    rec.add("trace_bytes", len(row["trace"].encode("utf-8")))


def _cas_bytes(rec: "Recorder", args: tuple, result: Any) -> None:
    rec.add("cas_bytes", len(args[1].encode("utf-8")))


def _journal_size(args: tuple) -> int:
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _submit_name(args: tuple) -> str:
    return f"service.submit.{args[1].op}"


#: ``(module, attribute path, span name, options)``; options are
#: ``after`` (hook run on the result outside the span's timing),
#: ``name_fn`` (span name from the call's arguments) and ``size`` (a
#: file-size probe: growth, calls and seconds are accumulated during the
#: run phase only, so a set-up's bulk load does not swamp them)
BOUNDARIES: list[tuple[str, str, str, dict[str, Any]]] = [
    ("repro.sounds.generator", "generate_collection", "sounds.generate", {}),
    ("repro.sounds.record", "SoundRecord.from_row", "sounds.from_row", {}),
    ("repro.storage.query", "Query._execute", "storage.query",
     {"after": _rows_returned}),
    ("repro.storage.query", "Query.count", "storage.query",
     {"after": _rows_returned}),
    ("repro.storage.query", "Query.aggregate", "storage.query",
     {"after": _rows_returned}),
    ("repro.storage.query", "Query.group_by", "storage.query",
     {"after": _rows_returned}),
    ("repro.storage.database", "Database.get", "storage.lookup", {}),
    ("repro.storage.database", "Database.rowid_for", "storage.lookup", {}),
    ("repro.storage.database", "Database.snapshot", "storage.snapshot", {}),
    *[("repro.storage.database", f"Database.{method}", "storage.write", {})
      for method in ("insert", "insert_many", "bulk_load", "update",
                     "delete", "update_where", "delete_where",
                     "create_table", "create_index")],
    ("repro.storage.transactions", "Transaction.commit", "storage.write",
     {}),
    ("repro.storage.journal", "Journal.append", "storage.journal",
     {"size": _journal_size}),
    ("repro.storage.journal", "Journal.append_many", "storage.journal",
     {"size": _journal_size}),
    ("repro.taxonomy.catalogue", "CatalogueOfLife.__init__",
     "taxonomy.build", {}),
    ("repro.taxonomy.catalogue", "CatalogueOfLife.resolve",
     "taxonomy.resolve", {}),
    ("repro.geo.gazetteer", "Gazetteer.__init__", "geo.build", {}),
    ("repro.geo.climate", "ClimateArchive.__init__", "geo.build", {}),
    ("repro.taxonomy.service", "CatalogueService.lookup",
     "taxonomy.lookup", {}),
    ("repro.curation.cleaning", "MetadataCleaner.run", "curation.cleaning",
     {}),
    ("repro.curation.geocoding", "Geocoder.run", "curation.geocoding", {}),
    ("repro.curation.enrichment", "EnvironmentalEnricher.run",
     "curation.enrichment", {}),
    ("repro.curation.species_check", "SpeciesNameChecker.run",
     "curation.species_check", {}),
    ("repro.curation.history", "CurationHistory.changes",
     "curation.history", {}),
    ("repro.workflow.engine", "WorkflowEngine.run", "workflow.run", {}),
    ("repro.workflow.cache", "invocation_key", "workflow.invocation_key",
     {}),
    ("repro.provenance.manager", "ProvenanceManager.build_graph",
     "provenance.build_graph", {}),
    ("repro.provenance.repository", "ProvenanceRepository.store_run",
     "provenance.store_run", {"after": _trace_bytes}),
    ("repro.provenance.repository", "ProvenanceRepository.trace_for",
     "provenance.trace_for", {}),
    ("repro.provenance.store.store", "ProvenanceStore.ingest_graph",
     "provenance.store_ingest", {}),
    ("repro.core.manager", "DataQualityManager.assess_species_check_run",
     "core.assess", {}),
    ("repro.archive.vault", "PreservationVault.ingest", "archive.ingest",
     {}),
    ("repro.archive.vault", "PreservationVault.verify", "archive.verify",
     {}),
    ("repro.archive.cas", "ContentAddressedStore.put", "archive.cas_put",
     {"after": _cas_bytes}),
    ("repro.service.facade", "PreservationService.submit", "service.submit",
     {"name_fn": _submit_name}),
    ("repro.service.admission", "AdmissionController.acquire",
     "service.admission", {}),
    ("repro.streaming.stream", "ObservationStream.ingest",
     "streaming.ingest", {}),
    ("repro.streaming.incremental", "IncrementalCurator.assess",
     "streaming.assess", {}),
    ("repro.streaming.incremental", "IncrementalCurator.__init__",
     "streaming.build", {}),
    ("repro.streaming.incremental", "IncrementalCurator.mark_dirty",
     "streaming.mark_dirty", {}),
    ("repro.streaming.incremental", "IncrementalCurator.bump_resource",
     "streaming.bump_resource", {}),
]


class Recorder:
    """In-memory span sink shared by every shim."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.active = False
        #: "setup" while the harness builds inputs, else "run"
        self.phase = "run"
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside are not recorded (this thread only)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def recording(self) -> bool:
        return self.active and not getattr(self._local, "paused", False)

    def _open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, perf_counter()

    def _close(self, name: str, span_id: int, parent: int | None,
               start: float) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end,
                           getattr(self._local, "run_id", self.run_id),
                           threading.get_ident()))

    def call(self, name: str, fn: Callable, args: tuple,
             kwargs: dict) -> Any:
        opened = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, *opened)

    @contextmanager
    def span(self, name: str, run_id: str | None = None) -> Iterator[None]:
        """A harness span (``bench.*``); ``run_id`` tags every span
        opened inside it on this thread."""
        previous = getattr(self._local, "run_id", self.run_id)
        if run_id is not None:
            self._local.run_id = run_id
        try:
            if not self.recording():
                yield
                return
            opened = self._open()
            try:
                yield
            finally:
                self._close(name, *opened)
        finally:
            self._local.run_id = previous

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def per_name(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over every span."""
        child_time: dict[int, float] = {}
        for __, parent, __, start, end, __, __ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        stats: dict[str, dict[str, float]] = {}
        for span_id, __, name, start, end, __, __ in self.spans:
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time.get(span_id, 0.0)
        return stats

    def root_seconds(self) -> float:
        return sum(end - start for __, parent, __, start, end, __, __
                   in self.spans if parent is None)

    def layer_table(self) -> list[tuple[str, float]]:
        """``(layer, self seconds)`` rows, largest first, with the
        harness's own ``bench`` layer last as ``unattributed``."""
        layers: dict[str, float] = {}
        for name, entry in self.per_name().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        unattributed = layers.pop("bench", 0.0)
        rows = sorted(layers.items(), key=lambda item: -item[1])
        return rows + [("unattributed", unattributed)]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, run_id, thread in \
                    self.spans:
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "run_id": run_id, "thread": thread,
                }) + "\n")


def _shim(rec: Recorder, fn: Callable, name: str,
          options: dict[str, Any]) -> Callable:
    after = options.get("after")
    name_fn = options.get("name_fn")
    size = options.get("size")

    def shim(*args: Any, **kwargs: Any) -> Any:
        if not rec.recording():
            return fn(*args, **kwargs)
        before = size(args) if size else 0
        started = perf_counter()
        result = rec.call(name_fn(args) if name_fn else name, fn, args,
                          kwargs)
        if size and rec.phase == "run":
            rec.add(f"{name}.seconds", perf_counter() - started)
            rec.add(f"{name}.bytes", size(args) - before)
            rec.add(f"{name}.calls", 1)
        if after:
            after(rec, args, result)
        return result

    return functools.wraps(fn)(shim)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every boundary; returns a function that restores them."""
    undo: list[Callable[[], None]] = []
    for module_name, path, name, options in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_shim(rec, raw.__func__, name, options))
            else:
                wrapped = _shim(rec, raw, name, options)
            setattr(owner, attr, wrapped)
            undo.append(lambda owner=owner, attr=attr, raw=raw:
                        setattr(owner, attr, raw))
            continue
        # a module-level function is also bound by name in every module
        # that imported it: rebind each of those references
        original = getattr(module, path)
        wrapped = _shim(rec, original, name, options)
        for holder in list(sys.modules.values()):
            if getattr(holder, path, None) is original:
                setattr(holder, path, wrapped)
                undo.append(lambda holder=holder, attr=path,
                            original=original:
                            setattr(holder, attr, original))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()
    return uninstall


def layer_metrics(rec: Recorder, metrics: Any,
                  records: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name.

    ``metrics`` is the program's telemetry registry; ``records`` the
    number of collection records the run curated (the base of
    ``curation.history_queries_per_record``).
    """
    stats = rec.per_name()
    counts = rec.counts

    def calls(name: str) -> float:
        return stats.get(name, {}).get("calls", 0)

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def labelled(name: str, **labels: str) -> float:
        return sum(
            series.value for series in metrics.series(name)
            if all(dict(series.labels).get(key) == value
                   for key, value in labels.items()))

    cache_hits = metrics.total("engine_cache_hits_total")
    cache_misses = metrics.total("engine_cache_misses_total")
    recomputed = metrics.total("streaming_shards_recomputed_total")
    reused = metrics.total("streaming_shards_reused_total")
    return {
        "sounds.generate_s": total("sounds.generate"),
        "sounds.from_row_calls": calls("sounds.from_row"),
        "storage.query_calls": calls("storage.query"),
        "storage.query_self_s": self_s("storage.query"),
        "storage.rows_scanned_per_row_returned": ratio(
            metrics.total("storage_rows_scanned_total"),
            counts.get("rows_returned", 0)),
        "storage.full_scans": metrics.total("storage_full_scans_total"),
        "storage.write_self_s": self_s("storage.write"),
        "storage.journal_append_s": counts.get("storage.journal.seconds", 0.0),
        "storage.journal_bytes_per_commit": ratio(
            counts.get("storage.journal.bytes", 0),
            counts.get("storage.journal.calls", 0)),
        "taxonomy.resolve_calls": calls("taxonomy.resolve"),
        "taxonomy.resolve_self_s": self_s("taxonomy.resolve"),
        "taxonomy.memo_hit_ratio": ratio(
            labelled("taxonomy_cache_hits_total", cache="catalogue_resolve"),
            calls("taxonomy.resolve")),
        "taxonomy.service_failures": labelled("service_calls_total",
                                              outcome="failure"),
        "curation.cleaning_s": total("curation.cleaning"),
        "curation.geocoding_s": total("curation.geocoding"),
        "curation.enrichment_s": total("curation.enrichment"),
        "curation.species_check_s": total("curation.species_check"),
        "curation.history_queries_per_record": ratio(
            calls("curation.history"), records),
        "workflow.run_calls": calls("workflow.run"),
        "workflow.run_self_s": self_s("workflow.run"),
        "workflow.cache_hit_ratio": ratio(cache_hits,
                                          cache_hits + cache_misses),
        "workflow.invocation_key_s": total("workflow.invocation_key"),
        "provenance.store_run_calls": calls("provenance.store_run"),
        "provenance.store_run_self_s": self_s("provenance.store_run"),
        "provenance.trace_bytes_per_run": ratio(
            counts.get("trace_bytes", 0), calls("provenance.store_run")),
        "provenance.trace_for_calls": calls("provenance.trace_for"),
        "provenance.trace_for_s": total("provenance.trace_for"),
        "provenance.store_ingest_s": total("provenance.store_ingest"),
        "core.assess_s": total("core.assess"),
        "archive.ingest_s": total("archive.ingest"),
        "archive.cas_put_calls": calls("archive.cas_put"),
        "archive.cas_put_self_s": self_s("archive.cas_put"),
        "archive.stored_bytes_per_logical_byte": ratio(
            counts.get("cas_bytes", 0),
            metrics.total("vault_bytes_ingested_total")),
        "archive.verify_s": total("archive.verify"),
        "archive.audit_bytes_per_s": ratio(
            metrics.total("vault_bytes_audited_total"),
            total("archive.verify")),
        "service.admission_wait_s": total("service.admission"),
        "service.submit_self_s.query": self_s("service.submit.query"),
        "service.submit_self_s.ingest": self_s("service.submit.ingest"),
        "service.submit_self_s.audit": self_s("service.submit.audit"),
        "service.conflict_retries": metrics.total(
            "service_conflict_retries_total"),
        "service.rejected": labelled("service_requests_total",
                                     outcome="rejected"),
        "streaming.ingest_s": total("streaming.ingest"),
        "streaming.assess_self_s": self_s("streaming.assess"),
        "streaming.shards_recomputed_ratio": ratio(recomputed,
                                                   recomputed + reused),
    }
