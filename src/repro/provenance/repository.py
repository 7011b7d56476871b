"""The Data Provenance Repository (Fig. 1).

Persists, per workflow run:

* the execution trace, as a *skeleton* (JSON) whose port values —
  ``inputs``, ``outputs`` and every binding's ``value`` — are replaced
  by the SHA-256 digests of their canonical JSON,
* each distinct port value once, by that digest, in the repository's
  values store (a :class:`~repro.storage.cas.ContentAddressedStore` on
  the same database),
* the OPM graph (JSON),
* the workflow description it ran against (JSON, optional),

on the storage engine, and offers the queries the Data Quality Manager
needs: the graph for a run, the runs of a workflow, and the quality
annotations of the processes involved in producing an output.

A run's curated metadata crosses several ports (the workflow input,
the reader's ``records`` port, ...), so the same value would otherwise
be serialized once per port; stored by digest it is encoded, hashed and
kept once, and a warm re-run with identical inputs adds no value rows.

Every stored run is also ingested — transparently, on the same
database — into the archival
:class:`~repro.provenance.store.ProvenanceStore`, so cross-run lineage
(``ancestors``/``descendants`` of an artifact, cache-replay chains,
"which vault objects derive from run X") is answered by interned
columnar indexes instead of re-parsing every graph.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterator, Mapping

from repro.errors import ProvenanceError
from repro.hashing import canonical_json, sha256_hex
from repro.provenance.opm import OPMGraph
from repro.provenance.serialization import graph_from_json, graph_to_json
from repro.provenance.store import ProvenanceStore
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.storage.cas import ContentAddressedStore, PutItem
from repro.storage.query import Aggregate
from repro.workflow.model import Workflow
from repro.workflow.serialization import workflow_from_json, workflow_to_json
from repro.workflow.trace import WorkflowTrace

__all__ = ["ProvenanceRepository", "trace_from_skeleton"]

_RUNS = "provenance_runs"


class ProvenanceRepository:
    """Run-indexed provenance storage on a :class:`~repro.storage.Database`.

    Parameters
    ----------
    database:
        Storage engine; a fresh in-memory one when omitted.
    store:
        The attached archival store: an existing
        :class:`~repro.provenance.store.ProvenanceStore` to share; by
        default (``None`` or ``True``) one on the same database.
    """

    def __init__(self, database: Database | None = None,
                 store: ProvenanceStore | bool | None = None) -> None:
        self.database = database or Database("provenance_repository")
        if not self.database.has_table(_RUNS):
            self.database.create_table(TableSchema(_RUNS, [
                Column("run_id", ct.TEXT),
                Column("workflow_name", ct.TEXT, nullable=False),
                Column("status", ct.TEXT, nullable=False),
                Column("started", ct.DATETIME),
                Column("finished", ct.DATETIME),
                Column("trace", ct.TEXT, nullable=False),
                Column("graph", ct.TEXT, nullable=False),
                Column("workflow", ct.TEXT),
            ], primary_key="run_id"))
            self.database.create_index(_RUNS, "workflow_name", "hash")
        #: every run's port values, keyed by digest, on the same
        #: database (so journaling and recovery cover them)
        self.values = ContentAddressedStore("provenance-values",
                                            self.database)
        self.store = (store if isinstance(store, ProvenanceStore)
                      else ProvenanceStore(self.database))
        #: next number :meth:`claim_run_id` tries, per id prefix
        self._next_number: dict[str, int] = {}
        self._claim_lock = threading.Lock()
        self._sync_store()

    def _sync_store(self) -> None:
        """Re-index runs persisted here but absent from the store —
        the rebuild path after reattaching to a recovered database
        (tail runs are not persisted as segments; their graphs are)."""
        if self.store.run_count() >= self.database.count(_RUNS):
            return
        missing = (
            (row["run_id"], graph_from_json(row["graph"]))
            for row in self.database.query(_RUNS).select(
                "run_id", "graph").order_by("run_id").all()
            if not self.store.has_run(row["run_id"])
        )
        self.store.ingest_repository_rows(missing)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def store_run(self, trace: WorkflowTrace, graph: OPMGraph,
                  workflow: Workflow | None = None) -> None:
        """Persist one run.  Storing the same run id twice replaces it
        (re-capture after a retry).

        The run's distinct values land in the values store first, in
        one :meth:`~repro.storage.cas.ContentAddressedStore.put_many`,
        then the skeleton row that references them: an interrupted
        capture can leave unreferenced values behind, never a skeleton
        whose values are missing.
        """
        skeleton, items, sizes = _split_values(trace)
        stored = self.values.put_many(items)
        document = json.dumps(skeleton, sort_keys=True, default=str)
        graph_document = graph_to_json(graph)
        row = {
            "run_id": trace.run_id,
            "workflow_name": trace.workflow_name,
            "status": trace.status,
            "started": trace.started,
            "finished": trace.finished,
            "trace": document,
            "graph": graph_document,
            "workflow": None if workflow is None
            else workflow_to_json(workflow, indent=None),
        }
        existing = self.database.query(_RUNS).where(
            col("run_id") == trace.run_id
        ).first()
        if existing is None:
            self.database.insert(_RUNS, row)
        else:
            rowid = self.database.rowid_for(_RUNS, trace.run_id)
            self.database.update(_RUNS, rowid, row)
        # append-only archive: a re-capture keeps the first
        # archived skeleton (ingest_graph counts the skip)
        self.store.ingest_graph(trace.run_id, graph)

        metrics = self.store.telemetry.metrics
        new_bytes = sum(size for size, new in zip(sizes, stored) if new)
        for part, size in (("skeleton", len(document.encode("utf-8"))),
                           ("values", new_bytes),
                           ("graph", len(graph_document.encode("utf-8")))):
            metrics.counter("provenance_run_bytes_total", part=part).inc(
                size)
        occurrences = sum(1 for __ in _value_digests(skeleton))
        metrics.counter("provenance_values_deduplicated_total").inc(
            occurrences - sum(stored))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def run_ids(self, workflow_name: str | None = None) -> list[str]:
        query = self.database.query(_RUNS)
        if workflow_name is not None:
            query = query.where(col("workflow_name") == workflow_name)
        return sorted(query.values("run_id"))

    def claim_run_id(self, prefix: str, workflow_name: str) -> str:
        """A new ``<prefix>-NNNN`` id for a run of ``workflow_name``.

        Numbers per prefix only move forward.  The first claim starts
        after the workflow's stored runs (one indexed count), and every
        candidate already stored is stepped over, so concurrent passes,
        several engines and earlier sessions never share an id.
        """
        with self._claim_lock:
            number = self._next_number.get(prefix)
            if number is None:
                number = 1 + self.database.query(_RUNS).where(
                    col("workflow_name") == workflow_name).count()
            while self.has_run(f"{prefix}-{number:04d}"):
                number += 1
            self._next_number[prefix] = number + 1
            return f"{prefix}-{number:04d}"

    def run_counts(self) -> dict[str, int]:
        """``{workflow name: stored runs}``, in workflow-name order."""
        rows = self.database.query(_RUNS).group_by(
            "workflow_name", aggregates=[Aggregate("count", alias="runs")])
        return {row["workflow_name"]: row["runs"] for row in rows}

    def has_run(self, run_id: str) -> bool:
        """Primary-key membership probe (no run-list materialization)."""
        return self.database.query(_RUNS).where(
            col("run_id") == run_id
        ).first() is not None

    def run_count(self) -> int:
        """How many runs are archived — read from the store manifest,
        so no table scan is ever needed."""
        counts = self.store.manifest_counts()
        if "runs_total" in counts:
            return int(counts["runs_total"])
        return self.database.count(_RUNS)

    def runs_for_artifact(self, artifact_id: str) -> list[str]:
        """Every run whose OPM graph mentions ``artifact_id``, from the
        store's backward (artifact -> runs) index."""
        return self.store.runs_for_artifact(artifact_id)

    def latest_run_id(self, workflow_name: str) -> str | None:
        ids = self.run_ids(workflow_name)
        return ids[-1] if ids else None

    def _row(self, run_id: str) -> dict[str, Any]:
        row = self.database.query(_RUNS).where(
            col("run_id") == run_id
        ).first()
        if row is None:
            raise ProvenanceError(f"no provenance for run {run_id!r}")
        return row

    def graph_for(self, run_id: str) -> OPMGraph:
        return graph_from_json(self._row(run_id)["graph"])

    def trace_for(self, run_id: str) -> WorkflowTrace:
        """The run's trace, rebuilt from its skeleton and values: its
        ``to_dict()`` equals a JSON round trip of the captured trace's.
        Each value is decoded once, so ports that carried the same
        value share one object; treat trace values as read-only."""
        skeleton = json.loads(self._row(run_id)["trace"])
        return trace_from_skeleton(skeleton, self._values_for(skeleton))

    def _values_for(self, skeleton: Mapping[str, Any]) -> dict[str, Any]:
        """``{digest: decoded value}`` for every value ``skeleton``
        references, each decoded once."""
        return {digest: json.loads(self.values.get(digest))
                for digest in dict.fromkeys(_value_digests(skeleton))}

    def package_run(self, run_id: str) -> dict[str, Any]:
        """One run as a level-4 preservation package keeps it: the
        skeleton trace, every value it references (once) and the OPM
        graph — self-contained, so :func:`trace_from_skeleton` rebuilds
        the trace from the entry alone."""
        row = self._row(run_id)
        skeleton = json.loads(row["trace"])
        return {
            "trace": skeleton,
            "values": self._values_for(skeleton),
            "graph": graph_from_json(row["graph"]).to_dict(),
        }

    def workflow_for(self, run_id: str) -> Workflow | None:
        document = self._row(run_id)["workflow"]
        if document is None:
            return None
        return workflow_from_json(document)

    def runs(self, workflow_name: str | None = None) -> Iterator[dict[str, Any]]:
        """Run metadata rows (no heavy payloads)."""
        query = self.database.query(_RUNS).select(
            "run_id", "workflow_name", "status", "started", "finished"
        )
        if workflow_name is not None:
            query = query.where(col("workflow_name") == workflow_name)
        yield from query.order_by("run_id").all()

    # ------------------------------------------------------------------
    # quality-oriented queries
    # ------------------------------------------------------------------

    def process_annotations(self, run_id: str) -> dict[str, dict[str, Any]]:
        """``{processor label: quality annotation dict}`` for a run.

        Only processes that actually carry a ``quality`` annotation appear.
        This is the provenance-side half of the paper's quality assessment:
        the reputation/availability the Workflow Adapter attached travel
        with the provenance, not with the data.
        """
        graph = self.graph_for(run_id)
        result: dict[str, dict[str, Any]] = {}
        for process in graph.nodes("process"):
            quality = process.annotations.get("quality")
            if quality:
                result[process.label] = dict(quality)
        return result

    def __len__(self) -> int:
        return self.database.count(_RUNS)


# ----------------------------------------------------------------------
# skeletons: traces with their port values replaced by digests
# ----------------------------------------------------------------------

def _split_values(trace: WorkflowTrace
                  ) -> tuple[dict[str, Any], list[PutItem], list[int]]:
    """``trace.to_dict()`` with every port value replaced by its digest,
    plus the ``(digest, canonical JSON, media type)`` items of the
    distinct values and their sizes in bytes.

    A value object is encoded once however many ports carried it
    (memoised by identity — the trace keeps every value alive for the
    call), and equal values encoded apart share one item.
    """
    digests: dict[int, str] = {}
    items: dict[str, PutItem] = {}
    sizes: list[int] = []

    def digest_of(value: Any) -> str:
        digest = digests.get(id(value))
        if digest is None:
            payload = canonical_json(value)
            data = payload.encode("utf-8")
            digest = sha256_hex(data)
            digests[id(value)] = digest
            if digest not in items:
                items[digest] = (digest, payload, "application/json")
                sizes.append(len(data))
        return digest

    skeleton = trace.to_dict()
    for key in ("inputs", "outputs"):
        skeleton[key] = {port: digest_of(value)
                         for port, value in skeleton[key].items()}
    for binding in skeleton["bindings"]:
        binding["value"] = digest_of(binding["value"])
    return skeleton, list(items.values()), sizes


def _value_digests(skeleton: Mapping[str, Any]) -> Iterator[str]:
    yield from skeleton["inputs"].values()
    yield from skeleton["outputs"].values()
    for binding in skeleton["bindings"]:
        yield binding["value"]


def trace_from_skeleton(skeleton: Mapping[str, Any],
                        values: Mapping[str, Any]) -> WorkflowTrace:
    """Rebuild a trace from a stored skeleton and ``{digest: value}`` —
    read from the repository by :meth:`ProvenanceRepository.trace_for`,
    or taken from a level-4 package's run entry.  ``skeleton`` is left
    as it was."""
    data = dict(skeleton)
    for key in ("inputs", "outputs"):
        data[key] = {port: values[digest]
                     for port, digest in skeleton[key].items()}
    data["bindings"] = [{**binding, "value": values[binding["value"]]}
                        for binding in skeleton["bindings"]]
    return WorkflowTrace.from_dict(data)
