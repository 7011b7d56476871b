"""The Outdated Species Name Detection Workflow (Fig. 3).

The five-step process of §IV-C, as an actual workflow on the engine:

1. experts add quality metadata to the workflow (via the
   :class:`~repro.core.adapter.WorkflowAdapter`);
2. the workflow receives the FNJV sound metadata as input;
3. it checks for outdated names using the Catalogue of Life external
   data source;
4. the Provenance Manager stores provenance from the data source,
   workflow description and execution logs;
5. the output is a summary of updated species names (Fig. 2).

Detected updates are persisted in a **separate table**
(``species_updates``) referencing the original record, flagged for
biologist review — the original collection is never touched.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.adapter import WorkflowAdapter
from repro.curation.history import CurationHistory
from repro.errors import InvalidNameError
from repro.provenance.manager import ProvenanceManager
from repro.sounds.collection import RECORDINGS, SoundCollection
from repro.storage import Column, ForeignKey, TableSchema, col
from repro.storage import column_types as ct
from repro.taxonomy.nomenclature import normalize_name
from repro.taxonomy.service import CatalogueService
from repro.telemetry import get_telemetry
from repro.workflow.cache import ResultCache
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow
from repro.workflow.trace import WorkflowTrace

__all__ = ["build_species_check_workflow", "SpeciesCheckResult",
           "SpeciesNameChecker", "UPDATES_TABLE"]

UPDATES_TABLE = "species_updates"

#: processor names, mirroring Fig. 3 / Listing 1
READER = "FNJV_metadata_reader"
CATALOGUE = "Catalog_of_life"
PERSISTER = "Update_persister"


def build_species_check_workflow() -> Workflow:
    """The workflow structure (behaviour is bound by the checker)."""
    workflow = Workflow(
        "outdated_species_name_detection",
        description=(
            "Detect FNJV species names that are no longer valid by "
            "contrasting them with the Catalogue of Life"
        ),
    )
    workflow.add_processor(Processor(
        READER, "metadata_reader",
        inputs=["records"],
        outputs=["names", "name_records", "records_processed"],
    ))
    workflow.add_processor(Processor(
        CATALOGUE, "catalogue_lookup",
        inputs=["names"],
        outputs=["resolutions", "service_stats"],
        # never memoize: the answer depends on the catalogue's knowledge
        # horizon and the (simulated) service's behaviour, neither of
        # which is part of the input digest
        config={"cacheable": False},
    ))
    workflow.add_processor(Processor(
        PERSISTER, "update_persister",
        inputs=["resolutions", "name_records", "records_processed"],
        outputs=["summary"],
        # never memoize: inserts rows into the species_updates table
        config={"cacheable": False},
    ))
    workflow.map_input("metadata", READER, "records")
    workflow.link(READER, "names", CATALOGUE, "names")
    workflow.link(CATALOGUE, "resolutions", PERSISTER, "resolutions")
    workflow.link(READER, "name_records", PERSISTER, "name_records")
    workflow.link(READER, "records_processed", PERSISTER,
                  "records_processed")
    workflow.map_output("summary", PERSISTER, "summary")
    workflow.map_output("service_stats", CATALOGUE, "service_stats")
    return workflow


class SpeciesCheckResult:
    """Output of one detection run — the Fig. 2 numbers."""

    def __init__(self, summary: Mapping[str, Any], run_id: str,
                 trace: WorkflowTrace) -> None:
        self.summary = dict(summary)
        self.run_id = run_id
        self.trace = trace

    @property
    def records_processed(self) -> int:
        return int(self.summary["records_processed"])

    @property
    def distinct_names(self) -> int:
        return int(self.summary["distinct_names"])

    @property
    def outdated_names(self) -> int:
        return int(self.summary["outdated_names"])

    @property
    def unresolved_names(self) -> int:
        return int(self.summary.get("unresolved_names", 0))

    @property
    def outdated_fraction(self) -> float:
        if self.distinct_names == 0:
            return 0.0
        return self.outdated_names / self.distinct_names

    @property
    def updated_names(self) -> dict[str, str]:
        """old name -> up-to-date name."""
        return dict(self.summary.get("updated_names", {}))

    def render(self) -> str:
        """A Fig. 2-style progress/result panel."""
        lines = [
            "Detection of outdated species names",
            "-" * 52,
            f"records processed:          {self.records_processed:>7,}",
            f"distinct species names:     {self.distinct_names:>7,}",
            f"outdated species names:     {self.outdated_names:>7,}"
            f"  ({self.outdated_fraction:.0%} of names analyzed)",
            f"unresolved (service down):  {self.unresolved_names:>7,}",
            "",
            "updated names (first 10):",
        ]
        for old, new in list(sorted(self.updated_names.items()))[:10]:
            lines.append(f"  {old}  ->  {new}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SpeciesCheckResult({self.outdated_names}/"
            f"{self.distinct_names} outdated, run {self.run_id})"
        )


class SpeciesNameChecker:
    """Wires the workflow to a collection, a catalogue service and the
    provenance stack, and runs it end to end.

    Parameters
    ----------
    collection:
        The collection to check.
    service:
        The (simulated) Catalogue of Life web service.
    engine:
        Shared engine; one is created when omitted.
    provenance:
        Attached :class:`ProvenanceManager` (created when omitted).
    history:
        When given, the reader consumes the *curated view* of each
        record (stage 1.1 fixes applied) instead of the raw originals.
    adapter:
        Used for step 1 — annotating the Catalogue processor with the
        service's declared reputation/availability.
    max_workers / result_cache:
        Forwarded to the engine created when ``engine`` is omitted:
        wave-parallel execution width and an optional shared
        :class:`~repro.workflow.cache.ResultCache`.
    """

    def __init__(self, collection: SoundCollection,
                 service: CatalogueService,
                 engine: WorkflowEngine | None = None,
                 provenance: ProvenanceManager | None = None,
                 history: CurationHistory | None = None,
                 adapter: WorkflowAdapter | None = None,
                 max_attempts: int = 3,
                 max_workers: int = 1,
                 result_cache: ResultCache | None = None) -> None:
        self.collection = collection
        self.service = service
        self.history = history
        self.adapter = adapter or WorkflowAdapter()
        self.max_attempts = max_attempts
        self.engine = engine or WorkflowEngine(max_workers=max_workers,
                                               cache=result_cache)
        self.provenance = provenance or ProvenanceManager()
        self.provenance.attach(self.engine)
        self._ensure_updates_table()
        self._register_kinds()
        self.workflow = build_species_check_workflow()
        # step 1: experts add quality metadata to the workflow
        self.adapter.annotate_source(
            self.workflow, CATALOGUE,
            reputation=self.service.reputation,
            availability=self.service.availability,
            note="Catalogue of Life service profile",
        )

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def _ensure_updates_table(self) -> None:
        database = self.collection.database
        if database.has_table(UPDATES_TABLE):
            return
        database.create_table(TableSchema(UPDATES_TABLE, [
            Column("update_id", ct.INTEGER),
            Column("record_id", ct.INTEGER, nullable=False),
            Column("old_name", ct.TEXT, nullable=False),
            Column("new_name", ct.TEXT, nullable=False),
            Column("reason", ct.TEXT, default=""),
            Column("reference", ct.TEXT, default=""),
            Column("status", ct.TEXT, nullable=False, default="flagged"),
            Column("run_id", ct.TEXT, default=""),
        ], primary_key="update_id",
            foreign_keys=[ForeignKey("record_id", RECORDINGS, "record_id")]))
        database.create_index(UPDATES_TABLE, "record_id", "hash")
        database.create_index(UPDATES_TABLE, "old_name", "hash")

    def updates(self, status: str | None = None) -> list[dict[str, Any]]:
        query = self.collection.database.query(UPDATES_TABLE)
        if status is not None:
            query = query.where(col("status") == status)
        return query.order_by("update_id").all()

    def confirm_update(self, update_id: int) -> None:
        """A biologist confirms one flagged update."""
        database = self.collection.database
        rowid = database.rowid_for(UPDATES_TABLE, update_id)
        database.update(UPDATES_TABLE, rowid, {"status": "confirmed"})

    # ------------------------------------------------------------------
    # processor implementations
    # ------------------------------------------------------------------

    def _register_kinds(self) -> None:
        registry = self.engine.registry

        def reader(inputs: Mapping[str, Any]) -> dict[str, Any]:
            records = inputs.get("records") or []
            name_records: dict[str, list[int]] = {}
            for row in records:
                raw = row.get("species")
                if raw is None:
                    continue
                try:
                    name = normalize_name(raw)
                except InvalidNameError as error:
                    get_telemetry().events.record(
                        "invalid_name_kept_raw", {
                            "step": "species_check.reader",
                            "record_id": row["record_id"],
                            "raw": raw,
                            "reason": str(error),
                        })
                    name = raw
                name_records.setdefault(name, []).append(row["record_id"])
            return {
                "names": sorted(name_records),
                "name_records": name_records,
                "records_processed": len(records),
                "__duration__": max(0.5, len(records) * 0.0001),
            }

        def catalogue_lookup(inputs: Mapping[str, Any]) -> dict[str, Any]:
            names = inputs.get("names") or []
            self.service.stats.reset()
            resolutions = []
            for name in names:
                resolution = self.service.lookup_with_retry(
                    name, max_attempts=self.max_attempts
                )
                if resolution is None:
                    resolutions.append(
                        {"queried": name, "status": "unresolved"}
                    )
                else:
                    resolutions.append(resolution.to_dict())
            stats = self.service.stats
            return {
                "resolutions": resolutions,
                "service_stats": {
                    "calls": stats.calls,
                    "failures": stats.failures,
                    "retries": stats.retries,
                },
                "__duration__": stats.simulated_seconds,
            }

        def persister(inputs: Mapping[str, Any]) -> dict[str, Any]:
            resolutions = inputs.get("resolutions") or []
            name_records = inputs.get("name_records") or {}
            updated: dict[str, str] = {}
            unresolved = 0
            next_id = self.collection.database.count(UPDATES_TABLE) + 1
            rows: list[dict[str, Any]] = []
            for resolution in resolutions:
                status = resolution.get("status")
                if status == "unresolved":
                    unresolved += 1
                    continue
                if status != "outdated":
                    continue
                old = resolution["queried"]
                new = resolution.get("accepted_name") or ""
                updated[old] = new
                chain = resolution.get("chain") or []
                reason = chain[0].get("reason", "") if chain else ""
                reference = chain[0].get("reference", "") if chain else ""
                for record_id in name_records.get(old, ()):
                    rows.append({
                        "update_id": next_id + len(rows),
                        "record_id": record_id,
                        "old_name": old,
                        "new_name": new,
                        "reason": reason,
                        "reference": reference,
                        "status": "flagged",
                    })
            affected_records = len(rows)
            if rows:
                self.collection.database.bulk_load(UPDATES_TABLE, rows)
            return {
                "summary": {
                    "records_processed": inputs.get("records_processed", 0),
                    "distinct_names": len(resolutions),
                    "outdated_names": len(updated),
                    "unresolved_names": unresolved,
                    "affected_records": affected_records,
                    "updated_names": updated,
                },
                "__duration__": max(0.2, affected_records * 0.001),
            }

        registry.register_function("metadata_reader", reader)
        registry.register_function("catalogue_lookup", catalogue_lookup)
        registry.register_function("update_persister", persister)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self) -> SpeciesCheckResult:
        """Steps 2-5: feed the metadata in, run, capture provenance."""
        if self.history is not None:
            rows = [
                record.to_row()
                for record in self.history.curated_records()
            ]
        else:
            rows = list(self.collection.rows())
        result = self.engine.run(self.workflow, {"metadata": rows})
        return SpeciesCheckResult(result.outputs["summary"],
                                  result.run_id, result.trace)
