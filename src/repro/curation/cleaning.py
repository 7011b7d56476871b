"""Stage 1.1 — basic metadata cleaning.

"The first concerned basic metadata cleaning algorithms, e.g., checking
attribute domains, and syntactic corrections."

Three passes over the collection:

1. **syntactic corrections** — species names with capitalization slips
   ("SCINAX fuscomarginatus") are normalized; being mechanical, these
   are logged auto-approved;
2. **domain checks** — every field value is checked against its
   :class:`~repro.sounds.fields.FieldSpec` domain; violations are
   reported (and nulling is *proposed*, flagged for review);
3. **era consistency** — a recording can only claim devices/formats
   that existed at its recording date; anachronisms are flagged.
"""

from __future__ import annotations

from typing import Any

from repro.curation.history import CurationHistory, Proposal
from repro.sounds.fields import FIELDS
from repro.sounds.formats import era_consistent
from repro.taxonomy.nomenclature import ScientificName, normalize_name

__all__ = ["CleaningReport", "MetadataCleaner"]

_ERA_FIELDS = {
    "recording_device": "device",
    "microphone_model": "microphone",
    "sound_file_format": "format",
}


class CleaningReport:
    """What one cleaning pass found and proposed."""

    def __init__(self) -> None:
        self.records_scanned = 0
        self.syntactic_fixes: dict[int, tuple[str, str]] = {}
        self.domain_violations: dict[int, dict[str, Any]] = {}
        self.anachronisms: dict[int, dict[str, str]] = {}
        self.malformed_names: dict[int, str] = {}

    @property
    def records_with_issues(self) -> int:
        ids = (set(self.syntactic_fixes) | set(self.domain_violations)
               | set(self.anachronisms) | set(self.malformed_names))
        return len(ids)

    def summary(self) -> dict[str, int]:
        return {
            "records_scanned": self.records_scanned,
            "syntactic_fixes": len(self.syntactic_fixes),
            "records_with_domain_violations": len(self.domain_violations),
            "anachronisms": len(self.anachronisms),
            "malformed_names": len(self.malformed_names),
            "records_with_issues": self.records_with_issues,
        }

    def __repr__(self) -> str:
        return f"CleaningReport({self.summary()})"


class MetadataCleaner:
    """Runs stage 1.1 against a collection + history log."""

    STEP = "stage1.1-cleaning"

    def __init__(self, history: CurationHistory) -> None:
        self.history = history
        self.collection = history.collection

    def run(self) -> CleaningReport:
        """Scan every record; log proposals (one batch, in scan order);
        return the report."""
        report = CleaningReport()
        proposals: list[Proposal] = []
        for record in self.collection.records():
            report.records_scanned += 1
            self._clean_species_name(record, report, proposals)
            self._check_domains(record, report, proposals)
            self._check_eras(record, report, proposals)
        self.history.propose_many(proposals)
        return report

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------

    def _clean_species_name(self, record, report: CleaningReport,
                            proposals: list[Proposal]) -> None:
        name = record.species
        if name is None:
            return
        parsed = ScientificName.try_parse(name)
        if parsed is None:
            report.malformed_names[record.record_id] = name
            proposals.append(Proposal(
                record.record_id, "species", name, None, self.STEP,
                note="malformed scientific name; needs expert attention",
            ))
            return
        normalized = normalize_name(name)
        if normalized != name:
            report.syntactic_fixes[record.record_id] = (name, normalized)
            proposals.append(Proposal(
                record.record_id, "species", name, normalized, self.STEP,
                note="capitalization normalized", auto_approve=True,
                curator="cleaning algorithm",
            ))

    def _check_domains(self, record, report: CleaningReport,
                       proposals: list[Proposal]) -> None:
        violations = record.domain_violations()
        if not violations:
            return
        report.domain_violations[record.record_id] = violations
        for field, value in violations.items():
            proposals.append(Proposal(
                record.record_id, field, value, None, self.STEP,
                note="value outside the field domain",
            ))

    def _check_eras(self, record, report: CleaningReport,
                    proposals: list[Proposal]) -> None:
        year = record.recording_year
        if year is None:
            return
        for field, kind in _ERA_FIELDS.items():
            value = record.get(field)
            if value is None:
                continue
            consistent = era_consistent(kind, value, year)
            if consistent is False:
                report.anachronisms.setdefault(
                    record.record_id, {}
                )[field] = value
                proposals.append(Proposal(
                    record.record_id, field, value, None, self.STEP,
                    note=f"{value!r} did not exist in {year}",
                ))

    # convenience: list which field specs have domains at all (docs/tests)
    @staticmethod
    def checked_fields() -> list[str]:
        return [spec.name for spec in FIELDS if spec.domain is not None]
