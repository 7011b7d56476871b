"""Stage 1.3 — filling missing environmental fields.

"Finally, in the third step, we filled in missing fields whenever
possible, in particular those concerning environmental conditions (e.g.,
humidity or temperature), obtained from authoritative sources, once
location and date were defined."

The enricher consults the climate archive for every record that (a) has
coordinates — original or approved by geocoding — and (b) has a collect
date, and proposes values for the blank environmental fields.  Fills are
flagged (archive data is an estimate, not an observation).
"""

from __future__ import annotations

from repro.curation.history import CurationHistory, Proposal
from repro.geo.climate import ClimateArchive
from repro.sounds.fields import ATMOSPHERIC_CONDITIONS

__all__ = ["EnrichmentReport", "EnvironmentalEnricher"]


class EnrichmentReport:
    """Outcome of one enrichment pass."""

    def __init__(self) -> None:
        self.records_scanned = 0
        self.not_located = 0
        self.no_date = 0
        self.temperature_fills: dict[int, float] = {}
        self.conditions_fills: dict[int, str] = {}

    @property
    def fills(self) -> int:
        return len(self.temperature_fills) + len(self.conditions_fills)

    def summary(self) -> dict[str, int]:
        return {
            "records_scanned": self.records_scanned,
            "not_located": self.not_located,
            "no_date": self.no_date,
            "temperature_fills": len(self.temperature_fills),
            "conditions_fills": len(self.conditions_fills),
        }

    def __repr__(self) -> str:
        return f"EnrichmentReport({self.summary()})"


class EnvironmentalEnricher:
    """Runs stage 1.3 against a collection + history log."""

    STEP = "stage1.3-enrichment"

    def __init__(self, history: CurationHistory,
                 climate: ClimateArchive | None = None) -> None:
        self.history = history
        self.collection = history.collection
        self.climate = climate or ClimateArchive()

    def run(self) -> EnrichmentReport:
        report = EnrichmentReport()
        proposals: list[Proposal] = []
        # Work on the curated view so freshly-approved geocoding
        # results count as "location defined".
        for record in self.history.curated_records():
            report.records_scanned += 1
            coordinates = record.coordinates
            if coordinates is None:
                report.not_located += 1
                continue
            date = record.collect_date
            if date is None:
                report.no_date += 1
                continue
            hour = _hour_of(record.collect_time)
            needs_temperature = record.air_temperature_c is None
            needs_conditions = record.atmospheric_conditions is None
            if not needs_temperature and not needs_conditions:
                continue
            reading = self.climate.reading(coordinates[0], coordinates[1],
                                           date, hour=hour)
            note = "filled from historical climate archive"
            if needs_temperature:
                value = round(reading.temperature_c, 1)
                report.temperature_fills[record.record_id] = value
                proposals.append(Proposal(
                    record.record_id, "air_temperature_c", None, value,
                    self.STEP, note=note))
            if needs_conditions:
                conditions = (
                    reading.conditions
                    if reading.conditions in ATMOSPHERIC_CONDITIONS
                    else "clear"
                )
                report.conditions_fills[record.record_id] = conditions
                proposals.append(Proposal(
                    record.record_id, "atmospheric_conditions", None,
                    conditions, self.STEP, note=note))
        self.history.propose_many(proposals)
        return report


def _hour_of(collect_time: str | None) -> int:
    """Hour from an ``HH:MM`` string; noon when absent/garbled."""
    if collect_time and len(collect_time) >= 2 and collect_time[:2].isdigit():
        hour = int(collect_time[:2])
        if 0 <= hour <= 23:
            return hour
    return 12
