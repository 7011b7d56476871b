"""Stage 1.2 — adding geographic coordinates.

"The second curation step was to add geographic coordinates to all
metadata records (since most recordings had been made before the advent
of GPS) ... human curators ... helped in disambiguating information
whenever our algorithms found problems (for instance, to define
coordinates when a location name was too vague)."

For every record without coordinates, the geocoder resolves the textual
place fields against the gazetteer.  Unambiguous hits are proposed
(flagged); ambiguous or unresolvable places land in the
*needs-disambiguation* queue for humans.
"""

from __future__ import annotations

from repro.curation.history import CurationHistory, Proposal
from repro.errors import GeocodingError
from repro.geo.gazetteer import Gazetteer

__all__ = ["GeocodingReport", "Geocoder"]


class GeocodingReport:
    """Outcome of one geocoding pass."""

    def __init__(self) -> None:
        self.records_scanned = 0
        self.already_located = 0
        self.resolved: dict[int, tuple[float, float, float]] = {}
        self.ambiguous: dict[int, str] = {}
        self.unresolvable: dict[int, str] = {}

    @property
    def needs_disambiguation(self) -> list[int]:
        return sorted(self.ambiguous)

    def summary(self) -> dict[str, int]:
        return {
            "records_scanned": self.records_scanned,
            "already_located": self.already_located,
            "resolved": len(self.resolved),
            "ambiguous": len(self.ambiguous),
            "unresolvable": len(self.unresolvable),
        }

    def __repr__(self) -> str:
        return f"GeocodingReport({self.summary()})"


class Geocoder:
    """Runs stage 1.2 against a collection + history log."""

    STEP = "stage1.2-geocoding"

    def __init__(self, history: CurationHistory,
                 gazetteer: Gazetteer | None = None) -> None:
        self.history = history
        self.collection = history.collection
        self.gazetteer = gazetteer or Gazetteer()

    def run(self) -> GeocodingReport:
        report = GeocodingReport()
        proposals: list[Proposal] = []
        for record in self.collection.records():
            report.records_scanned += 1
            if record.has_coordinates:
                report.already_located += 1
                continue
            try:
                place = self.gazetteer.resolve(
                    country=record.country, state=record.state,
                    city=record.city,
                )
            except GeocodingError as exc:
                message = str(exc)
                if message.startswith("ambiguous"):
                    report.ambiguous[record.record_id] = message
                else:
                    report.unresolvable[record.record_id] = message
                continue
            report.resolved[record.record_id] = (
                place.latitude, place.longitude, place.uncertainty_km
            )
            note = (
                f"geocoded from {place.kind} {place.name!r} "
                f"(±{place.uncertainty_km:.0f} km)"
            )
            proposals.extend(_coordinate_proposals(
                record.record_id, place, self.STEP, note))
        self.history.propose_many(proposals)
        return report

    def disambiguate(self, record_id: int, state: str) -> bool:
        """A human curator pins the record's city to ``state``; retry.

        Returns whether the record is now resolvable."""
        record = self.collection.record(record_id)
        try:
            place = self.gazetteer.resolve(country=record.country,
                                           state=state, city=record.city)
        except GeocodingError:
            return False
        if place.kind != "city":
            # The curator named a state the city is not actually in; a
            # state-centroid fallback would hide the mistake.
            return False
        note = f"disambiguated by curator to {state!r}"
        self.history.propose_many(_coordinate_proposals(
            record.record_id, place, self.STEP, note))
        return True


def _coordinate_proposals(record_id: int, place, step: str,
                          note: str) -> list[Proposal]:
    """The latitude and longitude fills for one resolved place."""
    return [
        Proposal(record_id, "latitude", None, round(place.latitude, 5),
                 step, note=note),
        Proposal(record_id, "longitude", None, round(place.longitude, 5),
                 step, note=note),
    ]
