"""Table I: the four preservation models, as executable policy.

| Level | Preservation model                                | Use case              |
|-------|---------------------------------------------------|-----------------------|
| 1     | Provide additional documentation                  | publication search    |
| 2     | Preserve the data in a simplified format          | outreach, training    |
| 3     | Preserve the analysis-level software and data fmt | full analysis         |
| 4     | Preserve reconstruction software and basic data   | full potential        |

:func:`archive_collection` builds a :class:`PreservationPackage` at a
chosen level; the package knows what it contains, what questions it can
still answer (:meth:`PreservationPackage.can_answer`) and what it costs
to store — the capability/cost trade Table I describes, measured by
bench E4.
"""

from __future__ import annotations

import enum
import json
from typing import TYPE_CHECKING, Any

from repro.errors import QualityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sounds.collection import SoundCollection

__all__ = ["PreservationLevel", "PreservationPolicy",
           "PreservationPackage", "archive_collection", "CAPABILITIES"]


class PreservationLevel(enum.IntEnum):
    """Table I's four models, least to most complete."""

    DOCUMENTATION = 1
    SIMPLIFIED_DATA = 2
    ANALYSIS_LEVEL = 3
    FULL_REPRODUCTION = 4

    @property
    def use_case(self) -> str:
        return {
            PreservationLevel.DOCUMENTATION:
                "publication-related information search",
            PreservationLevel.SIMPLIFIED_DATA:
                "outreach, simple training analyses",
            PreservationLevel.ANALYSIS_LEVEL:
                "full scientific analysis based on existing reconstruction",
            PreservationLevel.FULL_REPRODUCTION:
                "full potential of the experimental data",
        }[self]


#: question kind -> minimum level able to answer it
CAPABILITIES: dict[str, PreservationLevel] = {
    "cite_the_dataset": PreservationLevel.DOCUMENTATION,
    "describe_fields": PreservationLevel.DOCUMENTATION,
    "browse_records": PreservationLevel.SIMPLIFIED_DATA,
    "teach_with_sample": PreservationLevel.SIMPLIFIED_DATA,
    "query_by_species": PreservationLevel.ANALYSIS_LEVEL,
    "recompute_quality": PreservationLevel.ANALYSIS_LEVEL,
    "rerun_curation_workflow": PreservationLevel.FULL_REPRODUCTION,
    "audit_provenance": PreservationLevel.FULL_REPRODUCTION,
}

#: the simplified-format projection (level 2): the fields outreach needs
_SIMPLIFIED_FIELDS = ("record_id", "species", "country", "state",
                      "collect_date", "habitat")


class PreservationPolicy:
    """A scientist's preservation decision: level + intended lifetime."""

    def __init__(self, level: PreservationLevel,
                 lifetime_years: int = 30) -> None:
        if lifetime_years <= 0:
            raise QualityError("lifetime must be positive")
        self.level = PreservationLevel(level)
        self.lifetime_years = lifetime_years

    def __repr__(self) -> str:
        return (
            f"PreservationPolicy(level={int(self.level)}, "
            f"lifetime={self.lifetime_years}y)"
        )


class PreservationPackage:
    """What actually gets archived at one level."""

    def __init__(self, level: PreservationLevel, subject: str,
                 contents: dict[str, Any]) -> None:
        self.level = level
        self.subject = subject
        self.contents = contents

    def __repr__(self) -> str:
        return (
            f"PreservationPackage({self.subject}, level={int(self.level)}, "
            f"{self.size_bytes():,} bytes)"
        )

    def size_bytes(self) -> int:
        """Serialized size — the storage cost axis of Table I."""
        return len(json.dumps(self.contents, sort_keys=True, default=str))

    def component_names(self) -> list[str]:
        return sorted(self.contents)

    def can_answer(self, question: str) -> bool:
        """Whether this package suffices for ``question`` (a key of
        :data:`CAPABILITIES`)."""
        try:
            needed = CAPABILITIES[question]
        except KeyError:
            raise QualityError(f"unknown question kind {question!r}") from None
        return self.level >= needed

    def capability_profile(self) -> dict[str, bool]:
        return {
            question: self.can_answer(question)
            for question in sorted(CAPABILITIES)
        }


def archive_collection(
    collection: "SoundCollection",
    level: PreservationLevel,
    workflows: "WorkflowRepository | None" = None,
    provenance: "ProvenanceRepository | None" = None,
    documentation: str = "",
) -> PreservationPackage:
    """Build the preservation package for ``collection`` at ``level``.

    * Level 1 stores documentation and the field schema only.
    * Level 2 adds the records projected to a simplified format.
    * Level 3 adds the full records and the workflow descriptions
      (the "analysis-level software").
    * Level 4 adds the provenance (the "reconstruction" layer: with the
      traces and graphs, every curation run can be re-derived).  Each
      run is stored as the repository keeps it —
      ``{"trace": skeleton, "values": {digest: value}, "graph": ...}``
      (:meth:`~repro.provenance.repository.ProvenanceRepository.package_run`)
      — so a value that crossed several ports is archived once per run,
      and the package alone still rebuilds every trace
      (:func:`~repro.provenance.repository.trace_from_skeleton`).
    """
    from repro.sounds.fields import FIELDS  # local import: cycle guard

    level = PreservationLevel(level)
    contents: dict[str, Any] = {
        "documentation": documentation or (
            f"Animal sound collection {collection.name!r}; "
            f"{len(collection)} records."
        ),
        "schema": [
            {"name": spec.name, "group": spec.group,
             "type": spec.type.name, "description": spec.description}
            for spec in FIELDS
        ],
    }
    if level >= PreservationLevel.SIMPLIFIED_DATA:
        contents["simplified_records"] = [
            {field: row.get(field) for field in _SIMPLIFIED_FIELDS}
            for row in collection.rows()
        ]
    if level >= PreservationLevel.ANALYSIS_LEVEL:
        contents["records"] = list(collection.rows())
        if workflows is not None:
            contents["workflow_documents"] = {
                name: [
                    {"version": version}
                    for version in workflows.versions(name)
                ]
                for name in workflows.names()
            }
            contents["workflows"] = {
                name: workflows.load(name).to_dict()
                for name in workflows.names()
            }
    if level >= PreservationLevel.FULL_REPRODUCTION and provenance is not None:
        contents["provenance"] = {
            run_id: provenance.package_run(run_id)
            for run_id in provenance.run_ids()
        }
    return PreservationPackage(level, collection.name, contents)
