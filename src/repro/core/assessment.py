"""Assessment contexts, values and reports.

"The results of quality assessment are published in two formats: (i) the
workflow trace; and (ii) computed quality attributes."

:class:`AssessmentContext` bundles everything a measurement method may
draw on — the collection, the provenance repository + run, the workflow
output, and external sources.  :class:`AssessmentReport` is the
published result: the trace reference plus a list of
:class:`QualityValue` entries, each remembering *where* its number came
from (provenance, annotation, computation or an external source).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.errors import QualityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflow.trace import WorkflowTrace

__all__ = ["QualityValue", "AssessmentContext", "AssessmentReport"]

_SOURCES = ("provenance", "annotation", "computed", "external")


class QualityValue:
    """One assessed quality number and its pedigree."""

    __slots__ = ("dimension", "value", "source", "method", "details")

    def __init__(self, dimension: str, value: float, source: str,
                 method: str = "", details: Mapping[str, Any] | None = None) -> None:
        if source not in _SOURCES:
            raise QualityError(f"unknown value source {source!r}")
        if not 0.0 <= value <= 1.0:
            raise QualityError(
                f"quality value {dimension}={value} outside [0, 1]"
            )
        self.dimension = dimension
        self.value = float(value)
        self.source = source
        self.method = method
        self.details = dict(details or {})

    def __repr__(self) -> str:
        return (
            f"QualityValue({self.dimension}={self.value:.3f} "
            f"[{self.source}])"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "value": self.value,
            "source": self.source,
            "method": self.method,
            "details": dict(self.details),
        }


class AssessmentContext:
    """Everything a metric may consult.

    All members are optional; a metric that needs an absent member raises
    :class:`~repro.errors.MetricError` with a clear message, so profile
    evaluation reports *which* inputs are missing instead of guessing.
    """

    def __init__(self,
                 collection: "SoundCollection | None" = None,
                 provenance: "ProvenanceRepository | None" = None,
                 run_id: str | None = None,
                 workflow_output: Mapping[str, Any] | None = None,
                 catalogue: "CatalogueOfLife | None" = None,
                 extras: Mapping[str, Any] | None = None) -> None:
        self.collection = collection
        self.provenance = provenance
        self.run_id = run_id
        self.workflow_output = dict(workflow_output or {})
        self.catalogue = catalogue
        self.extras = dict(extras or {})
        self._trace: "WorkflowTrace | None" = None

    def trace(self) -> "WorkflowTrace":
        """The run's trace, read from the repository on first use."""
        if self.provenance is None or self.run_id is None:
            raise QualityError("context has no provenance run to consult")
        if self._trace is None or self._trace.run_id != self.run_id:
            self._trace = self.provenance.trace_for(self.run_id)
        return self._trace

    def process_annotations(self) -> dict[str, dict[str, Any]]:
        """Quality annotations per process, from the provenance graph."""
        if self.provenance is None or self.run_id is None:
            return {}
        return self.provenance.process_annotations(self.run_id)

    def annotated_value(self, dimension: str) -> float | None:
        """The value of ``dimension`` across the run's process
        annotations; when several processes declare it, the *minimum*
        wins (a chain is as good as its weakest link)."""
        values = [
            float(quality[dimension])
            for quality in self.process_annotations().values()
            if dimension in quality
        ]
        return min(values) if values else None


class AssessmentReport:
    """The published assessment: trace reference + quality attributes."""

    def __init__(self, subject: str, run_id: str | None = None) -> None:
        self.subject = subject
        self.run_id = run_id
        self._values: dict[str, QualityValue] = {}
        self.notes: list[str] = []

    def add(self, value: QualityValue) -> None:
        self._values[value.dimension] = value

    def note(self, text: str) -> None:
        self.notes.append(text)

    def __contains__(self, dimension: str) -> bool:
        return dimension in self._values

    def __iter__(self) -> Iterator[QualityValue]:
        for dimension in sorted(self._values):
            yield self._values[dimension]

    def __len__(self) -> int:
        return len(self._values)

    def value(self, dimension: str) -> float:
        try:
            return self._values[dimension].value
        except KeyError:
            raise QualityError(
                f"report has no value for dimension {dimension!r}"
            ) from None

    def quality_value(self, dimension: str) -> QualityValue:
        try:
            return self._values[dimension]
        except KeyError:
            raise QualityError(
                f"report has no value for dimension {dimension!r}"
            ) from None

    def as_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "run_id": self.run_id,
            "values": [value.to_dict() for value in self],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """A human-readable report, §IV-C style."""
        lines = [f"Quality assessment — {self.subject}"]
        if self.run_id:
            lines.append(f"workflow trace: {self.run_id}")
        lines.append("-" * 56)
        for value in self:
            lines.append(
                f"{value.dimension:<22} {value.value:6.1%}   "
                f"({value.source}{': ' + value.method if value.method else ''})"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.dimension}={v.value:.2f}" for v in self
        )
        return f"AssessmentReport({self.subject}: {inner})"
