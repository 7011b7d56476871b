"""Archive maintenance passes, recorded as provenance runs.

A fixity sweep or repair, a format migration and a federation sync,
audit or rebuild each persist one run — a
:class:`~repro.workflow.trace.WorkflowTrace` plus an OPM graph whose
processes the maintaining agent controls — through
:class:`MaintenanceRun`.  Run ids (``<prefix>-NNNN``) are numbered per
repository (:meth:`~repro.provenance.repository.ProvenanceRepository.claim_run_id`),
so passes sharing a repository never store over each other's runs.
"""

from __future__ import annotations

from typing import Any

from repro.provenance.opm import OPMGraph
from repro.workflow.trace import ProcessorRun, WorkflowTrace

__all__ = ["MaintenanceRun"]


class MaintenanceRun:
    """One pass of ``owner`` (which carries ``provenance``, ``clock``,
    ``agent_id`` and ``agent_label``), opened at ``clock.now()``."""

    def __init__(self, owner: Any, workflow: str, prefix: str) -> None:
        self.provenance = owner.provenance
        self.clock = owner.clock
        self.agent_id = owner.agent_id
        self.run_id = self.provenance.claim_run_id(prefix, workflow)
        self.trace = WorkflowTrace(self.run_id, workflow, self.clock.now())
        self.graph = OPMGraph(self.run_id)
        self.graph.add_agent(self.agent_id, label=owner.agent_label)

    @property
    def number(self) -> int:
        return int(self.run_id.rsplit("-", 1)[1])

    def step(self, processor: str, started: Any,
             kind: str | None = None) -> None:
        """Record a step that began at ``started`` and ends now."""
        self.trace.record_run(ProcessorRun(
            processor, kind or self.trace.workflow_name, started,
            self.clock.now()))

    def process(self, name: str, label: str, role: str,
                annotations: dict[str, Any] | None = None) -> str:
        """Add process ``<run id>/<name>``, controlled by the agent."""
        process_id = f"{self.run_id}/{name}"
        self.graph.add_process(process_id, label=label,
                               annotations=annotations)
        self.graph.was_controlled_by(process_id, self.agent_id, role=role)
        return process_id

    def finish(self, degraded: bool = False) -> None:
        self.trace.finish(self.clock.now(),
                          "degraded" if degraded else "completed")

    def timespan(self) -> dict[str, str]:
        return {"started": str(self.trace.started),
                "finished": str(self.trace.finished)}

    def store(self) -> None:
        self.provenance.store_run(self.trace, self.graph)
