"""Golden file for the provenance runs of archive maintenance passes.

Fixity sweeps and repairs, format migrations and the federation's
sync, sampling-audit and rebuild passes each persist one OPM run.  One
deterministic scenario drives all six kinds (sweeps, syncs and rebuilds
both ``completed`` and ``degraded``), and this test pins, per run id, the
workflow, the status, the trace document and the OPM graph (nodes and
edges sorted, so only their content is pinned, not insertion order).

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/archive/test_maintenance_runs.py

then review the diff of ``tests/archive/golden/maintenance_runs.json``
like any other code change.
"""

import json
import os
from pathlib import Path
from typing import Any

import pytest

from repro.archive import PreservationVault
from repro.archive.federation import FederatedVault
from repro.archive.placement import FULL_REPLICA
from repro.core.preservation import PreservationLevel
from repro.hashing import sha256_hex
from repro.provenance.repository import ProvenanceRepository
from repro.telemetry import Telemetry

from tests.archive.conftest import build_tiny_collection
from tests.archive.test_federation import eight_sites

GOLDEN = Path(__file__).parent / "golden" / "maintenance_runs.json"


def _vault_passes(repository: ProvenanceRepository) -> None:
    vault = PreservationVault("golden", provenance=repository,
                              telemetry=Telemetry())
    vault.ingest(build_tiny_collection(), PreservationLevel.ANALYSIS_LEVEL)
    vault.inject_corruption()
    vault.repair(vault.verify())
    vault.verify()
    vault.migrate()


def _federation_passes(repository: ProvenanceRepository) -> None:
    topology = eight_sites()
    federation = FederatedVault(topology, provenance=repository,
                                telemetry=Telemetry())
    digests = [
        federation.store(json.dumps({"object": i, "pad": "p" * (40 + i)}),
                         level=1 + i % 4)
        for i in range(12)
    ]
    erasure = next(d for d in digests
                   if federation.object(d).scheme.kind != FULL_REPLICA)
    replica = next(d for d in digests
                   if federation.object(d).scheme.kind == FULL_REPLICA)

    # a corrupt shard: invisible to sync until the scrub flags it
    shard = federation.object(erasure).placements[2]
    topology.site(shard.site).corrupt(shard.stored)
    federation.sync()
    federation.audit_sample(sample_fraction=1.0)
    federation.sync()

    # a lost site, rebuilt elsewhere, then a clean sync
    topology.fail_site("us-2")
    federation.rebuild_site("us-2")
    federation.sync()

    # a stray fragment and an object whose every replica rotted
    stray_site = federation.object(replica).placements[0].site
    topology.site(stray_site).put('{"stray": true}')
    for placement in federation.object(replica).placements:
        topology.site(placement.site).corrupt(placement.stored)
    federation.audit_sample(sample_fraction=1.0)
    federation.sync()

    # too few sites left to rebuild onto
    for name in ("sp-2", "rj-1", "rj-2", "us-1", "eu-1"):
        topology.fail_site(name)
    federation.rebuild_site("eu-1")


def _sorted_graph(graph: dict[str, Any]) -> dict[str, Any]:
    def key(item: dict[str, Any]) -> str:
        return json.dumps(item, sort_keys=True)

    return {"id": graph["id"],
            "nodes": sorted(graph["nodes"], key=key),
            "edges": sorted(graph["edges"], key=key)}


def _render() -> dict[str, Any]:
    repository = ProvenanceRepository()
    _vault_passes(repository)
    _federation_passes(repository)
    runs: dict[str, Any] = {}
    for run in repository.runs():
        run_id = run["run_id"]
        skeleton = repository.database.get("provenance_runs",
                                           run_id)["trace"]
        runs[run_id] = {
            "workflow": run["workflow_name"],
            "status": run["status"],
            "trace_row_sha256": sha256_hex(skeleton),
            "trace": repository.trace_for(run_id).to_dict(),
            "graph": _sorted_graph(repository.graph_for(run_id).to_dict()),
        }
    return runs


def _document(runs: dict[str, Any]) -> str:
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


def test_maintenance_runs_match_golden_file():
    rendered = _document(_render())
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(rendered, encoding="utf-8")
        pytest.skip("golden file regenerated")
    assert GOLDEN.exists(), (
        "golden file missing; run with REPRO_REGEN_GOLDEN=1 to create it")
    assert rendered == GOLDEN.read_text(encoding="utf-8")


def test_scenario_covers_every_kind_and_branch():
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(runs) == 12
    kinds = {(run["workflow"], run["status"]) for run in runs.values()}
    assert kinds == {
        ("fixity_audit", "degraded"), ("fixity_audit", "completed"),
        ("replica_repair", "completed"),
        ("format_migration", "completed"),
        ("federation_sync", "completed"), ("federation_sync", "degraded"),
        ("federation_audit", "degraded"),
        ("site_rebuild", "completed"), ("site_rebuild", "degraded"),
    }
    strays = [repair for run in runs.values()
              if run["workflow"] == "federation_sync"
              for repair in run["trace"]["outputs"]["repaired"]
              if repair["role"] == "stray"]
    assert len(strays) == 1
