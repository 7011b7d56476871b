"""Run values stored once, by digest: skeleton traces, the values store,
and the level-4 package built from them.

The differential oracle: for every run a subsystem captures,
``trace_for(run_id).to_dict()`` equals a JSON round trip of the trace
as it stood at capture time — what the repository stored before port
values moved out of the trace row.
"""

from __future__ import annotations

import json

import pytest

from repro.archive.cas import ContentAddressedStore
from repro.archive.federation import FederatedVault
from repro.archive.fixity import FixityAuditor
from repro.archive.replicas import ReplicaGroup
from repro.casestudy.fnjv import FNJVCaseStudy
from repro.core.preservation import PreservationLevel, archive_collection
from repro.hashing import canonical_json
from repro.provenance.manager import ProvenanceManager
from repro.provenance.repository import (
    ProvenanceRepository,
    trace_from_skeleton,
)
from repro.provenance.store import ProvenanceStore
from repro.sounds.generator import CollectionConfig
from repro.storage import Database
from repro.telemetry import Telemetry, render_report
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow
from repro.workflow.repository import WorkflowRepository

from tests.archive.test_federation import eight_sites
from tests.streaming.test_incremental import make_curator, make_database


def _round_trip(trace) -> dict:
    return json.loads(json.dumps(trace.to_dict(), sort_keys=True,
                                 default=str))


@pytest.fixture()
def captured(monkeypatch):
    """``{(repository, run id): expected trace dict}`` for every run
    stored while the test runs (a re-capture replaces the entry)."""
    expected: dict[tuple[ProvenanceRepository, str], dict] = {}
    original = ProvenanceRepository.store_run

    def recording(self, trace, graph, workflow=None):
        expected[(self, trace.run_id)] = _round_trip(trace)
        return original(self, trace, graph, workflow)

    monkeypatch.setattr(ProvenanceRepository, "store_run", recording)
    return expected


def _assert_traces_round_trip(captured) -> None:
    assert captured
    for (repository, run_id), expected in captured.items():
        assert repository.trace_for(run_id).to_dict() == expected, run_id


def _small_study() -> FNJVCaseStudy:
    return FNJVCaseStudy(seed=11, config=CollectionConfig(
        seed=11, n_records=240, n_distinct_species=60,
        n_outdated_species=6, n_misidentified=3, n_anachronisms=4))


def _distinct_workflow() -> Workflow:
    workflow = Workflow("values_demo")
    workflow.add_processor(Processor("d", "distinct", inputs=["values"],
                                     outputs=["values"]))
    workflow.map_input("v", "d", "values")
    workflow.map_output("o", "d", "values")
    return workflow


def _engine_repository(repository: ProvenanceRepository | None = None):
    engine = WorkflowEngine()
    manager = ProvenanceManager(repository)
    manager.attach(engine)
    return engine, manager.repository


class TestDifferential:
    def test_fnjv_case_study_runs(self, captured):
        study = _small_study()
        study.run(full_pipeline=True)
        _assert_traces_round_trip(captured)

    def test_streaming_curator_runs(self, captured):
        curator = make_curator(make_database(60))
        curator.assess()
        curator.mark_dirty([3, 17])
        curator.assess()
        curator.bump_resource("catalogue")
        curator.assess()
        assert len(captured) >= 3
        _assert_traces_round_trip(captured)

    def test_fixity_audit_and_repair_runs(self, captured):
        group = ReplicaGroup([ContentAddressedStore(f"r{i}")
                              for i in range(3)])
        auditor = FixityAuditor(group, ProvenanceRepository())
        digest = group.put("alpha")
        group.put("beta")
        auditor.sweep()
        group.stores[1].corrupt(digest)
        auditor.sweep()
        auditor.record_repair(group.repair(digest))
        auditor.sweep()
        _assert_traces_round_trip(captured)

    def test_federation_sync_runs(self, captured):
        topology = eight_sites()
        federation = FederatedVault(topology, telemetry=Telemetry())
        digest = federation.store('{"bulk": "' + "w" * 300 + '"}',
                                  level=1)
        victim = federation.object(digest).placements[2]
        topology.site(victim.site).drop(victim.stored)
        federation.sync()
        federation.audit_sample(sample_fraction=1.0)
        federation.sync()
        _assert_traces_round_trip(captured)


class TestValuesStore:
    def test_shared_value_stored_once(self):
        engine, repository = _engine_repository()
        result = engine.run(_distinct_workflow(), {"v": [3, 3, 1]})
        skeleton = json.loads(repository.database.get(
            "provenance_runs", result.run_id)["trace"])
        # the workflow input and the processor's input binding carry
        # one value: one digest, one stored object
        assert skeleton["inputs"]["v"] == next(
            binding["value"] for binding in skeleton["bindings"]
            if binding["direction"] == "input")
        assert len(repository.values) == 2  # [3, 3, 1] and [3, 1]

    def test_warm_rerun_stores_no_new_values(self):
        engine, repository = _engine_repository()
        workflow = _distinct_workflow()
        engine.run(workflow, {"v": [5, 4, 5]})
        before = repository.values.digests()
        second = engine.run(workflow, {"v": [5, 4, 5]})
        assert repository.values.digests() == before
        assert repository.trace_for(second.run_id).outputs == {"o": [5, 4]}

    def test_recapture_returns_second_capture(self):
        engine, repository = _engine_repository()
        result = engine.run(_distinct_workflow(), {"v": [1, 2]})
        trace = result.trace
        graph = repository.graph_for(result.run_id)
        trace.outputs = {"o": ["re-captured"]}
        trace.status = "degraded"
        repository.store_run(trace, graph)
        stored = repository.trace_for(result.run_id)
        assert stored.to_dict() == _round_trip(trace)
        assert repository.run_ids() == [result.run_id]

    def test_refs_count_captures(self):
        engine, repository = _engine_repository()
        workflow = _distinct_workflow()
        first = engine.run(workflow, {"v": [7, 7]})
        skeleton = json.loads(repository.database.get(
            "provenance_runs", first.run_id)["trace"])
        digest = skeleton["inputs"]["v"]
        assert repository.values.stat(digest).refs == 1
        engine.run(workflow, {"v": [7, 7]})
        assert repository.values.stat(digest).refs == 2

    def test_journaled_repository_recovers_identical_traces(self,
                                                            tmp_path):
        path = tmp_path / "provenance.journal"
        database = Database("provenance", journal_path=path)
        engine, repository = _engine_repository(
            ProvenanceRepository(database))
        workflow = _distinct_workflow()
        run_ids = [engine.run(workflow, {"v": values}).run_id
                   for values in ([1, 2, 2], [9], [1, 2, 2])]
        expected = {run_id: repository.trace_for(run_id).to_dict()
                    for run_id in run_ids}

        recovered = ProvenanceRepository(Database.recover("provenance",
                                                          path))
        assert recovered.run_ids() == sorted(run_ids)
        assert {run_id: recovered.trace_for(run_id).to_dict()
                for run_id in run_ids} == expected
        assert recovered.values.digests() == repository.values.digests()

    def test_run_bytes_accounted(self):
        telemetry = Telemetry()
        database = Database()
        repository = ProvenanceRepository(
            database, store=ProvenanceStore(database, telemetry=telemetry))
        engine, __ = _engine_repository(repository)
        workflow = _distinct_workflow()
        first = engine.run(workflow, {"v": [2, 2, 8]})
        engine.run(workflow, {"v": [2, 2, 8]})

        metrics = telemetry.metrics
        skeleton_bytes = sum(
            len(database.get("provenance_runs", run_id)["trace"])
            for run_id in repository.run_ids())
        assert metrics.value("provenance_run_bytes_total",
                             part="skeleton") == skeleton_bytes
        assert metrics.value("provenance_run_bytes_total",
                             part="values") \
            == repository.values.total_bytes()
        assert metrics.value("provenance_run_bytes_total",
                             part="graph") > 0
        # six value occurrences per run (input, output, four bindings)
        # over two distinct values: 4 deduplicated in the first run,
        # all 6 in the warm second run
        assert len(repository.trace_for(first.run_id).bindings) == 4
        assert metrics.value("provenance_values_deduplicated_total") == 10
        report = render_report(telemetry.snapshot())
        assert "run bytes persisted" in report
        assert "10 values deduplicated" in report


class TestLevelFourPackage:
    @pytest.fixture(scope="class")
    def archived(self):
        study = _small_study()
        study.run(full_pipeline=True)
        workflows = WorkflowRepository()
        workflows.save(study.pipeline.checker.workflow)
        repository = study.provenance.repository
        package = archive_collection(
            study.collection, PreservationLevel.FULL_REPRODUCTION,
            workflows=workflows, provenance=repository)
        return repository, package

    def test_every_digest_is_in_the_run_values(self, archived):
        repository, package = archived
        runs = package.contents["provenance"]
        assert sorted(runs) == repository.run_ids()
        for entry in runs.values():
            skeleton = entry["trace"]
            referenced = set(skeleton["inputs"].values())
            referenced |= set(skeleton["outputs"].values())
            referenced |= {binding["value"]
                           for binding in skeleton["bindings"]}
            assert referenced == set(entry["values"])

    def test_package_alone_rebuilds_every_trace(self, archived):
        repository, package = archived
        # through the package's own serialization, as the vault keeps it
        contents = json.loads(canonical_json(package.contents))
        for run_id, entry in contents["provenance"].items():
            rebuilt = trace_from_skeleton(entry["trace"], entry["values"])
            assert rebuilt.to_dict() \
                == repository.trace_for(run_id).to_dict()
            assert entry["graph"] \
                == repository.graph_for(run_id).to_dict()
