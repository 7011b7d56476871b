"""Maintenance run ids are numbered per provenance repository.

A run id names one archived run for good: a second vault, federation
or session writing to the same repository must add runs after the ones
already there, never store over them.
"""

from repro.archive import PreservationVault
from repro.archive.clock import VAULT_EPOCH
from repro.archive.federation import FederatedVault
from repro.archive.fixity import AUDIT_WORKFLOW
from repro.core.preservation import PreservationLevel
from repro.provenance.opm import OPMGraph
from repro.provenance.repository import ProvenanceRepository
from repro.storage import Database
from repro.telemetry import Telemetry
from repro.workflow.trace import WorkflowTrace

from tests.archive.conftest import build_tiny_collection
from tests.archive.test_federation import eight_sites


def snapshot(repository):
    """Every run's status, trace and graph, by run id."""
    return {
        run["run_id"]: (run["status"],
                        repository.trace_for(run["run_id"]).to_dict(),
                        repository.graph_for(run["run_id"]).to_dict())
        for run in repository.runs()
    }


def maintain(repository, name, corrupt):
    """One vault's sweep, repair and migration plus one federation's
    sync and audit, all recorded in ``repository``."""
    vault = PreservationVault(name, provenance=repository,
                              telemetry=Telemetry())
    vault.ingest(build_tiny_collection(name),
                 PreservationLevel.ANALYSIS_LEVEL)
    if corrupt:
        vault.inject_corruption()
    vault.repair(vault.verify())
    vault.migrate()
    topology = eight_sites()
    federation = FederatedVault(topology, provenance=repository,
                                telemetry=Telemetry())
    digest = federation.store('{"x": 1}', level=3)
    if corrupt:
        for placement in federation.object(digest).placements:
            topology.site(placement.site).corrupt(placement.stored)
    federation.audit_sample(sample_fraction=1.0)
    federation.sync()


EARLIER = {
    "fixity/sweep-0001": "degraded",
    "fixity/repair-0001": "completed",
    "migration/run-0001": "completed",
    "federation/audit-0001": "degraded",
    "federation/sync-0001": "degraded",
}
LATER = {
    "fixity/sweep-0002": "completed",
    "migration/run-0002": "completed",
    "federation/audit-0002": "completed",
    "federation/sync-0002": "completed",
}


def check_later_runs_were_added(repository, before):
    after = snapshot(repository)
    for run_id, kept in before.items():
        assert after[run_id] == kept, run_id
    assert {run_id: after[run_id][0] for run_id in EARLIER} == EARLIER
    assert {run_id: after[run_id][0] for run_id in LATER} == LATER
    assert len(after) == len(EARLIER) + len(LATER)
    sweep = after["fixity/sweep-0001"][2]
    process = next(node for node in sweep["nodes"]
                   if node["kind"] == "process")
    assert process["annotations"]["corrupt_found"] == 1


class TestRunIdsPerRepository:
    def test_two_vaults_on_one_repository(self):
        repository = ProvenanceRepository()
        maintain(repository, "first", corrupt=True)
        before = snapshot(repository)
        assert {run_id: status for run_id, (status, __, __)
                in before.items()} == EARLIER
        maintain(repository, "second", corrupt=False)
        check_later_runs_were_added(repository, before)
        assert repository.run_counts() == {
            "federation_audit": 2, "federation_sync": 2,
            "fixity_audit": 2, "format_migration": 2, "replica_repair": 1}

    def test_a_run_under_way_keeps_its_id(self):
        """Two passes open before either is stored get distinct ids."""
        repository = ProvenanceRepository()
        assert [repository.claim_run_id("fixity/sweep", AUDIT_WORKFLOW)
                for __ in range(2)] == [
            "fixity/sweep-0001", "fixity/sweep-0002"]

    def test_journaled_repository_reopened_in_a_later_session(
            self, tmp_path):
        path = tmp_path / "provenance.journal"
        repository = ProvenanceRepository(
            Database("provenance", journal_path=path))
        maintain(repository, "first", corrupt=True)
        before = snapshot(repository)

        reopened = ProvenanceRepository(
            Database.recover("provenance", path))
        assert snapshot(reopened) == before
        maintain(reopened, "second", corrupt=False)
        check_later_runs_were_added(reopened, before)
        # the archival store holds every run exactly once
        assert reopened.store.run_count() == len(reopened)

    def test_numbering_steps_over_an_id_already_taken(self):
        """A pass that failed after taking its number leaves a gap: the
        count of stored runs then points at an id already in use."""
        repository = ProvenanceRepository()
        taken = WorkflowTrace("fixity/sweep-0002", AUDIT_WORKFLOW,
                              VAULT_EPOCH)
        taken.finish(VAULT_EPOCH, "completed")
        repository.store_run(taken, OPMGraph(taken.run_id))
        vault = PreservationVault("gaps", provenance=repository,
                                  telemetry=Telemetry())
        vault.ingest(build_tiny_collection(),
                     PreservationLevel.ANALYSIS_LEVEL)
        assert vault.verify().run_id == "fixity/sweep-0003"
        assert repository.trace_for("fixity/sweep-0002").started \
            == VAULT_EPOCH
