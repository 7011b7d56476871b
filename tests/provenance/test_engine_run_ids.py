"""Engine run ids are numbered per provenance repository.

Every engine attached to a :class:`ProvenanceManager` takes its run ids
from the manager's repository, so a second engine, or a new session on
a recovered repository, adds runs after the stored ones instead of
storing over them.
"""

from repro.provenance.manager import ProvenanceManager
from repro.provenance.repository import ProvenanceRepository
from repro.storage import Database
from repro.workflow.engine import WorkflowEngine
from repro.workflow.model import Processor, Workflow


def distinct_workflow(name="ids_demo"):
    workflow = Workflow(name)
    workflow.add_processor(Processor("d", "distinct", inputs=["values"],
                                     outputs=["values"]))
    workflow.map_input("v", "d", "values")
    workflow.map_output("o", "d", "values")
    return workflow


def run_on(manager, values, name="ids_demo"):
    engine = WorkflowEngine()
    manager.attach(engine)
    return engine.run(distinct_workflow(name), {"v": values})


def stored_inputs(repository):
    return {run_id: repository.trace_for(run_id).inputs["v"]
            for run_id in repository.run_ids()}


class TestEngineRunIds:
    def test_two_engines_on_one_manager(self):
        manager = ProvenanceManager()
        first = run_on(manager, [1, 2, 2])
        second = run_on(manager, [7])
        assert (first.run_id, second.run_id) == ("run-0001", "run-0002")
        assert stored_inputs(manager.repository) == {
            "run-0001": [1, 2, 2], "run-0002": [7]}
        assert manager.repository.store.run_count() == 2

    def test_fresh_engine_on_recovered_repository(self, tmp_path):
        path = tmp_path / "provenance.journal"
        manager = ProvenanceManager(ProvenanceRepository(
            Database("provenance", journal_path=path)))
        run_on(manager, [1, 2, 2])
        run_on(manager, [3], name="other_workflow")

        reopened = ProvenanceManager(ProvenanceRepository(
            Database.recover("provenance", path)))
        later = run_on(reopened, [7])
        assert later.run_id == "run-0003"
        assert stored_inputs(reopened.repository) == {
            "run-0001": [1, 2, 2], "run-0002": [3], "run-0003": [7]}

    def test_unattached_engine_numbers_its_own_runs(self):
        engine = WorkflowEngine()
        workflow = distinct_workflow()
        assert [engine.run(workflow, {"v": [n]}).run_id
                for n in range(2)] == ["run-0001", "run-0002"]

    def test_maintenance_and_engine_prefixes_stay_apart(self):
        repository = ProvenanceRepository()
        assert repository.claim_run_id("migration/run", "m") \
            == "migration/run-0001"
        manager = ProvenanceManager(repository)
        assert run_on(manager, [1]).run_id == "run-0001"
