"""The Data Quality Manager: the (a)+(b)+(c) assessment."""

import pytest

from repro.core.manager import DataQualityManager
from repro.core.metrics import MetricResult, QualityMetric
from repro.core.profile import QualityProfile
from repro.curation.species_check import SpeciesNameChecker
from repro.errors import QualityError, UnknownDimensionError
from repro.provenance.manager import ProvenanceManager


@pytest.fixture()
def checked(small_collection, reliable_service):
    provenance = ProvenanceManager()
    checker = SpeciesNameChecker(small_collection, reliable_service,
                                 provenance=provenance)
    result = checker.run()
    manager = DataQualityManager(provenance=provenance.repository)
    return manager, result, small_collection


class TestRegistration:
    def test_standard_metrics_preloaded(self):
        manager = DataQualityManager()
        assert "species_name_accuracy" in manager.metric_names()
        assert "field_completeness" in manager.metric_names()

    def test_metric_requires_known_dimension(self):
        manager = DataQualityManager()
        metric = QualityMetric("m", "sparkle",
                               lambda context: MetricResult(1.0))
        with pytest.raises(UnknownDimensionError):
            manager.register_metric(metric)

    def test_define_dimension_then_register(self):
        manager = DataQualityManager()
        manager.define_dimension("sparkle", "contextual")
        manager.register_metric(QualityMetric(
            "m", "sparkle", lambda context: MetricResult(1.0)))
        assert "m" in manager.metric_names()

    def test_profile_registration(self):
        manager = DataQualityManager()
        profile = QualityProfile("p")
        profile.add_goal(manager.metric("field_completeness"))
        manager.register_profile(profile)
        assert manager.profile_names() == ["p"]
        assert manager.profile("p") is profile

    def test_unknown_lookups(self):
        manager = DataQualityManager()
        with pytest.raises(QualityError):
            manager.metric("ghost")
        with pytest.raises(QualityError):
            manager.profile("ghost")


class TestRunAssessment:
    def test_species_check_report(self, checked, small_config):
        manager, result, __ = checked
        report = manager.assess_species_check_run(result.run_id)
        expected_accuracy = 1 - (small_config.n_outdated_species
                                 / small_config.n_distinct_species)
        assert report.value("accuracy") == pytest.approx(expected_accuracy,
                                                         abs=0.01)
        assert report.value("reputation") == 1.0
        assert report.value("availability") == 1.0  # reliable service

    def test_report_sources(self, checked):
        manager, result, __ = checked
        report = manager.assess_species_check_run(result.run_id)
        assert report.quality_value("accuracy").source == "computed"
        assert report.quality_value("reputation").source == "annotation"

    def test_observed_availability_present(self, checked):
        manager, result, __ = checked
        report = manager.assess_species_check_run(result.run_id)
        assert report.value("observed_availability") == 1.0

    def test_report_notes_counts(self, checked, small_config):
        manager, result, __ = checked
        report = manager.assess_species_check_run(result.run_id)
        note = " ".join(report.notes)
        assert str(small_config.n_distinct_species) in note
        assert str(small_config.n_outdated_species) in note

    def test_one_trace_read_per_assessment(self, checked, monkeypatch):
        manager, result, collection = checked
        repository = manager.provenance
        reads = []
        original = repository.trace_for

        def counting(run_id):
            reads.append(run_id)
            return original(run_id)

        monkeypatch.setattr(repository, "trace_for", counting)
        report = manager.assess_species_check_run(result.run_id,
                                                  collection=collection)
        assert reads == [result.run_id]
        assert report.subject == result.trace.workflow_name

    def test_context_requires_provenance(self):
        manager = DataQualityManager()
        with pytest.raises(QualityError):
            manager.context_for_run("run-1")


class TestCollectionAssessment:
    def test_direct_assessment(self, small_collection, small_catalogue):
        manager = DataQualityManager()
        report = manager.assess_collection(small_collection,
                                           catalogue=small_catalogue)
        assert "completeness" in report
        assert "consistency" in report
        assert "accuracy" in report

    def test_without_catalogue_no_accuracy(self, small_collection):
        manager = DataQualityManager()
        report = manager.assess_collection(small_collection)
        assert "accuracy" not in report


class TestProfileEvaluation:
    def test_evaluate_registered_profile(self, checked):
        manager, result, collection = checked
        profile = QualityProfile("end user")
        profile.add_goal(manager.metric("species_name_accuracy"),
                         threshold=0.9, required=True)
        profile.add_goal(manager.metric("field_completeness"),
                         threshold=0.3)
        manager.register_profile(profile)
        context = manager.context_for_run(result.run_id,
                                          collection=collection)
        evaluation = manager.evaluate_profile("end user", context)
        assert evaluation.acceptable
        assert evaluation.overall_score > 0.5
