"""`repro stats` rendering and the quality-signal bridge, pinned.

Each case builds a synthetic snapshot from a :class:`MetricsRegistry`
plus plain span and event data.  Together the cases show every panel
both present and absent, every conditional line both on and off, the
"entry"/"entries" wording, the gauge "now" lines, labelled breakdowns
(including series without the breakdown label) and sliding windows.
The rendered text is compared with ``golden/report_<case>.txt``.
Regenerate after an intentional format change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/telemetry/test_report.py
"""

import os
from pathlib import Path

import pytest

from repro.telemetry import quality_signals, render_report
from repro.telemetry.metrics import MetricsRegistry

GOLDEN_DIR = Path(__file__).parent / "golden"


def _snapshot(registry, spans=None, events=None):
    snapshot = {"metrics": registry.snapshot()}
    if spans is not None:
        snapshot["spans"] = spans
    if events is not None:
        snapshot["events"] = events
    return snapshot


def _count(registry, name, amount, **labels):
    registry.counter(name, **labels).inc(amount)


def case_empty():
    return {}


def case_full():
    """Every panel present with every conditional line on."""
    r = MetricsRegistry()
    # engine: one invalidation reads "entry"
    _count(r, "engine_waves_total", 4)
    _count(r, "engine_parallel_dispatch_total", 3, workflow="w")
    _count(r, "workflow_processor_runs_total", 5, processor="a")
    _count(r, "workflow_processor_runs_total", 2, processor="b")
    _count(r, "workflow_processor_failures_total", 1, processor="b")
    _count(r, "workflow_iteration_items_total", 1200)
    _count(r, "engine_cache_hits_total", 3)
    _count(r, "engine_cache_misses_total", 5)
    _count(r, "cache_store_skipped_total", 1, source="run/x")
    _count(r, "cache_tag_invalidations_total", 1)
    _count(r, "taxonomy_cache_hits_total", 17)
    _count(r, "service_calls_total", 9, outcome="success")
    _count(r, "service_calls_total", 2, outcome="failure")
    _count(r, "service_retries_total", 2)
    _count(r, "engine_listener_errors_total", 1)
    # curation and planner
    _count(r, "curation_stage_runs_total", 6, stage="cleaning")
    _count(r, "curation_stage_records_total", 1800, stage="cleaning")
    _count(r, "storage_planner_decisions_total", 40, access="index")
    _count(r, "storage_index_hits_total", 31)
    _count(r, "storage_full_scans_total", 9)
    _count(r, "storage_rows_scanned_total", 12345)
    # vault, with two replica-lag gauges
    _count(r, "vault_objects_ingested_total", 60)
    _count(r, "vault_bytes_ingested_total", 1_048_576)
    _count(r, "vault_objects_deduplicated_total", 2)
    _count(r, "vault_audit_sweeps_total", 2)
    _count(r, "vault_objects_audited_total", 120)
    _count(r, "vault_bytes_audited_total", 2_097_152)
    _count(r, "vault_corruptions_found_total", 1)
    _count(r, "vault_corruptions_repaired_total", 1)
    _count(r, "vault_migrations_total", 7)
    r.gauge("vault_replica_lag", replica="r1").set(3)
    r.gauge("vault_replica_lag", replica="r2").set(5)
    # federation, with both gauges
    _count(r, "federation_objects_stored_total", 10)
    _count(r, "federation_fragments_stored_total", 60)
    _count(r, "federation_bytes_stored_total", 4096.5)
    _count(r, "federation_sync_runs_total", 2)
    _count(r, "federation_sync_repairs_total", 3)
    _count(r, "federation_sync_unrecoverable_total", 0)
    _count(r, "federation_audit_scrubs_total", 1)
    _count(r, "federation_objects_scrubbed_total", 4)
    _count(r, "federation_corruptions_found_total", 1)
    _count(r, "federation_rebuilt_fragments_total", 6)
    _count(r, "federation_reads_total", 11)
    r.gauge("federation_sites_available").set(3)
    r.gauge("federation_sites").set(4)
    # provenance store, with all three gauges and run bytes
    _count(r, "provstore_runs_ingested_total", 12)
    _count(r, "provstore_nodes_ingested_total", 340)
    _count(r, "provstore_edges_ingested_total", 512)
    _count(r, "provstore_reingest_skipped_total", 1)
    r.gauge("provstore_sealed_segments").set(2)
    r.gauge("provstore_tail_runs").set(4)
    r.gauge("provstore_pool_strings").set(980)
    _count(r, "provstore_segments_sealed_total", 2)
    _count(r, "provstore_queries_total", 8, kind="lineage")
    _count(r, "provstore_truncations_total", 1)
    _count(r, "provenance_run_bytes_total", 3712, part="skeleton")
    _count(r, "provenance_run_bytes_total", 91800, part="values")
    _count(r, "provenance_run_bytes_total", 2048, part="graph")
    _count(r, "provenance_values_deduplicated_total", 5)
    # analysis: every severity, one extra, one series without severity
    _count(r, "analysis_runs_total", 3)
    _count(r, "analysis_diagnostics_total", 2, severity="error", rule="A")
    _count(r, "analysis_diagnostics_total", 1, severity="error", rule="B")
    _count(r, "analysis_diagnostics_total", 4, severity="warning")
    _count(r, "analysis_diagnostics_total", 5, severity="info")
    _count(r, "analysis_diagnostics_total", 6, severity="hint")
    _count(r, "analysis_diagnostics_total", 7, rule="C")
    _count(r, "analysis_suppressed_total", 2)
    _count(r, "analysis_code_runs_total", 1)
    _count(r, "analysis_code_files_total", 210)
    _count(r, "analysis_code_functions_total", 1890)
    _count(r, "analysis_code_findings_total", 3, rule="DET001")
    # service: every outcome plus a series without one, two latency
    # histograms, both gauges
    _count(r, "service_requests_total", 10, outcome="ok", tenant="t1")
    _count(r, "service_requests_total", 6, outcome="ok", tenant="t2")
    _count(r, "service_requests_total", 2, outcome="rejected")
    _count(r, "service_requests_total", 1, outcome="conflict")
    _count(r, "service_requests_total", 1, outcome="error")
    _count(r, "service_requests_total", 3, tenant="t3")
    for tenant, values in (("t1", (0.5, 0.25, 1.5)), ("t2", (0.125,))):
        histogram = r.histogram("service_request_seconds", tenant=tenant)
        for value in values:
            histogram.observe(value)
    _count(r, "service_admission_rejected_total", 2)
    _count(r, "service_quota_rejected_total", 1)
    _count(r, "service_errors_total", 1, op="audit")
    _count(r, "service_unexpected_errors_total", 1)
    _count(r, "service_conflict_retries_total", 2)
    _count(r, "storage_transaction_conflicts_total", 3)
    _count(r, "storage_snapshots_total", 19)
    _count(r, "storage_rollback_failures_total", 1)
    r.gauge("service_in_flight").set(2)
    r.gauge("service_queue_depth").set(0)
    # streaming: ingest with a depth gauge, dirty fraction, rechecks by
    # reason (one series unlabelled, one without a reason), windows
    _count(r, "streaming_ingested_total", 250, source="fnjv")
    _count(r, "streaming_rejected_total", 4, source="fnjv")
    _count(r, "streaming_batches_total", 8, source="fnjv")
    r.gauge("streaming_buffer_depth", source="fnjv").set(6)
    _count(r, "streaming_sweeps_total", 3)
    _count(r, "streaming_shards_recomputed_total", 4)
    _count(r, "streaming_shards_reused_total", 12)
    _count(r, "streaming_dirty_records_total", 9)
    _count(r, "streaming_rechecks_total", 2, reason="stale")
    _count(r, "streaming_rechecks_total", 1, reason="decayed")
    _count(r, "streaming_rechecks_total", 3, reason="stale", shard="s1")
    _count(r, "streaming_rechecks_total", 1, shard="s2")
    _count(r, "streaming_rechecks_total", 5)
    for value in (0.9, 0.95, 0.925):
        r.window("streaming_window_accuracy").observe(value)
    for source, values in (("a", (10, 20)), ("b", (5,))):
        window = r.window("streaming_window_batch_records", size=4,
                          source=source)
        for value in values:
            window.observe(value)
    r.histogram("streaming_sweep_seconds").observe(0.75)
    # quality-signal inputs
    r.gauge("service_measured_availability", service="col").set(0.875)
    _count(r, "workflow_runs_total", 6, status="completed")
    _count(r, "workflow_runs_total", 1, status="degraded")
    _count(r, "workflow_runs_total", 1, status="failed")
    r.histogram("workflow_processor_seconds",
                processor="Species_check").observe(2.5)
    spans = {
        "spans": [
            {"name": "workflow.run", "duration_seconds": 3.5},
            {"name": "workflow.run", "duration_seconds": 1.25},
            {"name": "processor.Species_check", "duration_seconds": 2.5},
            {"name": "open.span", "duration_seconds": None},
        ],
        "open_spans": 0,
        "dropped_spans": 2,
    }
    events = {
        "recorded": 14,
        "dropped": 3,
        "events": [
            {"event": "run_finished", "run_id": "run-0001",
             "workflow": "fnjv", "status": "completed",
             "failed_processors": 0, "finished": "2013-05-01T10:00:00"},
            {"event": "run_finished", "run_id": "run-0002",
             "workflow": "fnjv", "status": "degraded",
             "failed_processors": 1, "finished": "2013-05-02T10:00:00"},
            {"event": "processor_finished", "run_id": "run-0002"},
        ],
    }
    return _snapshot(r, spans, events)


def case_minimal():
    """Every panel present with every conditional line off."""
    r = MetricsRegistry()
    _count(r, "engine_waves_total", 2)
    _count(r, "curation_stage_runs_total", 1)
    _count(r, "storage_planner_decisions_total", 1)
    _count(r, "vault_objects_ingested_total", 1)
    _count(r, "federation_objects_stored_total", 1)
    _count(r, "provstore_runs_ingested_total", 1)
    r.counter("provenance_run_bytes_total", part="skeleton")
    _count(r, "analysis_runs_total", 1)
    _count(r, "service_requests_total", 4, tenant="t1")
    _count(r, "streaming_sweeps_total", 1)
    r.counter("workflow_runs_total", status="completed")
    events = {"recorded": 2, "dropped": 0, "events": [
        {"event": "run_started", "run_id": "run-0001"},
    ]}
    return _snapshot(r, {"spans": [], "dropped_spans": 0}, events)


def case_partial():
    """Panels with some conditional lines on: "entries", ingest without
    a depth gauge, unlabelled rechecks only, one gauge of two."""
    r = MetricsRegistry()
    r.counter("taxonomy_cache_misses_total")
    _count(r, "workflow_processor_runs_total", 3)
    _count(r, "cache_tag_invalidations_total", 3)
    _count(r, "engine_cache_misses_total", 2)
    _count(r, "service_requests_total", 1, outcome="ok")
    _count(r, "service_admission_rejected_total", 1)
    _count(r, "service_unexpected_errors_total", 2)
    _count(r, "service_conflict_retries_total", 1)
    r.gauge("service_queue_depth").set(4)
    r.histogram("service_request_seconds", tenant="t1")
    _count(r, "provstore_queries_total", 3)
    _count(r, "provenance_run_bytes_total", 512, part="values")
    r.gauge("federation_sites", region="br").set(2)
    r.gauge("federation_sites", region="pt").set(9)
    _count(r, "analysis_diagnostics_total", 2, rule="X")
    _count(r, "analysis_code_runs_total", 1)
    _count(r, "streaming_rejected_total", 3)
    _count(r, "streaming_rechecks_total", 2)
    r.window("streaming_window_completeness")
    r.window("unrelated_window").observe(1)
    r.counter("vault_objects_ingested_total")
    r.gauge("vault_replica_lag").set(0)
    r.gauge("service_measured_availability", site="x").set(0.5)
    _count(r, "workflow_runs_total", 2, kind="batch")
    r.histogram("workflow_processor_seconds", site="x").observe(1.0)
    r.histogram("workflow_processor_seconds", processor="idle")
    events = {"recorded": 1, "dropped": 0, "events": [
        {"event": "run_finished", "run_id": "run-0009",
         "workflow": "w", "status": "failed"},
    ]}
    spans = {"spans": [{"name": "open", "duration_seconds": None}],
             "dropped_spans": 1}
    return _snapshot(r, spans, events)


def case_absent():
    """Series that share a panel's vocabulary but do not open it."""
    r = MetricsRegistry()
    r.counter("curation_stage_runs_total")
    _count(r, "curation_stage_records_total", 5)
    r.counter("storage_planner_decisions_total")
    _count(r, "storage_rows_scanned_total", 50)
    _count(r, "service_calls_total", 3)
    _count(r, "storage_snapshots_total", 2)
    r.gauge("service_measured_availability", service="col").set(0.9)
    r.gauge("service_measured_availability", service="gaz").set(1.0)
    _count(r, "workflow_runs_total", 3, status="completed")
    r.histogram("workflow_processor_seconds", processor="a").observe(0.5)
    r.histogram("workflow_processor_seconds", processor="a").observe(1.5)
    r.histogram("workflow_processor_seconds", processor="b").observe(0.25)
    r.histogram("workflow_processor_seconds")
    r.gauge("planner_selectivity").set(0.125)
    events = {"recorded": 1, "dropped": 0, "events": [
        {"event": "run_finished", "run_id": "run-0003",
         "workflow": "w", "status": "completed", "failed_processors": 0,
         "finished": "2011-01-01T00:00:00"},
    ]}
    return _snapshot(r, {"spans": [{"name": "x", "duration_seconds": 1}],
                         "dropped_spans": 0}, events)


CASES = {
    "empty": case_empty,
    "full": case_full,
    "minimal": case_minimal,
    "partial": case_partial,
    "absent": case_absent,
}

EXPECTED_SIGNALS = {
    "empty": {},
    "full": {
        "measured_availability": {"col": 0.875},
        "run_counts": {"completed": 6.0, "degraded": 1.0, "failed": 1.0},
        "degraded_fraction": 0.125,
        "failure_fraction": 0.125,
        "processor_seconds": {
            "Species_check": {"count": 1, "mean": 2.5, "max": 2.5,
                              "sum": 2.5},
        },
        "last_run_finished": "2013-05-02T10:00:00",
    },
    "minimal": {"run_counts": {"completed": 0.0}},
    "partial": {
        "measured_availability": {"site=x": 0.5},
        "run_counts": {"unknown": 2.0},
        "degraded_fraction": 0.0,
        "failure_fraction": 0.0,
        "processor_seconds": {
            "site=x": {"count": 1, "mean": 1.0, "max": 1.0, "sum": 1.0},
        },
    },
    "absent": {
        "measured_availability": {"col": 0.9, "gaz": 1.0},
        "run_counts": {"completed": 3.0},
        "degraded_fraction": 0.0,
        "failure_fraction": 0.0,
        "processor_seconds": {
            "a": {"count": 2, "mean": 1.0, "max": 1.5, "sum": 2.0},
            "b": {"count": 1, "mean": 0.25, "max": 0.25, "sum": 0.25},
        },
        "last_run_finished": "2011-01-01T00:00:00",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    rendered = render_report(CASES[case]()) + "\n"
    golden = GOLDEN_DIR / f"report_{case}.txt"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered, encoding="utf-8")
        pytest.skip("golden file regenerated; review the diff and rerun")
    assert golden.exists(), (
        f"missing golden file {golden}; run with REPRO_REGEN_GOLDEN=1 to "
        "create it"
    )
    assert rendered == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_quality_signals(case):
    assert quality_signals(CASES[case]()) == EXPECTED_SIGNALS[case]


PANEL_TITLES = (
    "engine scheduling & caches", "curation pipeline",
    "storage query planner", "preservation vault", "federated vault",
    "provenance store", "static analysis", "multi-tenant service",
    "streaming curation",
)


def test_cases_show_every_panel_present_and_absent():
    full = render_report(case_full()).splitlines()
    minimal = render_report(case_minimal()).splitlines()
    absent = render_report(case_absent()).splitlines()
    for title in PANEL_TITLES:
        assert title in full and title in minimal, title
        assert title not in absent, title
