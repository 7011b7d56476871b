"""Snapshot rendering and the quality-assessment bridge.

:func:`render_report` turns a :meth:`Telemetry.snapshot` dict into the
text panel behind ``repro stats``.  :func:`quality_signals` distills the
same snapshot into the handful of numbers the Data Quality Manager
consumes as an *external source* — the paper's loop between operations
and quality assessment: the Catalogue processor is annotated
``Q(availability): 0.9`` because real runs fail, and here the failures
observed by the runtime feed straight back into the assessment.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["render_report", "quality_signals"]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def render_report(snapshot: Mapping[str, Any]) -> str:
    """A human-readable observability panel from one snapshot."""
    metrics: Mapping[str, Any] = snapshot.get("metrics", {})
    lines: list[str] = ["Telemetry report", "=" * 64]

    counters = {
        series: data for series, data in metrics.items()
        if data.get("type") == "counter" and data.get("value")
    }
    gauges = {
        series: data for series, data in metrics.items()
        if data.get("type") == "gauge"
    }
    histograms = {
        series: data for series, data in metrics.items()
        if data.get("type") == "histogram" and data.get("count")
    }
    windows = {
        series: data for series, data in metrics.items()
        if data.get("type") == "window" and data.get("count")
    }

    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / max, seconds or items)")
        lines.append("-" * 64)
        for series in sorted(histograms):
            data = histograms[series]
            lines.append(
                f"  {series:<48} {_fmt(data['count']):>6}"
                f" {_fmt(data['mean']):>10} {_fmt(data['max']):>10}"
            )
    if counters:
        lines.append("")
        lines.append("counters")
        lines.append("-" * 64)
        for series in sorted(counters):
            lines.append(
                f"  {series:<54} {_fmt(counters[series]['value']):>8}"
            )
    if gauges:
        lines.append("")
        lines.append("gauges")
        lines.append("-" * 64)
        for series in sorted(gauges):
            lines.append(
                f"  {series:<54} {_fmt(gauges[series]['value']):>8}"
            )
    if windows:
        lines.append("")
        lines.append("sliding windows (in-window / mean / last)")
        lines.append("-" * 64)
        for series in sorted(windows):
            data = windows[series]
            lines.append(
                f"  {series:<44} {_fmt(data['count']):>4}/{data['size']}"
                f" {_fmt(data['mean']):>9} {_fmt(data['last']):>9}"
            )

    spans = snapshot.get("spans", {})
    span_list = spans.get("spans", ())
    if span_list:
        by_name: dict[str, list[float]] = {}
        for span in span_list:
            duration = span.get("duration_seconds")
            if duration is not None:
                by_name.setdefault(span["name"], []).append(duration)
        lines.append("")
        lines.append("spans (count / total simulated seconds)")
        lines.append("-" * 64)
        for name in sorted(by_name):
            durations = by_name[name]
            lines.append(
                f"  {name:<54} {len(durations):>4}"
                f" {_fmt(sum(durations)):>8}"
            )
        if spans.get("dropped_spans"):
            lines.append(f"  (dropped {spans['dropped_spans']} spans)")

    events = snapshot.get("events", {})
    if events.get("recorded"):
        lines.append("")
        lines.append(
            f"events: {events['recorded']} recorded"
            + (f", {events['dropped']} dropped" if events.get("dropped")
               else "")
        )
        last_run = None
        for entry in reversed(events.get("events", ())):
            if entry.get("event") == "run_finished":
                last_run = entry
                break
        if last_run is not None:
            lines.append(
                f"  last run: {last_run.get('run_id')} "
                f"({last_run.get('workflow')}) -> {last_run.get('status')}"
                f", {last_run.get('failed_processors', 0)} failed "
                f"processor(s)"
            )

    engine_lines = _engine_panel(metrics)
    if engine_lines:
        lines.append("")
        lines.append("engine scheduling & caches")
        lines.append("-" * 64)
        lines.extend(engine_lines)

    curation_lines = _curation_panel(metrics)
    if curation_lines:
        lines.append("")
        lines.append("curation pipeline")
        lines.append("-" * 64)
        lines.extend(curation_lines)

    planner_lines = _planner_panel(metrics)
    if planner_lines:
        lines.append("")
        lines.append("storage query planner")
        lines.append("-" * 64)
        lines.extend(planner_lines)

    vault_lines = _vault_panel(metrics)
    if vault_lines:
        lines.append("")
        lines.append("preservation vault")
        lines.append("-" * 64)
        lines.extend(vault_lines)

    federation_lines = _federation_panel(metrics)
    if federation_lines:
        lines.append("")
        lines.append("federated vault")
        lines.append("-" * 64)
        lines.extend(federation_lines)

    provstore_lines = _provstore_panel(metrics)
    if provstore_lines:
        lines.append("")
        lines.append("provenance store")
        lines.append("-" * 64)
        lines.extend(provstore_lines)

    analysis_lines = _analysis_panel(metrics)
    if analysis_lines:
        lines.append("")
        lines.append("static analysis")
        lines.append("-" * 64)
        lines.extend(analysis_lines)

    service_lines = _service_panel(metrics)
    if service_lines:
        lines.append("")
        lines.append("multi-tenant service")
        lines.append("-" * 64)
        lines.extend(service_lines)

    streaming_lines = _streaming_panel(metrics)
    if streaming_lines:
        lines.append("")
        lines.append("streaming curation")
        lines.append("-" * 64)
        lines.extend(streaming_lines)
    return "\n".join(lines)


def _family_total(metrics: Mapping[str, Any], family: str) -> float:
    """Sum of a counter family's values across all label series."""
    total = 0.0
    for series, data in metrics.items():
        if series.split("{", 1)[0] == family \
                and data.get("type") == "counter":
            total += data["value"]
    return total


def _engine_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Wave-scheduler and cache activity for :func:`render_report`
    (empty when no ``engine_*``/``taxonomy_cache_*`` series exist)."""
    if not any(series.split("{", 1)[0].startswith(("engine_",
                                                   "taxonomy_cache_"))
               for series in metrics):
        return []
    lines = [
        f"  waves scheduled {_fmt(_family_total(metrics, 'engine_waves_total'))},"
        f" parallel dispatches "
        f"{_fmt(_family_total(metrics, 'engine_parallel_dispatch_total'))}",
    ]
    processor_runs = _family_total(metrics,
                                   "workflow_processor_runs_total")
    if processor_runs:
        failures = _family_total(metrics,
                                 "workflow_processor_failures_total")
        items = _family_total(metrics, "workflow_iteration_items_total")
        lines.append(
            f"  processors run {_fmt(processor_runs)}"
            f" ({_fmt(failures)} failed),"
            f" iteration items {_fmt(items)}"
        )
    hits = _family_total(metrics, "engine_cache_hits_total")
    misses = _family_total(metrics, "engine_cache_misses_total")
    lookups = hits + misses
    if lookups:
        skipped = _family_total(metrics, "cache_store_skipped_total")
        lines.append(
            f"  result cache: {_fmt(hits)} hits / {_fmt(misses)} misses"
            f" (hit rate {hits / lookups:.1%},"
            f" {_fmt(skipped)} stores skipped)"
        )
    invalidated = _family_total(metrics, "cache_tag_invalidations_total")
    if invalidated:
        lines.append(
            f"  tag invalidations dropped {_fmt(invalidated)} "
            f"cached entr{'y' if invalidated == 1 else 'ies'}"
        )
    taxonomy_hits = _family_total(metrics, "taxonomy_cache_hits_total")
    if taxonomy_hits:
        lines.append(f"  taxonomy memo hits {_fmt(taxonomy_hits)}")
    catalogue_calls = _family_total(metrics, "service_calls_total")
    if catalogue_calls:
        retries = _family_total(metrics, "service_retries_total")
        lines.append(
            f"  catalogue service calls {_fmt(catalogue_calls)}"
            f" ({_fmt(retries)} retried)"
        )
    listener_errors = _family_total(metrics, "engine_listener_errors_total")
    if listener_errors:
        lines.append(f"  listener errors {_fmt(listener_errors)}")
    return lines


def _curation_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Curation-pipeline throughput for :func:`render_report` (empty
    when no stage has run)."""
    runs = _family_total(metrics, "curation_stage_runs_total")
    if not runs:
        return []
    records = _family_total(metrics, "curation_stage_records_total")
    return [
        f"  stage runs {_fmt(runs)},"
        f" records processed {_fmt(records)}",
    ]


def _planner_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Query-planner activity for :func:`render_report` (empty when the
    planner has made no decisions)."""
    decisions = _family_total(metrics, "storage_planner_decisions_total")
    if not decisions:
        return []
    return [
        f"  planner decisions {_fmt(decisions)}:"
        f" index hits {_fmt(_family_total(metrics, 'storage_index_hits_total'))},"
        f" full scans {_fmt(_family_total(metrics, 'storage_full_scans_total'))}",
        f"  rows scanned {_fmt(_family_total(metrics, 'storage_rows_scanned_total'))}",
    ]


def _vault_panel(metrics: Mapping[str, Any]) -> list[str]:
    """The vault activity summary for :func:`render_report` (empty when
    no ``vault_*`` series have been recorded)."""
    if not any(series.split("{", 1)[0].startswith("vault_")
               for series in metrics):
        return []
    lines = [
        f"  objects ingested {_fmt(_family_total(metrics, 'vault_objects_ingested_total'))}"
        f" ({_fmt(_family_total(metrics, 'vault_bytes_ingested_total'))} bytes,"
        f" {_fmt(_family_total(metrics, 'vault_objects_deduplicated_total'))} deduplicated)",
        f"  audit sweeps {_fmt(_family_total(metrics, 'vault_audit_sweeps_total'))}:"
        f" {_fmt(_family_total(metrics, 'vault_objects_audited_total'))} objects,"
        f" {_fmt(_family_total(metrics, 'vault_bytes_audited_total'))} bytes audited",
        f"  corruptions found {_fmt(_family_total(metrics, 'vault_corruptions_found_total'))},"
        f" repaired {_fmt(_family_total(metrics, 'vault_corruptions_repaired_total'))}",
        f"  format migrations {_fmt(_family_total(metrics, 'vault_migrations_total'))}",
    ]
    lags = [
        data["value"] for series, data in metrics.items()
        if series.split("{", 1)[0] == "vault_replica_lag"
        and data.get("type") == "gauge"
    ]
    if lags:
        lines.append(f"  replica lag max {_fmt(max(lags))} object(s)")
    return lines


def _federation_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Multi-site federation activity for :func:`render_report` (empty
    when no ``federation_*`` series have been recorded)."""
    if not any(series.split("{", 1)[0].startswith("federation_")
               for series in metrics):
        return []
    lines = [
        f"  objects placed {_fmt(_family_total(metrics, 'federation_objects_stored_total'))}"
        f" as {_fmt(_family_total(metrics, 'federation_fragments_stored_total'))} fragments"
        f" ({_fmt(_family_total(metrics, 'federation_bytes_stored_total'))} bytes)",
        f"  syncs {_fmt(_family_total(metrics, 'federation_sync_runs_total'))}:"
        f" {_fmt(_family_total(metrics, 'federation_sync_repairs_total'))} fragment(s) repaired,"
        f" {_fmt(_family_total(metrics, 'federation_sync_unrecoverable_total'))} unrecoverable",
        f"  sampling scrubs {_fmt(_family_total(metrics, 'federation_audit_scrubs_total'))}:"
        f" {_fmt(_family_total(metrics, 'federation_objects_scrubbed_total'))} objects,"
        f" {_fmt(_family_total(metrics, 'federation_corruptions_found_total'))} rotten",
        f"  fragments rebuilt after site loss "
        f"{_fmt(_family_total(metrics, 'federation_rebuilt_fragments_total'))}",
    ]
    reads = _family_total(metrics, "federation_reads_total")
    if reads:
        lines.append(f"  objects read back {_fmt(reads)}")
    for name in ("federation_sites_available", "federation_sites"):
        for series, data in metrics.items():
            if series.split("{", 1)[0] == name \
                    and data.get("type") == "gauge":
                lines.append(
                    f"  {name.removeprefix('federation_').replace('_', ' ')}"
                    f" now {_fmt(data['value'])}"
                )
                break
    return lines


def _provstore_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Archival provenance-store activity and the bytes each captured
    run persisted, for :func:`render_report` (empty when no
    ``provstore_*`` series have been recorded)."""
    if not any(series.split("{", 1)[0].startswith("provstore_")
               for series in metrics):
        return []
    lines = [
        f"  runs ingested {_fmt(_family_total(metrics, 'provstore_runs_ingested_total'))}"
        f" ({_fmt(_family_total(metrics, 'provstore_nodes_ingested_total'))} nodes,"
        f" {_fmt(_family_total(metrics, 'provstore_edges_ingested_total'))} edges,"
        f" {_fmt(_family_total(metrics, 'provstore_reingest_skipped_total'))} re-ingests skipped)",
    ]
    for name, label in (("provstore_sealed_segments", "sealed segments"),
                        ("provstore_tail_runs", "tail runs"),
                        ("provstore_pool_strings", "interned strings")):
        for series, data in metrics.items():
            if series.split("{", 1)[0] == name \
                    and data.get("type") == "gauge":
                lines.append(f"  {label} now {_fmt(data['value'])}")
                break
    seals = _family_total(metrics, "provstore_segments_sealed_total")
    if seals:
        lines.append(f"  segment seal operations {_fmt(seals)}")
    queries = _family_total(metrics, "provstore_queries_total")
    if queries:
        truncated = _family_total(metrics, "provstore_truncations_total")
        lines.append(
            f"  lineage queries {_fmt(queries)}"
            f" ({_fmt(truncated)} budget-truncated)"
        )
    if _family_total(metrics, "provenance_run_bytes_total"):
        parts = {
            part: metrics.get(f"provenance_run_bytes_total{{part={part}}}",
                              {}).get("value", 0)
            for part in ("skeleton", "values", "graph")
        }
        lines.append(
            f"  run bytes persisted: skeletons {_fmt(parts['skeleton'])},"
            f" new values {_fmt(parts['values'])},"
            f" graphs {_fmt(parts['graph'])}"
            f" ({_fmt(_family_total(metrics, 'provenance_values_deduplicated_total'))}"
            f" values deduplicated)"
        )
    return lines


def _analysis_panel(metrics: Mapping[str, Any]) -> list[str]:
    """The lint activity summary for :func:`render_report` (empty when
    no ``analysis_*`` series have been recorded)."""
    if not any(series.split("{", 1)[0].startswith("analysis_")
               for series in metrics):
        return []
    by_severity: dict[str, float] = {}
    for series, data in metrics.items():
        if (series.split("{", 1)[0] == "analysis_diagnostics_total"
                and data.get("type") == "counter"):
            label = series.split("{", 1)[1].rstrip("}")
            labels = dict(part.split("=", 1) for part in label.split(","))
            severity = labels.get("severity", "unknown")
            by_severity[severity] = (
                by_severity.get(severity, 0) + data["value"]
            )
    severities = ", ".join(
        f"{_fmt(by_severity[severity])} {severity}"
        for severity in ("error", "warning", "info")
        if severity in by_severity
    ) or "none"
    lines = [
        f"  rule passes {_fmt(_family_total(metrics, 'analysis_runs_total'))},"
        f" diagnostics {_fmt(_family_total(metrics, 'analysis_diagnostics_total'))}"
        f" ({severities})",
        f"  baseline-suppressed "
        f"{_fmt(_family_total(metrics, 'analysis_suppressed_total'))}",
    ]
    code_runs = _family_total(metrics, "analysis_code_runs_total")
    if code_runs:
        lines.append(
            f"  source analyzer: {_fmt(code_runs)} run(s) over"
            f" {_fmt(_family_total(metrics, 'analysis_code_files_total'))} file(s) /"
            f" {_fmt(_family_total(metrics, 'analysis_code_functions_total'))} function(s),"
            f" findings {_fmt(_family_total(metrics, 'analysis_code_findings_total'))}"
        )
    return lines


def _service_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Request-façade activity for :func:`render_report` (empty until a
    ``service_requests_total`` series exists — note the taxonomy
    ``service_measured_availability`` gauge shares the prefix but does
    not come from the façade)."""
    if not any(series.split("{", 1)[0] == "service_requests_total"
               for series in metrics):
        return []
    by_outcome: dict[str, float] = {}
    for series, data in metrics.items():
        if (series.split("{", 1)[0] == "service_requests_total"
                and data.get("type") == "counter"):
            label = series.split("{", 1)[1].rstrip("}")
            labels = dict(part.split("=", 1) for part in label.split(","))
            outcome = labels.get("outcome", "unknown")
            by_outcome[outcome] = by_outcome.get(outcome, 0) + data["value"]
    total = sum(by_outcome.values())
    outcomes = ", ".join(
        f"{_fmt(by_outcome[outcome])} {outcome}"
        for outcome in ("ok", "rejected", "conflict", "error")
        if outcome in by_outcome
    ) or "none"
    lines = [f"  requests {_fmt(total)} ({outcomes})"]
    count = 0
    weighted_sum = 0.0
    latency_max: float | None = None
    for series, data in metrics.items():
        if (series.split("{", 1)[0] == "service_request_seconds"
                and data.get("count")):
            count += data["count"]
            weighted_sum += data["sum"]
            if latency_max is None or data["max"] > latency_max:
                latency_max = data["max"]
    if count:
        lines.append(
            f"  latency mean {_fmt(weighted_sum / count)}s,"
            f" max {_fmt(latency_max)}s over {_fmt(count)} request(s)"
        )
    rejected = _family_total(metrics, "service_admission_rejected_total")
    quota = _family_total(metrics, "service_quota_rejected_total")
    if rejected or quota:
        lines.append(
            f"  shed load: admission {_fmt(rejected)},"
            f" quota {_fmt(quota)}"
        )
    errors = _family_total(metrics, "service_errors_total")
    unexpected = _family_total(metrics, "service_unexpected_errors_total")
    if errors or unexpected:
        lines.append(
            f"  operation errors {_fmt(errors)}"
            f" ({_fmt(unexpected)} unexpected)"
        )
    retries = _family_total(metrics, "service_conflict_retries_total")
    conflicts = _family_total(metrics, "storage_transaction_conflicts_total")
    if retries or conflicts:
        lines.append(
            f"  write conflicts {_fmt(conflicts)}"
            f" (ingest retries {_fmt(retries)})"
        )
    snapshots = _family_total(metrics, "storage_snapshots_total")
    if snapshots:
        lines.append(f"  MVCC snapshots taken {_fmt(snapshots)}")
    abandoned = _family_total(metrics, "storage_rollback_failures_total")
    if abandoned:
        lines.append(
            f"  rollback failures (transactions abandoned) {_fmt(abandoned)}"
        )
    for name in ("service_in_flight", "service_queue_depth"):
        for series, data in metrics.items():
            if series.split("{", 1)[0] == name \
                    and data.get("type") == "gauge":
                lines.append(
                    f"  {name.removeprefix('service_')} now "
                    f"{_fmt(data['value'])}"
                )
                break
    return lines


def _streaming_panel(metrics: Mapping[str, Any]) -> list[str]:
    """Continuous-ingest and incremental-curation activity for
    :func:`render_report` (empty until a ``streaming_*`` series
    exists)."""
    if not any(series.split("{", 1)[0].startswith("streaming_")
               for series in metrics):
        return []
    lines: list[str] = []
    ingested = _family_total(metrics, "streaming_ingested_total")
    rejected = _family_total(metrics, "streaming_rejected_total")
    batches = _family_total(metrics, "streaming_batches_total")
    if ingested or rejected:
        depth = None
        for series, data in metrics.items():
            if series.split("{", 1)[0] == "streaming_buffer_depth" \
                    and data.get("type") == "gauge":
                depth = data["value"]
                break
        lines.append(
            f"  ingested {_fmt(ingested)} record(s) in "
            f"{_fmt(batches)} micro-batch(es), "
            f"{_fmt(rejected)} rejected by backpressure"
            + (f", buffer depth now {_fmt(depth)}"
               if depth is not None else "")
        )
    sweeps = _family_total(metrics, "streaming_sweeps_total")
    if sweeps:
        recomputed = _family_total(
            metrics, "streaming_shards_recomputed_total")
        reused = _family_total(metrics, "streaming_shards_reused_total")
        total_shards = recomputed + reused
        lines.append(
            f"  {_fmt(sweeps)} assessment sweep(s): "
            f"{_fmt(recomputed)} shard(s) recomputed, "
            f"{_fmt(reused)} reused"
            + (f" (dirty fraction {recomputed / total_shards:.1%})"
               if total_shards else "")
        )
    dirty = _family_total(metrics, "streaming_dirty_records_total")
    if dirty:
        lines.append(f"  dirty records observed {_fmt(dirty)}")
    rechecks = _family_total(metrics, "streaming_rechecks_total")
    if rechecks:
        by_reason: dict[str, float] = {}
        for series, data in metrics.items():
            if (series.split("{", 1)[0] == "streaming_rechecks_total"
                    and data.get("type") == "counter" and "{" in series):
                label = series.split("{", 1)[1].rstrip("}")
                labels = dict(
                    part.split("=", 1) for part in label.split(","))
                reason = labels.get("reason", "unknown")
                by_reason[reason] = by_reason.get(reason, 0) + data["value"]
        detail = ", ".join(
            f"{_fmt(by_reason[reason])} {reason}"
            for reason in sorted(by_reason)
        )
        lines.append(
            f"  rechecks enqueued {_fmt(rechecks)}"
            + (f" ({detail})" if detail else "")
        )
    for series in sorted(metrics):
        family = series.split("{", 1)[0]
        data = metrics[series]
        if family.startswith("streaming_window_") \
                and data.get("type") == "window" and data.get("count"):
            lines.append(
                f"  {family.removeprefix('streaming_window_')} lately: "
                f"mean {_fmt(data['mean'])}, last {_fmt(data['last'])} "
                f"over {_fmt(data['count'])} sample(s)"
            )
    return lines


def quality_signals(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """Distill a snapshot into quality-manager inputs.

    Returns (every key optional — absent when unobserved):

    * ``measured_availability`` — per-service observed success fraction;
    * ``run_counts`` — runs by final status;
    * ``degraded_fraction`` / ``failure_fraction`` — of finished runs;
    * ``processor_seconds`` — per-processor duration stats;
    * ``last_run_finished`` — simulated finish time of the latest run
      (the raw material for timeliness metrics).
    """
    metrics: Mapping[str, Any] = snapshot.get("metrics", {})
    signals: dict[str, Any] = {}

    availability: dict[str, float] = {}
    for series, data in metrics.items():
        if series.startswith("service_measured_availability{"):
            label = series.split("{", 1)[1].rstrip("}")
            service = dict(
                part.split("=", 1) for part in label.split(",")
            ).get("service", label)
            availability[service] = data["value"]
    if availability:
        signals["measured_availability"] = availability

    run_counts: dict[str, float] = {}
    for series, data in metrics.items():
        if series.startswith("workflow_runs_total{"):
            label = series.split("{", 1)[1].rstrip("}")
            labels = dict(part.split("=", 1) for part in label.split(","))
            status = labels.get("status", "unknown")
            run_counts[status] = run_counts.get(status, 0) + data["value"]
    if run_counts:
        signals["run_counts"] = run_counts
        total = sum(run_counts.values())
        if total:
            signals["degraded_fraction"] = (
                run_counts.get("degraded", 0) / total
            )
            signals["failure_fraction"] = run_counts.get("failed", 0) / total

    processor_seconds: dict[str, dict[str, Any]] = {}
    for series, data in metrics.items():
        if (series.startswith("workflow_processor_seconds{")
                and data.get("count")):
            label = series.split("{", 1)[1].rstrip("}")
            labels = dict(part.split("=", 1) for part in label.split(","))
            processor = labels.get("processor", label)
            processor_seconds[processor] = {
                "count": data["count"],
                "mean": data["mean"],
                "max": data["max"],
                "sum": data["sum"],
            }
    if processor_seconds:
        signals["processor_seconds"] = processor_seconds

    for entry in reversed(
            snapshot.get("events", {}).get("events", ())):
        if entry.get("event") == "run_finished" and entry.get("finished"):
            signals["last_run_finished"] = entry["finished"]
            break
    return signals
