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

from typing import Any, Iterable, Mapping

from repro.telemetry.metrics import format_series

__all__ = ["render_report", "quality_signals"]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:,}"


#: The per-series sections of :func:`render_report`: instrument type,
#: the field that must be non-zero for a series to be listed (``None``:
#: always listed), title, and row format.
_SECTIONS: tuple[tuple[str, str | None, str, Any], ...] = (
    ("histogram", "count",
     "histograms (count / mean / max, seconds or items)",
     lambda series, data: f"  {series:<48} {_fmt(data['count']):>6}"
                          f" {_fmt(data['mean']):>10} {_fmt(data['max']):>10}"),
    ("counter", "value", "counters",
     lambda series, data: f"  {series:<54} {_fmt(data['value']):>8}"),
    ("gauge", None, "gauges",
     lambda series, data: f"  {series:<54} {_fmt(data['value']):>8}"),
    ("window", "count", "sliding windows (in-window / mean / last)",
     lambda series, data: f"  {series:<44} {_fmt(data['count']):>4}"
                          f"/{data['size']}"
                          f" {_fmt(data['mean']):>9} {_fmt(data['last']):>9}"),
)


def _section(lines: list[str], title: str, rows: list[str]) -> None:
    """Append a titled block of ``rows`` (nothing when there are none)."""
    if rows:
        lines.extend(["", title, "-" * 64, *rows])


def render_report(snapshot: Mapping[str, Any]) -> str:
    """A human-readable observability panel from one snapshot."""
    metrics: Mapping[str, Any] = snapshot.get("metrics", {})
    lines: list[str] = ["Telemetry report", "=" * 64]
    for kind, required, title, row in _SECTIONS:
        _section(lines, title, [
            row(series, metrics[series]) for series in sorted(metrics)
            if metrics[series].get("type") == kind
            and (required is None or metrics[series].get(required))
        ])

    spans = snapshot.get("spans", {})
    if spans.get("spans"):
        by_name: dict[str, list[float]] = {}
        for span in spans["spans"]:
            duration = span.get("duration_seconds")
            if duration is not None:
                by_name.setdefault(span["name"], []).append(duration)
        lines.extend(["", "spans (count / total simulated seconds)", "-" * 64])
        lines.extend(
            f"  {name:<54} {len(durations):>4} {_fmt(sum(durations)):>8}"
            for name, durations in sorted(by_name.items()))
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

    view = _SnapshotView(metrics)
    for title, panel in _PANELS:
        _section(lines, title, panel(view))
    return "\n".join(lines)


Labels = dict[str, str]


class _SnapshotView:
    """A snapshot's series keys parsed once into ``family -> [(labels,
    data)]``, in snapshot order, for the panels to query."""

    def __init__(self, metrics: Mapping[str, Any]) -> None:
        self.families: dict[str, list[tuple[Labels, Mapping[str, Any]]]] = {}
        for series, data in metrics.items():
            family, _, inner = series.partition("{")
            labels = dict(
                part.partition("=")[::2]
                for part in inner.rstrip("}").split(",")
            ) if inner else {}
            self.families.setdefault(family, []).append((labels, data))

    def has(self, *prefixes: str) -> bool:
        """Whether any family starts with one of ``prefixes``."""
        return any(family.startswith(prefixes) for family in self.families)

    def series(self, family: str,
               kind: str | None = None) -> list[tuple[Labels, Any]]:
        """The family's ``(labels, data)`` pairs, of one ``kind`` when
        given."""
        return [
            (labels, data) for labels, data in self.families.get(family, ())
            if kind is None or data.get("type") == kind
        ]

    def total(self, family: str) -> float:
        """Sum of a counter family's values across all label series."""
        return sum((data["value"]
                    for _, data in self.series(family, "counter")), 0.0)

    def by_label(self, family: str, label: str) -> dict[str, float]:
        """Counter totals of the family's labelled series, keyed by
        ``label`` (``"unknown"`` where a series lacks it)."""
        totals: dict[str, float] = {}
        for labels, data in self.series(family, "counter"):
            if labels:
                key = labels.get(label, "unknown")
                totals[key] = totals.get(key, 0) + data["value"]
        return totals

    def gauges(self, family: str) -> list[float]:
        """The family's gauge values."""
        return [data["value"] for _, data in self.series(family, "gauge")]


def _breakdown(totals: Mapping[str, float], order: Iterable[str]) -> str:
    """``"<n> <key>, ..."`` for the keys of ``order`` present in
    ``totals``."""
    return ", ".join(
        f"{_fmt(totals[key])} {key}" for key in order if key in totals)


def _now_lines(view: _SnapshotView,
               gauges: tuple[tuple[str, str], ...]) -> list[str]:
    """``<label> now <value>`` for each gauge family present (its first
    series)."""
    return [f"  {label} now {_fmt(view.gauges(family)[0])}"
            for family, label in gauges if view.gauges(family)]


def _engine_panel(view: _SnapshotView) -> list[str]:
    """Wave-scheduler and cache activity."""
    if not view.has("engine_", "taxonomy_cache_"):
        return []
    lines = [
        f"  waves scheduled {_fmt(view.total('engine_waves_total'))},"
        f" parallel dispatches "
        f"{_fmt(view.total('engine_parallel_dispatch_total'))}",
    ]
    processor_runs = view.total("workflow_processor_runs_total")
    if processor_runs:
        failures = view.total("workflow_processor_failures_total")
        items = view.total("workflow_iteration_items_total")
        lines.append(
            f"  processors run {_fmt(processor_runs)}"
            f" ({_fmt(failures)} failed),"
            f" iteration items {_fmt(items)}"
        )
    hits = view.total("engine_cache_hits_total")
    misses = view.total("engine_cache_misses_total")
    lookups = hits + misses
    if lookups:
        skipped = view.total("cache_store_skipped_total")
        lines.append(
            f"  result cache: {_fmt(hits)} hits / {_fmt(misses)} misses"
            f" (hit rate {hits / lookups:.1%},"
            f" {_fmt(skipped)} stores skipped)"
        )
    invalidated = view.total("cache_tag_invalidations_total")
    if invalidated:
        lines.append(
            f"  tag invalidations dropped {_fmt(invalidated)} "
            f"cached entr{'y' if invalidated == 1 else 'ies'}"
        )
    taxonomy_hits = view.total("taxonomy_cache_hits_total")
    if taxonomy_hits:
        lines.append(f"  taxonomy memo hits {_fmt(taxonomy_hits)}")
    catalogue_calls = view.total("service_calls_total")
    if catalogue_calls:
        retries = view.total("service_retries_total")
        lines.append(
            f"  catalogue service calls {_fmt(catalogue_calls)}"
            f" ({_fmt(retries)} retried)"
        )
    listener_errors = view.total("engine_listener_errors_total")
    if listener_errors:
        lines.append(f"  listener errors {_fmt(listener_errors)}")
    return lines


def _curation_panel(view: _SnapshotView) -> list[str]:
    """Curation-pipeline throughput."""
    runs = view.total("curation_stage_runs_total")
    if not runs:
        return []
    records = view.total("curation_stage_records_total")
    return [f"  stage runs {_fmt(runs)}, records processed {_fmt(records)}"]


def _planner_panel(view: _SnapshotView) -> list[str]:
    """Query-planner activity."""
    decisions = view.total("storage_planner_decisions_total")
    if not decisions:
        return []
    return [
        f"  planner decisions {_fmt(decisions)}:"
        f" index hits {_fmt(view.total('storage_index_hits_total'))},"
        f" full scans {_fmt(view.total('storage_full_scans_total'))}",
        f"  rows scanned {_fmt(view.total('storage_rows_scanned_total'))}",
    ]


def _vault_panel(view: _SnapshotView) -> list[str]:
    """The preservation vault's ingest, audit and migration activity."""
    if not view.has("vault_"):
        return []
    lines = [
        f"  objects ingested {_fmt(view.total('vault_objects_ingested_total'))}"
        f" ({_fmt(view.total('vault_bytes_ingested_total'))} bytes,"
        f" {_fmt(view.total('vault_objects_deduplicated_total'))} deduplicated)",
        f"  audit sweeps {_fmt(view.total('vault_audit_sweeps_total'))}:"
        f" {_fmt(view.total('vault_objects_audited_total'))} objects,"
        f" {_fmt(view.total('vault_bytes_audited_total'))} bytes audited",
        f"  corruptions found {_fmt(view.total('vault_corruptions_found_total'))},"
        f" repaired {_fmt(view.total('vault_corruptions_repaired_total'))}",
        f"  format migrations {_fmt(view.total('vault_migrations_total'))}",
    ]
    lags = view.gauges("vault_replica_lag")
    if lags:
        lines.append(f"  replica lag max {_fmt(max(lags))} object(s)")
    return lines


def _federation_panel(view: _SnapshotView) -> list[str]:
    """Multi-site federation activity."""
    if not view.has("federation_"):
        return []
    lines = [
        f"  objects placed {_fmt(view.total('federation_objects_stored_total'))}"
        f" as {_fmt(view.total('federation_fragments_stored_total'))} fragments"
        f" ({_fmt(view.total('federation_bytes_stored_total'))} bytes)",
        f"  syncs {_fmt(view.total('federation_sync_runs_total'))}:"
        f" {_fmt(view.total('federation_sync_repairs_total'))} fragment(s) repaired,"
        f" {_fmt(view.total('federation_sync_unrecoverable_total'))} unrecoverable",
        f"  sampling scrubs {_fmt(view.total('federation_audit_scrubs_total'))}:"
        f" {_fmt(view.total('federation_objects_scrubbed_total'))} objects,"
        f" {_fmt(view.total('federation_corruptions_found_total'))} rotten",
        f"  fragments rebuilt after site loss "
        f"{_fmt(view.total('federation_rebuilt_fragments_total'))}",
    ]
    reads = view.total("federation_reads_total")
    if reads:
        lines.append(f"  objects read back {_fmt(reads)}")
    return lines + _now_lines(view, (
        ("federation_sites_available", "sites available"),
        ("federation_sites", "sites")))


def _provstore_panel(view: _SnapshotView) -> list[str]:
    """Archival provenance-store activity and the bytes each captured
    run persisted."""
    if not view.has("provstore_"):
        return []
    lines = [
        f"  runs ingested {_fmt(view.total('provstore_runs_ingested_total'))}"
        f" ({_fmt(view.total('provstore_nodes_ingested_total'))} nodes,"
        f" {_fmt(view.total('provstore_edges_ingested_total'))} edges,"
        f" {_fmt(view.total('provstore_reingest_skipped_total'))} re-ingests skipped)",
    ]
    lines += _now_lines(view, (
        ("provstore_sealed_segments", "sealed segments"),
        ("provstore_tail_runs", "tail runs"),
        ("provstore_pool_strings", "interned strings")))
    seals = view.total("provstore_segments_sealed_total")
    if seals:
        lines.append(f"  segment seal operations {_fmt(seals)}")
    queries = view.total("provstore_queries_total")
    if queries:
        truncated = view.total("provstore_truncations_total")
        lines.append(
            f"  lineage queries {_fmt(queries)}"
            f" ({_fmt(truncated)} budget-truncated)"
        )
    if view.total("provenance_run_bytes_total"):
        parts = view.by_label("provenance_run_bytes_total", "part")
        lines.append(
            f"  run bytes persisted: skeletons {_fmt(parts.get('skeleton', 0))},"
            f" new values {_fmt(parts.get('values', 0))},"
            f" graphs {_fmt(parts.get('graph', 0))}"
            f" ({_fmt(view.total('provenance_values_deduplicated_total'))}"
            f" values deduplicated)"
        )
    return lines


def _analysis_panel(view: _SnapshotView) -> list[str]:
    """The lint activity summary."""
    if not view.has("analysis_"):
        return []
    severities = _breakdown(
        view.by_label("analysis_diagnostics_total", "severity"),
        ("error", "warning", "info")) or "none"
    lines = [
        f"  rule passes {_fmt(view.total('analysis_runs_total'))},"
        f" diagnostics {_fmt(view.total('analysis_diagnostics_total'))}"
        f" ({severities})",
        f"  baseline-suppressed "
        f"{_fmt(view.total('analysis_suppressed_total'))}",
    ]
    code_runs = view.total("analysis_code_runs_total")
    if code_runs:
        lines.append(
            f"  source analyzer: {_fmt(code_runs)} run(s) over"
            f" {_fmt(view.total('analysis_code_files_total'))} file(s) /"
            f" {_fmt(view.total('analysis_code_functions_total'))} function(s),"
            f" findings {_fmt(view.total('analysis_code_findings_total'))}"
        )
    return lines


def _service_panel(view: _SnapshotView) -> list[str]:
    """Request-façade activity (empty until a ``service_requests_total``
    series exists — note the taxonomy ``service_measured_availability``
    gauge shares the prefix but does not come from the façade)."""
    if "service_requests_total" not in view.families:
        return []
    by_outcome = view.by_label("service_requests_total", "outcome")
    outcomes = _breakdown(
        by_outcome, ("ok", "rejected", "conflict", "error")) or "none"
    lines = [f"  requests {_fmt(sum(by_outcome.values()))} ({outcomes})"]
    latencies = [data for _, data in view.series("service_request_seconds")
                 if data.get("count")]
    if latencies:
        count = sum(data["count"] for data in latencies)
        weighted_sum = sum((data["sum"] for data in latencies), 0.0)
        lines.append(
            f"  latency mean {_fmt(weighted_sum / count)}s,"
            f" max {_fmt(max(data['max'] for data in latencies))}s"
            f" over {_fmt(count)} request(s)"
        )
    rejected = view.total("service_admission_rejected_total")
    quota = view.total("service_quota_rejected_total")
    if rejected or quota:
        lines.append(
            f"  shed load: admission {_fmt(rejected)}, quota {_fmt(quota)}")
    errors = view.total("service_errors_total")
    unexpected = view.total("service_unexpected_errors_total")
    if errors or unexpected:
        lines.append(
            f"  operation errors {_fmt(errors)}"
            f" ({_fmt(unexpected)} unexpected)"
        )
    retries = view.total("service_conflict_retries_total")
    conflicts = view.total("storage_transaction_conflicts_total")
    if retries or conflicts:
        lines.append(
            f"  write conflicts {_fmt(conflicts)}"
            f" (ingest retries {_fmt(retries)})"
        )
    snapshots = view.total("storage_snapshots_total")
    if snapshots:
        lines.append(f"  MVCC snapshots taken {_fmt(snapshots)}")
    abandoned = view.total("storage_rollback_failures_total")
    if abandoned:
        lines.append(
            f"  rollback failures (transactions abandoned) {_fmt(abandoned)}"
        )
    return lines + _now_lines(view, (("service_in_flight", "in_flight"),
                                     ("service_queue_depth", "queue_depth")))


def _streaming_panel(view: _SnapshotView) -> list[str]:
    """Continuous-ingest and incremental-curation activity."""
    if not view.has("streaming_"):
        return []
    lines: list[str] = []
    ingested = view.total("streaming_ingested_total")
    rejected = view.total("streaming_rejected_total")
    if ingested or rejected:
        depths = view.gauges("streaming_buffer_depth")
        lines.append(
            f"  ingested {_fmt(ingested)} record(s) in "
            f"{_fmt(view.total('streaming_batches_total'))} micro-batch(es), "
            f"{_fmt(rejected)} rejected by backpressure"
            + (f", buffer depth now {_fmt(depths[0])}" if depths else "")
        )
    sweeps = view.total("streaming_sweeps_total")
    if sweeps:
        recomputed = view.total("streaming_shards_recomputed_total")
        reused = view.total("streaming_shards_reused_total")
        total_shards = recomputed + reused
        lines.append(
            f"  {_fmt(sweeps)} assessment sweep(s): "
            f"{_fmt(recomputed)} shard(s) recomputed, "
            f"{_fmt(reused)} reused"
            + (f" (dirty fraction {recomputed / total_shards:.1%})"
               if total_shards else "")
        )
    dirty = view.total("streaming_dirty_records_total")
    if dirty:
        lines.append(f"  dirty records observed {_fmt(dirty)}")
    rechecks = view.total("streaming_rechecks_total")
    if rechecks:
        by_reason = view.by_label("streaming_rechecks_total", "reason")
        detail = _breakdown(by_reason, sorted(by_reason))
        lines.append(
            f"  rechecks enqueued {_fmt(rechecks)}"
            + (f" ({detail})" if detail else "")
        )
    windows = sorted(
        (format_series(family, tuple(labels.items())), family, data)
        for family in view.families
        if family.startswith("streaming_window_")
        for labels, data in view.series(family, "window")
        if data.get("count")
    )
    for _, family, data in windows:
        lines.append(
            f"  {family.removeprefix('streaming_window_')} lately: "
            f"mean {_fmt(data['mean'])}, last {_fmt(data['last'])} "
            f"over {_fmt(data['count'])} sample(s)"
        )
    return lines


#: The panels :func:`render_report` prints after the generic sections,
#: in order, each under its title when it returns any lines.
_PANELS = (
    ("engine scheduling & caches", _engine_panel),
    ("curation pipeline", _curation_panel),
    ("storage query planner", _planner_panel),
    ("preservation vault", _vault_panel),
    ("federated vault", _federation_panel),
    ("provenance store", _provstore_panel),
    ("static analysis", _analysis_panel),
    ("multi-tenant service", _service_panel),
    ("streaming curation", _streaming_panel),
)


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
    view = _SnapshotView(snapshot.get("metrics", {}))
    signals: dict[str, Any] = {}

    availability = {
        labels.get("service", _label_text(labels)): data["value"]
        for labels, data in view.series("service_measured_availability")
        if labels
    }
    if availability:
        signals["measured_availability"] = availability

    run_counts = view.by_label("workflow_runs_total", "status")
    if run_counts:
        signals["run_counts"] = run_counts
        total = sum(run_counts.values())
        if total:
            signals["degraded_fraction"] = (
                run_counts.get("degraded", 0) / total
            )
            signals["failure_fraction"] = run_counts.get("failed", 0) / total

    processor_seconds = {
        labels.get("processor", _label_text(labels)): {
            "count": data["count"],
            "mean": data["mean"],
            "max": data["max"],
            "sum": data["sum"],
        }
        for labels, data in view.series("workflow_processor_seconds")
        if labels and data.get("count")
    }
    if processor_seconds:
        signals["processor_seconds"] = processor_seconds

    for entry in reversed(
            snapshot.get("events", {}).get("events", ())):
        if entry.get("event") == "run_finished" and entry.get("finished"):
            signals["last_run_finished"] = entry["finished"]
            break
    return signals


def _label_text(labels: Labels) -> str:
    """The ``key=value,...`` text a series key carries in braces."""
    return ",".join(f"{key}={value}" for key, value in labels.items())
