"""Infrastructure benchmark: incremental streaming curation.

A ~6k-record collection is curated cold, then hit with ~1% churn — a
burst of streamed arrivals landing in the tail shard plus a cluster of
in-place re-determinations — and re-assessed twice: incrementally (the
warm curator recomputes only the dirty shards) and cold (a brand-new
curator re-runs everything).  Results land in ``BENCH_streaming.json``
at the repository root: wall-clock per phase, shard economics, and the
incremental/cold speedup CI gates on.

Equivalence is asserted unconditionally: the incremental digest must be
byte-identical to the cold ground truth — reuse must never buy a
different answer.

A micro-benchmark rides along for the bulk observation path:
:meth:`ObservationStore.add_all` (one context pre-pass, one
``bulk_load`` per table) must beat the equivalent per-record ``add``
loop on the same batch.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.observations.model import Entity, Measurement, Observation
from repro.observations.store import ObservationStore
from repro.storage import Column, Database, TableSchema, col
from repro.storage import column_types as ct
from repro.streaming import IncrementalCurator, ObservationStream

from floors import check_floor

pytestmark = pytest.mark.smoke

RESULTS_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_streaming.json")

N_RECORDS = 6000
SHARD_SIZE = 64
N_ARRIVALS = 32          # streamed appends, land in the tail shards
N_EDITS = 28             # clustered in-place re-determinations
EDIT_BASE = 3000         # edits cluster here: few owning shards
N_OBSERVATIONS = 1500    # micro-benchmark batch size
#: floor for incremental over cold re-curation (see floors.py)
MIN_INCREMENTAL_SPEEDUP = 10.0


def _bench_database(n_records: int) -> Database:
    database = Database()
    database.create_table(TableSchema("recordings", [
        Column("record_id", ct.INTEGER),
        Column("species", ct.TEXT),
        Column("genus", ct.TEXT),
        Column("country", ct.TEXT),
        Column("state", ct.TEXT),
        Column("collect_date", ct.TEXT),
    ], primary_key="record_id"))
    rows = []
    for i in range(1, n_records + 1):
        name = (f"Oldus species{i % 11}" if i % 40 == 0
                else f"Goodus species{i % 97}")
        rows.append({
            "record_id": i,
            "species": name,
            "genus": name.split()[0],
            "country": "Brasil",
            "state": None if i % 50 == 0 else "SP",
            "collect_date": "1999-01-01",
        })
    database.bulk_load("recordings", rows)
    return database


def _resolver(name: str) -> dict:
    if name.startswith("Oldus"):
        return {"status": "outdated",
                "accepted_name": name.replace("Oldus", "Novus"),
                "suggestion": None}
    return {"status": "accepted", "accepted_name": name,
            "suggestion": None}


def _curator(database: Database) -> IncrementalCurator:
    return IncrementalCurator(database, _resolver,
                              shard_size=SHARD_SIZE,
                              resource_versions={"catalogue": 1})


def _churn(database: Database, curator: IncrementalCurator) -> int:
    """~1% churn: streamed tail arrivals + one cluster of edits."""

    class TableSink:
        def add_all(self, batch):
            rows = list(batch)
            database.bulk_load("recordings", rows)
            curator.mark_batch_dirty(rows)
            return len(rows)

    stream = ObservationStream(TableSink(), capacity=64, batch_size=16,
                               source="bench")
    stream.ingest({
        "record_id": N_RECORDS + i,
        "species": f"Oldus arrivus{i}",
        "genus": "Oldus",
        "country": "Brasil",
        "state": "SP",
        "collect_date": "2024-01-01",
    } for i in range(1, N_ARRIVALS + 1))

    edited = list(range(EDIT_BASE, EDIT_BASE + N_EDITS))
    for record_id in edited:
        database.update_where(
            "recordings", col("record_id") == record_id,
            {"species": f"Oldus redetus{record_id}", "genus": "Oldus"})
    curator.mark_dirty(edited)
    return N_ARRIVALS + N_EDITS


@pytest.mark.benchmark(group="infra-streaming")
def test_incremental_sweep_beats_cold_full():
    database = _bench_database(N_RECORDS)
    curator = _curator(database)

    start = time.perf_counter()
    baseline = curator.assess()
    baseline_wall = time.perf_counter() - start
    assert baseline.quality["records"] == N_RECORDS

    dirty_records = _churn(database, curator)

    start = time.perf_counter()
    warm = curator.assess()
    warm_wall = time.perf_counter() - start

    start = time.perf_counter()
    cold = _curator(database).assess()
    cold_wall = time.perf_counter() - start

    # equivalence first: the incremental sweep must be byte-identical
    # to the cold ground truth
    assert warm.digest == cold.digest
    assert warm.quality == cold.quality
    assert warm.review == cold.review
    assert warm.shard_digests == cold.shard_digests
    assert warm.quality["records"] == N_RECORDS + N_ARRIVALS
    # and genuinely incremental: dirty shards only
    assert warm.shards_recomputed < cold.shards_recomputed
    assert warm.shards_recomputed + warm.shards_reused \
        == cold.shards_recomputed

    speedup = round(cold_wall / warm_wall, 2)

    # -- micro-benchmark: bulk observation ingest ---------------------
    def _batch():
        return [
            Observation(f"obs-{i}", Entity("taxon", f"Taxon t{i % 31}"),
                        measurements=[Measurement("air_temperature",
                                                  15.0 + i % 20, "degC")],
                        source="bench")
            for i in range(N_OBSERVATIONS)
        ]

    loop_store, bulk_store = ObservationStore(), ObservationStore()
    batch = _batch()
    # the smoke files share one process: collect earlier benchmarks'
    # garbage now, not inside whichever timed region allocates more
    gc.collect()
    start = time.perf_counter()
    for observation in batch:
        loop_store.add(observation)
    loop_wall = time.perf_counter() - start
    batch = _batch()
    gc.collect()
    start = time.perf_counter()
    bulk_store.add_all(batch)
    bulk_wall = time.perf_counter() - start
    assert len(bulk_store) == len(loop_store) == N_OBSERVATIONS
    assert bulk_wall < loop_wall, (
        f"bulk add_all ({bulk_wall:.4f}s) must beat the per-record "
        f"add loop ({loop_wall:.4f}s)")

    RESULTS_PATH.write_text(json.dumps({
        "records": N_RECORDS,
        "shard_size": SHARD_SIZE,
        "shards": cold.shards_recomputed,
        "churn": {
            "streamed_arrivals": N_ARRIVALS,
            "clustered_edits": N_EDITS,
            "dirty_records": dirty_records,
            "dirty_fraction": round(dirty_records / N_RECORDS, 4),
            "dirty_shards": warm.shards_recomputed,
        },
        "cold_sweep": {
            "wall_seconds": round(baseline_wall, 4),
            "shards_recomputed": baseline.shards_recomputed,
        },
        "incremental_sweep": {
            "wall_seconds": round(warm_wall, 4),
            "shards_recomputed": warm.shards_recomputed,
            "shards_reused": warm.shards_reused,
        },
        "cold_resweep": {
            "wall_seconds": round(cold_wall, 4),
            "shards_recomputed": cold.shards_recomputed,
        },
        "incremental_speedup": speedup,
        "min_incremental_speedup": MIN_INCREMENTAL_SPEEDUP,
        "bulk_observation_ingest": {
            "observations": N_OBSERVATIONS,
            "add_loop_seconds": round(loop_wall, 4),
            "add_all_seconds": round(bulk_wall, 4),
            "bulk_speedup": round(loop_wall / bulk_wall, 2),
        },
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nstreaming bench: cold {cold_wall:.3f}s "
          f"({cold.shards_recomputed} shards) vs incremental "
          f"{warm_wall:.3f}s ({warm.shards_recomputed} shards) "
          f"= {speedup}x at {dirty_records / N_RECORDS:.1%} churn; "
          f"bulk ingest {round(loop_wall / bulk_wall, 2)}x")
    check_floor("incremental curation below floor", speedup,
                MIN_INCREMENTAL_SPEEDUP)
