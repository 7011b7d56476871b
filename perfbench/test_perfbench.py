"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Budget  # noqa: E402

SEED = 5
#: fixed operation counts, so count metrics must repeat exactly
OPS = {"fnjv_archive": 1, "service_mixed": 24, "stream_churn": 12}


def tiny(name: str):
    if name == "fnjv_archive":
        return workloads.FnjvArchive(records=300)
    if name == "service_mixed":
        return workloads.ServiceMixed(records=300, vault_records=30)
    return workloads.StreamChurn(records=400, species=80, outdated=8,
                                 shard_size=32)


def untraced(name: str, workdir: Path):
    workload = tiny(name)
    outcome, __, __ = run.measure(workload, SEED,
                                  Budget(0, ops=OPS[name]), workdir,
                                  repeats=1)
    return workload, outcome


def observable(name: str, outcome) -> str:
    """Everything a workload's outputs are checked on, serialized."""
    if name == "fnjv_archive":
        data = [{"figures": done["figures"], "ingest": done["ingest"]}
                for done in outcome.data["passes"]]
    elif name == "service_mixed":
        # row ids depend on how the two clients interleave; the rest of
        # every response does not
        data = {
            "responses": sorted(
                (op, tenant, json.dumps(payload, sort_keys=True),
                 json.dumps(response.result["inserted"] if op == "ingest"
                            else response.result, sort_keys=True,
                            default=str))
                for op, tenant, payload, response, __
                in outcome.data["log"]),
            "annotations": outcome.data["state"]["database"].query(
                "annotations").order_by("id").all(),
        }
    else:
        final = outcome.data["state"]["final"]
        data = {"digest": final.digest, "quality": final.quality}
    return json.dumps(data, sort_keys=True, default=str)


COUNT_METRICS = [
    name for name in json.loads(
        (HERE / "metrics.json").read_text())["per_layer"]
    if name.endswith("_calls")
    or ("_bytes_" in name and not name.endswith("_per_s"))
    or name in ("storage.rows_scanned_per_row_returned",
                "storage.full_scans", "trace.spans")
]


@pytest.mark.parametrize("name", sorted(OPS))
def test_same_seed_gives_identical_count_metrics(name, tmp_path):
    first = run.trace_phase(tiny(name), SEED, OPS[name], tmp_path)
    second = run.trace_phase(tiny(name), SEED, OPS[name], tmp_path)
    assert not first[4] and not second[4]
    counts = [{metric: values[metric] for metric in COUNT_METRICS}
              for values in (first[2], second[2])]
    assert counts[0] == counts[1]
    if name == "fnjv_archive":
        assert first[0].detail["archive_bytes_per_record"] \
            == second[0].detail["archive_bytes_per_record"]


@pytest.mark.parametrize("name", sorted(OPS))
def test_shims_leave_results_byte_identical(name, tmp_path):
    __, plain = untraced(name, tmp_path)
    traced, rec, values, __, errors = run.trace_phase(
        tiny(name), SEED, OPS[name], tmp_path)
    assert not errors
    assert rec.spans, "the shims recorded nothing"
    assert observable(name, traced) == observable(name, plain)


@pytest.mark.parametrize("name", sorted(OPS))
def test_layer_table_accounts_for_every_root_second(name, tmp_path):
    __, rec, values, wall, __ = run.trace_phase(
        tiny(name), SEED, OPS[name], tmp_path)
    table = rec.layer_table()
    assert table[-1][0] == "unattributed"
    assert sum(seconds for __, seconds in table) == pytest.approx(
        rec.root_seconds(), rel=1e-9)
    if name != "service_mixed":
        # one thread: the root spans cover the traced wall time
        assert rec.root_seconds() == pytest.approx(wall, rel=0.01)


def test_wrong_fnjv_expectation_fails_the_check(tmp_path):
    workload, outcome = untraced("fnjv_archive", tmp_path)
    assert workload.check(outcome) == []
    truth = outcome.data["passes"][0]["truth"]
    truth.outdated_species.pop(next(iter(truth.outdated_species)))
    assert any("not a planted outdated name" in error
               for error in workload.check(outcome))


def test_wrong_service_oracle_fails_the_check(tmp_path):
    workload, outcome = untraced("service_mixed", tmp_path)
    assert workload.check(outcome) == []
    for row in outcome.data["state"]["rows"]:
        row["species"] = "Nomen nudum"
    assert any(error.startswith("query") for error in
               workload.check(outcome))


def test_wrong_stream_expectation_fails_the_check(tmp_path):
    workload, outcome = untraced("stream_churn", tmp_path)
    assert workload.check(outcome) == []
    outcome.data["state"]["next_id"] += 1
    assert any("records, expected" in error
               for error in workload.check(outcome))


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert set(listed) == set(catalogue[section])
        for name, (unit, __) in listed.items():
            assert unit == catalogue[section][name]["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
