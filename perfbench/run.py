#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload fnjv_archive --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures with no instrumentation and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` installs the
timing shims of ``perfbench/tracing.py`` and prints every per-layer
metric, a per-layer self-time table and the tracing overhead, and writes
the spans to ``.perfbench_out/`` as JSON lines.  Outputs are checked
after timing; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when a check fails.  ``--workload all`` runs every
workload in its own process and prints the workload-specific metrics
(``perfbench/metrics.json``) by name with units.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path.cwd() / ".perfbench_out"
WORKLOAD_NAMES = ("fnjv_archive", "service_mixed", "stream_churn")

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: operations per traced phase and per second of ``--seconds`` (the
#: FNJV archive pass is one operation, so it traces exactly one pass)
TRACE_OPS_PER_SECOND = {"service_mixed": 12, "stream_churn": 2}


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` (never from an
    installed copy); exit non-zero without a result when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, workdir: Path, times: list[float]):
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed, workdir)
    times.append(time.perf_counter() - started)
    return state


def measure(workload, seed: int, budget, workdir: Path,
            repeats: int = SETUP_REPEATS):
    """Set up ``repeats`` times (keeping the last inputs), run the
    workload under ``budget``.  Returns ``(outcome, set-up seconds,
    wall seconds)``; outputs are checked by the caller, after timing."""
    setup_times: list[float] = []
    started = time.perf_counter()
    holder = [None]
    for __ in range(repeats):
        holder[0] = None
        holder[0] = _setup(workload, seed, workdir, setup_times)
    outcome = workload.run(
        holder.pop(), budget,
        lambda: _setup(workload, seed, workdir, setup_times))
    wall = time.perf_counter() - started
    return outcome, setup_times, wall


def end_to_end(outcome, setup_times: list[float]) -> dict[str, float]:
    from workloads import percentile
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "throughput_per_s": outcome.units / outcome.busy_s,
        "latency_p50_ms": statistics.median(outcome.latencies) * 1000,
        "latency_tail_ms": percentile(outcome.latencies,
                                      outcome.tail_fraction) * 1000,
    }


def _units(section: str) -> dict[str, str]:
    """``metric -> unit`` of one section of ``metrics.json``."""
    catalogue = json.loads((HERE / "metrics.json").read_text())
    return {name: entry["unit"]
            for name, entry in catalogue[section].items()}


def _result(correct: bool, outcome, values: dict[str, float],
            units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def run_untraced(workload, seed: int, seconds: float,
                 workdir: Path) -> int:
    from workloads import Budget
    outcome, setup_times, __ = measure(workload, seed, Budget(seconds),
                                       workdir)
    errors = workload.check(outcome)
    values = end_to_end(outcome, setup_times)
    detail = {
        "setup_s": (values["setup_s"], "s"),
        "peak_rss_mb": (values["peak_rss_mb"], "MB"),
        "error_rate": (outcome.failed / max(1, outcome.attempted), "ratio"),
        **outcome.detail,
    }
    for error in errors[:20]:
        print(f"CHECK FAILED [{workload.name}]: {error}")
    print(f"# {workload.name} seed={seed}: {outcome.attempted} operations,"
          f" {len(outcome.latencies)} latency samples, "
          f"{len(setup_times)} set-ups")
    for name, (value, unit) in detail.items():
        print(f"  {workload.name}.{name:<28} {value:>14.4f} {unit}")
    print("# detail " + json.dumps(
        {name: {"value": value, "unit": unit}
         for name, (value, unit) in detail.items()}))
    print(_result(not errors, outcome, values, _units("end_to_end")))
    return 0 if not errors else 1


def trace_phase(workload, seed: int, ops: int, workdir: Path):
    """Set up and run ``ops`` operations with the shims recording.

    Returns ``(outcome, recorder, per-layer values, traced wall
    seconds, check errors)``; the shims are removed again on return.
    """
    from repro.telemetry import get_telemetry
    from tracing import Recorder, install, layer_metrics
    from workloads import Budget

    rec = Recorder(f"{workload.name}-{seed}")
    threaded = getattr(workload, "clients", 1) > 1
    run_span = (nullcontext if threaded
                else lambda: rec.span("bench.run"))
    if threaded:
        workload.client_span = lambda client: rec.span(
            "bench.client", run_id=f"{rec.run_id}-client{client}")
    uninstall = install(rec)
    try:
        get_telemetry().reset()
        rec.active = True
        started = time.perf_counter()
        rec.phase = "setup"
        with rec.span("bench.setup"):
            holder = [workload.setup(seed, workdir)]
        rec.phase = "run"
        with run_span():
            outcome = workload.run(holder.pop(), Budget(0, ops=ops),
                                   lambda: workload.setup(seed, workdir))
        traced_wall = time.perf_counter() - started
        rec.active = False
        records = sum(done["config"].n_records
                      for done in outcome.data.get("passes", ()))
        values = layer_metrics(rec, get_telemetry().metrics, records)
    finally:
        rec.active = False
        uninstall()
    errors = workload.check(outcome)
    table = rec.layer_table()
    accounted = rec.root_seconds()
    values["trace.wall_s"] = traced_wall
    values["trace.accounted_s"] = accounted
    values["trace.unattributed_share"] = table[-1][1] / accounted
    values["trace.spans"] = len(rec.spans)
    return outcome, rec, values, traced_wall, errors


def run_traced(workload, seed: int, seconds: float, workdir: Path) -> int:
    from workloads import Budget

    ops = max(1, round(TRACE_OPS_PER_SECOND.get(workload.name, 0)
                       * seconds / 2))
    untraced, __, untraced_wall = measure(
        workload, seed, Budget(seconds, ops=ops), workdir, repeats=1)
    errors = workload.check(untraced)
    untraced = None
    gc.collect()
    outcome, rec, values, traced_wall, traced_errors = trace_phase(
        workload, seed, ops, workdir)
    errors += traced_errors
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    threaded = getattr(workload, "clients", 1) > 1
    accounted = values["trace.accounted_s"]

    table = rec.layer_table()
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    rec.write_jsonl(spans_path)

    for error in errors[:20]:
        print(f"CHECK FAILED [{workload.name}]: {error}")
    basis = ("client thread-seconds plus set-up" if threaded
             else "traced wall time")
    print(f"# {workload.name} seed={seed}: self time by layer "
          f"({ops} operation(s); table sums to the {basis})")
    for layer, seconds_ in table:
        print(f"  {layer:<14} {seconds_:>10.4f} s "
              f"{100 * seconds_ / accounted:>6.1f} %")
    print(f"  {'total':<14} {sum(s for __, s in table):>10.4f} s "
          f"(root spans {accounted:.4f} s, traced wall "
          f"{traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s, "
          f"overhead x{values['trace.overhead_ratio']:.3f})")
    print(f"# {len(rec.spans)} spans written to {spans_path}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>16.6f}")
    print(_result(not errors, outcome, values, _units("per_layer")))
    return 0 if not errors else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints the named metrics."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = status or child.returncode
        for line in child.stdout.splitlines():
            if line.startswith("# detail "):
                summary[name] = json.loads(line[len("# detail "):])
    print(f"# all workloads, seed={seed}")
    for name, detail in summary.items():
        for metric, entry in detail.items():
            print(f"  {name}.{metric:<28} {entry['value']:>14.4f} "
                  f"{entry['unit']}")
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{args.workload}-{time.time_ns()}"
    try:
        if args.trace:
            return run_traced(workload, args.seed, args.seconds, workdir)
        return run_untraced(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
