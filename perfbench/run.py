#!/usr/bin/env python3
"""The repository benchmark: four paper jobs, timed end to end, split by
module, checked for correctness.

Usage (from the repository root)::

    python3 perfbench/run.py --workload characterize --seed 2020 \\
        --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``characterize`` -- ``characterize_all`` over the seven Fig 9 services,
  serial, no result cache.
* ``validate`` -- the 24-cell Table 6 validation matrix through
  ``execute_batch`` with one worker per CPU into a fresh on-disk result
  cache, then replayed warm from it.  The cells take no seed.
* ``contention`` -- ``shared_device_grid``, ``resilience_grid`` and one
  ``traced_resilience_run``, serial, no cache.
* ``lint_deep`` -- ``repro lint --deep`` over the frozen corpus in
  ``perfbench/corpus.tar.gz`` on a fresh analysis cache, then rerun warm.
  The corpus takes no seed.

Everything is closed loop: one job at a time, driven from this process;
only ``validate`` fans out to a process pool.  The job runs back to back
for ``--seconds`` (at least once), every time under the work counters of
``layers.py`` (a few calls per simulation), whose totals -- engine
events, requests, offloads, fault draws and drops, spans -- must repeat
exactly from job to job.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics:

* ``job_s`` -- median seconds of one job (for ``validate`` and
  ``lint_deep`` the cold pass plus the warm replay) at the reference
  host speed: each job's wall time rescaled by the host-speed probes
  that ran during it (``pace.py``), because the shared host's speed
  swings by a third from one job to the next;
* ``setup_s`` -- median, over several fresh interpreters, of the time
  from interpreter start to the first timed call (imports and job
  construction), rescaled the same way;
* ``peak_rss_mb`` -- peak resident memory of this process and its
  children.

With ``--trace 1`` the same untraced loop runs first, then one traced
job splits the time by ``repro`` layer (``layers.py``) and the JSON
carries the per-layer metrics instead (all 0 when the traced job
raises).  ``attempted`` counts jobs and ``failed`` the jobs that raised
or failed a correctness check or whose deterministic counters differed
from the first job's.

``DEFAULT_SEED`` is the seed to tune on; a performance change must also
hold on ``HOLDOUT_SEED``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 2020
HOLDOUT_SEED = 7919
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 7
#: Wall-clock cap on one setup probe.
PROBE_TIMEOUT_S = 60.0


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fails loudly on a broken checkout)


def environment() -> dict:
    """What ran: interpreter, CPUs, engine selection."""
    from repro.simulator import hotcore

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "hotcore": hotcore.status(),
        "REPRO_COMPILED": os.environ.get("REPRO_COMPILED", "unset"),
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    """Time interpreter start -> job constructed, in fresh processes, at
    the reference host speed (``pace.py``).

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    child's stamp and the parent's launch time compare directly.  The
    children build their jobs in this run's *scratch*, where the inputs
    the benchmark prepares (the lint corpus) already are."""
    samples = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--probe-dir", str(scratch)]
        launched = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.splitlines()[-1])
        samples.append(pace.at_reference_speed(launched, probe["ready"],
                                               probe["probes"]))
    return samples


def counted_run(job, dump_dir: Path, profile: bool = False):
    """Run *job* once under the counters, and under cProfile when
    *profile* is set, else under the host-speed probes; returns (begin
    and end time, probe samples, outcome, counted totals, profile stats
    or None).  The pinned counts join the outcome's counters."""
    import layers

    for stale in dump_dir.iterdir():  # left by a job that raised
        stale.unlink()
    profiler = cProfile.Profile() if profile else None
    pacer = pace.Pace()
    with layers.instrument(dump_dir, profile=profile) as counts:
        with profiler if profiler is not None else pacer:
            begin = time.perf_counter()
            try:
                outcome = job.run(traced=profile)
            finally:
                end = time.perf_counter()
        totals = counts.totals()
    stats = pstats.Stats(profiler) if profiler is not None else None
    probes = pacer.samples
    layers.merge_dumps(dump_dir, totals, probes, stats)
    for name in layers.PINNED:
        outcome.counters[name] = int(totals[name])
    return (begin, end), probes, outcome, totals, stats


def run_loop(job, seconds: float, dump_dir: Path):
    """Run *job* back to back for *seconds*; returns per-job records
    (begin and end time, probe samples, outcome, failures) and the first
    job's counters, which every later job must repeat."""
    records = []
    reference = None
    started = time.perf_counter()
    while not records or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        try:
            span, probes, outcome, _, _ = counted_run(job, dump_dir)
        except Exception:  # one failed job must not hide the others
            traceback.print_exc()
            records.append(((begin, time.perf_counter()), [], None,
                            ["raised"]))
            continue
        failures = list(outcome.failures)
        if reference is None:
            reference = outcome.counters
        elif outcome.counters != reference:
            failures.append(f"counters moved: {outcome.counters} "
                            f"!= {reference}")
        records.append((span, probes, outcome, failures))
    return records, reference


def traced_metrics(job, job_s: float, wall_s: float, speed: float,
                   replay_s: float, reference: dict,
                   dump_dir: Path) -> tuple:
    """One profiled, counted job -> (per-layer metrics, failures).

    *job_s* is the untraced jobs' median at the reference speed, *wall_s*
    their median wall time and *speed* the host's median speed."""
    import layers

    (begin, end), _, outcome, totals, stats = counted_run(job, dump_dir,
                                                          profile=True)
    traced_s = end - begin
    failures = list(outcome.failures)
    for name, value in outcome.counters.items():
        if reference is not None and reference.get(name) != value:
            failures.append(f"traced {name} {value} != {reference.get(name)}")

    times = layers.layer_times(stats)
    busy = sum(seconds for layer, seconds in times.items()
               if layer != "wait")
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (times[layer], "s")
        metrics[f"{layer}.self_share"] = (100.0 * times[layer] / busy, "%")
    metrics["wait.self_s"] = (times["wait"], "s")
    metrics["orchestration_share"] = (
        100.0 * sum(times[layer] for layer in layers.ORCHESTRATION) / busy,
        "%")

    events = totals["simulator.engine.events"]
    requests = totals["simulator.service.requests"]
    capacity = totals["accelerator.capacity_cycles"]
    for name in layers.PINNED:
        metrics[name] = (totals[name], "count")
    metrics["simulator.service.events_per_request"] = (
        events / requests if requests else 0.0, "count")
    metrics["simulator.engine.ns_per_event"] = (
        1e9 * job_s / events if events else 0.0, "ns")
    metrics["simulator.accelerator.queue_cycles"] = (
        totals["simulator.accelerator.queue_cycles"], "cycles")
    metrics["simulator.accelerator.utilization"] = (
        100.0 * totals["accelerator.busy_cycles"] / capacity
        if capacity else 0.0, "%")
    metrics["observability.decode_s"] = (totals["observability.decode_s"], "s")

    metrics.update(runtime_metrics(outcome.telemetry))
    _, capture_s = layers.entry_calls(stats, "profiling")
    metrics["profiling.capture_s"] = (capture_s, "s")
    model_calls, model_s = layers.entry_calls(stats, "core")
    metrics["core.model_calls"] = (model_calls, "count")
    metrics["core.model_s"] = (model_s, "s")
    metrics["analysis.files"] = (
        outcome.counters.get("analysis.files", 0), "count")
    metrics["analysis.findings"] = (
        outcome.counters.get("analysis.findings", 0), "count")
    metrics["analysis.perfile_s"] = (
        layers.method_seconds(stats, "analysis", "check"), "s")
    metrics["analysis.deep_s"] = (
        layers.method_seconds(stats, "analysis", "check_project"), "s")
    metrics["analysis.replay_s"] = (
        replay_s if job.name == "lint_deep" else 0.0, "s")
    metrics["tracing_overhead_pct"] = (
        100.0 * (traced_s / wall_s - 1.0), "%")
    metrics["job_wall_s"] = (wall_s, "s")
    metrics["host_speed"] = (speed, "x")
    print(f"traced job {traced_s:.3f} s")
    return metrics, failures


def zero_layer_metrics() -> dict:
    """Every per-layer metric ``BENCHMARK.json`` lists, at 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: (0, metric["unit"])
            for metric in spec["per_layer"]}


def runtime_metrics(telemetry) -> dict:
    """Batch-executor metrics from a ``RuntimeTelemetry`` (zeros when the
    job bypasses the runtime)."""
    stage = {"queue-wait": 0.0, "simulate": 0.0, "cache-lookup": 0.0,
             "result-store": 0.0}
    executed = hits = 0
    busy = capacity = replay = 0.0
    if telemetry is not None:
        batches = telemetry.batches
        for batch in batches:
            counts = batch.outcome_counts()
            executed += counts["executed"]
            hits += counts["cache_hits"]
            for record in batch.records:
                for name, seconds in record.stage_seconds().items():
                    stage[name] += seconds
        cold = batches[0]
        simulated = [r.stage_seconds().get("simulate", 0.0)
                     for r in cold.executed_records()]
        busy = sum(simulated)
        capacity = min(cold.workers, max(1, len(simulated))) * cold.wall_seconds
        replay = batches[-1].wall_seconds
    return {
        "runtime.executed": (executed, "count"),
        "runtime.cache_hits": (hits, "count"),
        "runtime.queue_wait_s": (stage["queue-wait"], "s"),
        "runtime.simulate_s": (stage["simulate"], "s"),
        "runtime.lookup_s": (stage["cache-lookup"], "s"),
        "runtime.store_s": (stage["result-store"], "s"),
        "runtime.pool_utilization": (
            100.0 * busy / capacity if capacity else 0.0, "%"),
        "runtime.replay_s": (replay, "s"),
    }


def print_table(metrics: dict, samples: dict) -> None:
    print(f"{'metric':42s} {'unit':>6s} {'value':>14s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
    for name, (value, unit) in metrics.items():
        values = samples.get(name, [value])
        q1, q3 = quartiles(values)
        print(f"{name:42s} {unit:>6s} {value:14.6g} "
              f"{statistics.median(values):12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):3d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One setup_s sample: build the job in the given run's scratch
    # directory, print when it is ready, and exit.
    parser.add_argument("--probe-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bench_tmp = ROOT / ".bench_tmp"
    if args.probe_dir is None:
        bench_tmp.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=bench_tmp))
    else:
        scratch = Path(args.probe_dir)
    # A warm user cache must never serve a "cold" job.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "result-cache")
    probing = args.probe_dir is not None
    try:
        with pace.Pace() if probing else contextlib.nullcontext() as pacer:
            _import_program()
            import jobs

            if args.workload not in jobs.JOBS:
                parser.error(f"unknown workload {args.workload!r}; choose "
                             f"from {', '.join(jobs.JOBS)}")
            job = jobs.JOBS[args.workload](args.seed, scratch)
            ready = time.perf_counter()
        if probing:
            print(json.dumps({"ready": ready, "probes": pacer.samples}))
            return 0
        return measure(job, args, scratch)
    finally:
        if args.probe_dir is None:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                bench_tmp.rmdir()
            except OSError:  # another run is still using it
                pass


def measure(job, args, scratch: Path) -> int:
    env = environment()
    print(f"workload {job.name} | seed {args.seed} "
          f"(holdout {HOLDOUT_SEED}): {job.seed_note}")
    print("environment " + json.dumps(env, sort_keys=True))

    setup = [] if args.trace else measure_setup(job.name, args.seed, scratch)
    dump_dir = scratch / "worker-dumps"
    dump_dir.mkdir()
    records, reference = run_loop(job, args.seconds, dump_dir)
    walls, scaled, speeds, replays = [], [], [], []
    failed = 0
    for index, ((begin, end), probes, outcome, failures) in enumerate(
            records):
        elapsed = end - begin
        walls.append(elapsed)
        scaled.append(pace.at_reference_speed(begin, end, probes))
        speeds.append(pace.host_speed(probes))
        if outcome is not None and outcome.replay_s is not None:
            # A short tail of the job: scaled by the job's median probe.
            replays.append(outcome.replay_s * (speeds[-1] or 1.0))
        figures = outcome.figures if outcome is not None else {}
        shown = " ".join(f"{k}={v:.6g}" for k, v in figures.items())
        print(f"job {index}: {elapsed:.4f} s wall, {scaled[-1]:.4f} s at "
              f"reference speed (host x{speeds[-1]:.3f}) {shown}"
              + ("" if not failures else " FAILED: " + "; ".join(failures)))
        failed += bool(failures)
    print("counters " + json.dumps(reference, sort_keys=True))
    job_s = statistics.median(scaled)
    replay_s = statistics.median(replays) if replays else 0.0
    attempted = len(records)

    end_to_end = {"job_s": (job_s, "s")}
    samples = {"job_s": scaled, "replay_s": replays,
               "job_wall_s": walls, "host_speed": speeds}
    if replays:
        end_to_end["replay_s"] = (replay_s, "s")
    end_to_end["job_wall_s"] = (statistics.median(walls), "s")
    end_to_end["host_speed"] = (statistics.median(speeds), "x")
    if args.trace:
        attempted += 1
        try:
            metrics, failures = traced_metrics(
                job, job_s, end_to_end["job_wall_s"][0],
                end_to_end["host_speed"][0], replay_s, reference, dump_dir)
        except Exception:  # still report, with the layer metrics at 0
            traceback.print_exc()
            metrics, failures = zero_layer_metrics(), ["raised"]
        if failures:
            failed += 1
            print("traced job FAILED: " + "; ".join(failures))
        print_table(end_to_end, samples)
        print_table(metrics, {})
    else:
        end_to_end["setup_s"] = (statistics.median(setup), "s")
        end_to_end["peak_rss_mb"] = (peak_rss_mb(), "MB")
        samples["setup_s"] = setup
        metrics = {name: end_to_end[name]
                   for name in ("job_s", "setup_s", "peak_rss_mb")}
        print_table(end_to_end, samples)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
