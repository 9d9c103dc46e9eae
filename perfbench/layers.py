"""Count a job's work and, in the traced run, split its time by module.

Both instruments are installed from here and removed afterwards, so the
program under test is unchanged:

* **Counters.**  :func:`instrument` wraps the classes every caller goes
  through -- the engine's ``run_until``, ``MetricSink``,
  ``AcceleratorDevice``, ``FaultInjector`` and ``SpanTracer.finish`` --
  so it sees every simulation whether the job builds it through
  ``run_simulation`` or wires an engine itself.  The wrappers run a few
  times per simulation, not per event, so every job runs under them and
  the counts are checked on every job.
* **Profiled self time** (traced run only).  ``cProfile`` records every
  function's self time.  :func:`layer_times` maps each ``repro`` module
  to a layer; time spent in the standard library or a C builtin goes to
  the layer that called it (split by the profiler's per-caller times),
  and time blocked on a lock, pipe or child process goes to ``wait``.

Pool workers are forked from the benchmark process.  :func:`instrument`
swaps the batch executor's task functions for :func:`pool_task`, which
counts each task inside its worker, probes the host's speed there
(``pace.py``) or in the traced run profiles it, and leaves the results
in a dump directory for :func:`merge_dumps`.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import itertools
import json
import os
import pstats
import re
import time
import types
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import pace

#: Module path (relative to ``src/``) prefix -> layer; longest match wins.
LAYER_MAP: Tuple[Tuple[str, str], ...] = (
    ("repro/workloads/", "workloads"),
    ("repro/simulator/workload.py", "workloads"),
    ("repro/simulator/service.py", "simulator.service"),
    ("repro/simulator/cpu.py", "simulator.cpu"),
    ("repro/simulator/engine.py", "simulator.engine"),
    ("repro/simulator/hotcore.py", "simulator.engine"),
    ("repro/simulator/runner.py", "simulator.engine"),
    ("repro/simulator/guards.py", "simulator.engine"),
    ("repro/simulator/accelerator.py", "simulator.accelerator"),
    ("repro/simulator/interface.py", "simulator.accelerator"),
    ("repro/simulator/metrics.py", "simulator.metrics"),
    ("repro/simulator/summary.py", "simulator.metrics"),
    ("repro/simulator/trace_export.py", "observability"),
    ("repro/faults/", "faults"),
    ("repro/profiling/", "profiling"),
    ("repro/core/", "core"),
    ("repro/runtime/", "runtime"),
    ("repro/observability/", "observability"),
    ("repro/analysis/", "analysis"),
    # Everything else in the package drives a study: characterization,
    # validation, application studies, paper data, the CLI.
    ("repro/", "studies"),
)

LAYERS: Tuple[str, ...] = (
    "workloads", "simulator.service", "simulator.cpu", "simulator.engine",
    "simulator.accelerator", "simulator.metrics", "faults", "profiling",
    "core", "runtime", "observability", "analysis", "studies", "other",
)

#: The paper's Table 3 "orchestration" side of the reproduction's own
#: time; application logic is every other layer.
ORCHESTRATION = (
    "simulator.engine", "simulator.cpu", "simulator.metrics",
    "observability", "runtime",
)

#: Builtins that block rather than compute.
_BLOCKING = re.compile(
    r"<method 'acquire' of '_thread\.(lock|RLock)' objects>"
    r"|<built-in method (posix\.(waitpid|read)|time\.sleep|select\.\w+)>"
    r"|<method '(poll|select)' of 'select\.\w+' objects>"
)

_SRC_MARK = os.sep + "src" + os.sep


def module_layer(filename: str) -> Optional[str]:
    """The layer of a ``repro`` source file, else None."""
    index = filename.rfind(_SRC_MARK + "repro" + os.sep)
    if index < 0:
        return None
    module = filename[index + len(_SRC_MARK):].replace(os.sep, "/")
    best = max(
        (prefix for prefix, _ in LAYER_MAP if module.startswith(prefix)),
        key=len,
    )
    return dict(LAYER_MAP)[best]


def layer_times(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per layer (plus ``wait``) from a profile."""
    table = stats.stats
    shares: Dict[tuple, Dict[str, float]] = {}

    def share(key, visiting) -> Dict[str, float]:
        if key in shares:
            return shares[key]
        filename, _, name = key
        layer = module_layer(filename)
        if layer is not None:
            result = {layer: 1.0}
        elif _BLOCKING.fullmatch(name):
            result = {"wait": 1.0}
        else:
            # Not ours: hand the time to whoever called it, weighted by
            # how much of it each caller accounts for.  Recursive calls
            # (a caller already on the chain) carry no weight.
            visiting = visiting | {key}
            weights = {
                caller: entry[2]
                for caller, entry in table[key][4].items()
                if caller not in visiting and caller in table
            }
            total = sum(weights.values())
            if total <= 0.0:
                return {"other": 1.0}
            result = {}
            for caller, weight in weights.items():
                for layer, part in share(caller, visiting).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
        shares[key] = result
        return result

    times = {layer: 0.0 for layer in LAYERS + ("wait",)}
    for key, (_, _, self_time, _, _) in table.items():
        for layer, part in share(key, frozenset()).items():
            times[layer] += self_time * part
    return times


def entry_calls(stats: pstats.Stats, layer: str) -> Tuple[int, float]:
    """Calls into *layer* from outside it, and their inclusive seconds."""
    calls, seconds = 0, 0.0
    for key, (_, _, _, _, callers) in stats.stats.items():
        if module_layer(key[0]) != layer:
            continue
        for caller, entry in callers.items():
            if module_layer(caller[0]) != layer:
                calls += entry[0]
                seconds += entry[3]
    return calls, seconds


def method_seconds(stats: pstats.Stats, layer: str, name: str) -> float:
    """Inclusive seconds of every *layer* function called *name*."""
    return sum(
        entry[3] for key, entry in stats.stats.items()
        if key[2] == name and module_layer(key[0]) == layer
    )


class Counters:
    """Work counts gathered by the class wrappers.

    Sinks, devices and injectors are read when the engine that drives
    them returns from ``run_until`` and are then let go, so counting
    keeps no simulation alive longer than the program does."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = dict.fromkeys(COUNTED, 0)
        self.pending: List[Tuple[str, object]] = []
        self.decode_s = 0.0

    def absorb(self) -> None:
        """Fold every object built since the last drain into the sums."""
        sums = self.sums
        for kind, made in self.pending:
            if kind == "sink":
                sums["simulator.service.requests"] += len(
                    made.completed_requests())
                sums["simulator.service.offloads"] += len(made.offloads)
                sums["faults.drops"] += made.fault_totals().drops
            elif kind == "device":
                device = made
                sums["simulator.accelerator.offloads_served"] += (
                    device.stats.offloads_served)
                sums["simulator.accelerator.queue_cycles"] += (
                    device.stats.total_queue_cycles)
                sums["accelerator.busy_cycles"] += device.stats.busy_cycles
                # Device-cycles on offer: the run's span on every server.
                sums["accelerator.capacity_cycles"] += (
                    device._engine.now * len(device._free_at))
            else:
                sums["faults.draws"] += made.draws
        self.pending.clear()

    def totals(self) -> Dict[str, float]:
        """Plain sums, mergeable across processes."""
        self.absorb()
        return dict(self.sums, **{"observability.decode_s": self.decode_s})


#: What :class:`Counters` sums.
COUNTED = (
    "simulator.engine.events", "simulator.service.requests",
    "simulator.service.offloads", "simulator.accelerator.offloads_served",
    "simulator.accelerator.queue_cycles", "accelerator.busy_cycles",
    "accelerator.capacity_cycles", "faults.draws", "faults.drops",
    "observability.spans",
)
#: The counts that must repeat exactly across jobs with the same seed.
PINNED = (
    "simulator.engine.events", "simulator.service.requests",
    "simulator.service.offloads", "simulator.accelerator.offloads_served",
    "faults.draws", "faults.drops", "observability.spans",
)

#: The counters of the job in progress; forked workers inherit it.
_active: Optional[Counters] = None
_dump_ids = itertools.count()


def _wrap(owner, attribute: str, make) -> Tuple[object, str, object]:
    original = owner.__dict__[attribute]
    setattr(owner, attribute, make(original))
    return owner, attribute, original


def engine_is_python() -> bool:
    """Whether the engine class can be wrapped to count events."""
    from repro.simulator.engine import Engine

    return isinstance(Engine.__dict__.get("run_until"), types.FunctionType)


@contextlib.contextmanager
def instrument(dump_dir: Path, profile: bool = False) -> Iterator[Counters]:
    """Install the counting wrappers and the pool task hooks for one job.

    The wrappers cost a few calls per simulation, not per event, so every
    job runs under them.  Pool tasks run in forked workers: the hooks
    count each task there (and profile it when *profile* is set) and
    leave the results in *dump_dir* for :func:`merge_dumps`.  With a
    compiled engine, events go uncounted."""
    global _active
    from repro.faults import FaultInjector
    from repro.observability import SpanTracer
    from repro.observability import telemetry
    from repro.runtime import batch, runners
    from repro.simulator import AcceleratorDevice, MetricSink
    from repro.simulator.engine import Engine

    def run_until(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            before = self.events_processed
            try:
                return original(self, *args, **kwargs)
            finally:
                _active.sums["simulator.engine.events"] += (
                    self.events_processed - before)
                _active.absorb()
        return wrapper

    def registering(original, kind):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            _active.pending.append((kind, self))
        return wrapper

    def finish(original):
        @functools.wraps(original)
        def wrapper(self):
            start = time.perf_counter()
            trace = original(self)
            _active.decode_s += time.perf_counter() - start
            _active.sums["observability.spans"] += len(trace.spans)
            return trace
        return wrapper

    counters = Counters()
    patches = [
        _wrap(MetricSink, "__init__",
              lambda original: registering(original, "sink")),
        _wrap(AcceleratorDevice, "__init__",
              lambda original: registering(original, "device")),
        _wrap(FaultInjector, "__init__",
              lambda original: registering(original, "injector")),
        _wrap(SpanTracer, "finish", finish),
    ]
    if engine_is_python():
        patches.append(_wrap(Engine, "run_until", run_until))
    parent = os.getpid()
    # The originals are named by their defining modules, so the hooks
    # pickle by reference into the workers.
    for name, task in (("_run_telemetered_task", telemetry.run_task),
                       ("execute_run", runners.run_spec)):
        patches.append(_wrap(batch, name, lambda _: functools.partial(
            pool_task, task, str(dump_dir), parent, profile)))
    _active = counters
    try:
        yield counters
    finally:
        _active = None
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def pool_task(task, dump_dir: str, parent: int, profile: bool, payload):
    """Run one batch task; in a worker, count it and dump the results
    for the parent, with the worker's host-speed probes -- or, when
    *profile* is set, its profile instead of probes."""
    global _active
    if os.getpid() == parent:  # a serial batch: counted where it runs
        return task(payload)
    _active = Counters()
    profiler = cProfile.Profile() if profile else None
    pacer = pace.Pace()
    try:
        with profiler if profiler is not None else pacer:
            return task(payload)
    finally:
        stem = Path(dump_dir) / f"{os.getpid()}-{next(_dump_ids)}"
        if profiler is not None:
            profiler.dump_stats(f"{stem}.prof")
        dump = dict(_active.totals(), probes=pacer.samples)
        Path(f"{stem}.json").write_text(json.dumps(dump))


def merge_dumps(dump_dir: Path, totals: Dict[str, float],
                probes: List[float],
                stats: Optional[pstats.Stats] = None) -> None:
    """Fold the workers' dumps into *totals* and *probes* (and their
    profiles into *stats*), then delete them."""
    for path in sorted(dump_dir.glob("*.json")):
        dump = json.loads(path.read_text())
        probes.extend(dump.pop("probes"))
        for key, value in dump.items():
            totals[key] += value
        profile = path.with_suffix(".prof")
        if stats is not None and profile.exists():
            stats.add(str(profile))
        path.unlink()
        profile.unlink(missing_ok=True)
