"""Top-level simulation runner.

:func:`run_simulation` wires an :class:`Engine`, :class:`MetricSink`,
:class:`CPU`, and a caller-built :class:`Microservice` together, runs a
fixed measurement window, and returns a :class:`SimulationResult` with
throughput, latency, and cycle-attribution measurements -- the simulated
equivalent of one production measurement interval.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Tuple

from ..errors import ParameterError
from .cpu import CPU
from .engine import Engine
from .guards import require_positive_window
from .metrics import MetricSink
from .service import Microservice, RequestSpec
from .summary import RunSummary


@dataclasses.dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs for one simulation run."""

    #: Logical cores on the host.
    num_cores: int = 4

    #: Worker threads per core (1 = the paper's Sync scenario; >= 2 gives
    #: the over-subscription Sync-OS relies on).
    threads_per_core: int = 1

    #: Measurement window in host cycles.
    window_cycles: float = 50.0e6

    #: Guard against runaway zero-delay loops.
    max_events: int = 20_000_000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ParameterError("num_cores must be >= 1")
        if self.threads_per_core < 1:
            raise ParameterError("threads_per_core must be >= 1")
        if self.window_cycles <= 0:
            raise ParameterError("window_cycles must be > 0")


@dataclasses.dataclass(slots=True)
class SimulationResult:
    """Measurements from one run."""

    config: SimulationConfig
    metrics: MetricSink
    service: Microservice
    engine: Engine
    cpu: CPU
    #: Finished :class:`~repro.observability.TraceData` when the run
    #: carried a tracer; None otherwise.  Excluded from the measurement
    #: record, so traced and untraced runs fingerprint identically.
    trace: Optional[object] = None

    @property
    def completed_requests(self) -> int:
        return len(self.metrics.completed_requests())

    @property
    def events_processed(self) -> int:
        return self.engine.events_processed

    @property
    def throughput(self) -> float:
        """Requests completed per window."""
        window = require_positive_window(self.config.window_cycles)
        return self.completed_requests / window

    @property
    def mean_latency_cycles(self) -> float:
        return self.metrics.mean_latency()

    def latency_percentile(self, percentile: float) -> float:
        return self.metrics.latency_percentile(percentile)

    @property
    def host_cycles_per_request(self) -> float:
        """Busy host cycles consumed per completed request -- the
        simulated counterpart of the model's ``CS``-per-request."""
        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        return self.metrics.busy_cycles() / completed

    @property
    def core_time_per_request(self) -> float:
        """Core time (busy + blocked) per completed request; for Sync
        designs blocked time occupies a core, so this is the quantity the
        model's critical-path equations describe."""
        from .metrics import CycleKind

        completed = self.completed_requests
        if completed == 0:
            raise ParameterError("no completed requests in the window")
        consumed = self.metrics.total_cycles(
            (
                CycleKind.USEFUL,
                CycleKind.OFFLOAD_OVERHEAD,
                CycleKind.THREAD_SWITCH,
                CycleKind.BLOCKED,
            )
        )
        return consumed / completed

    def summarize(self) -> RunSummary:
        """Detach a picklable :class:`RunSummary` from this live result."""
        return RunSummary.from_result(self)


ServiceBuilder = Callable[[Engine, CPU, MetricSink], Tuple[Microservice, Callable[[], RequestSpec]]]


def run_simulation(
    build: ServiceBuilder,
    config: Optional[SimulationConfig] = None,
    tracer=None,
) -> SimulationResult:
    """Run one closed-loop measurement window.

    *build* receives the fresh engine/cpu/metrics and returns the
    configured :class:`Microservice` plus a request factory; the runner
    spawns ``num_cores * threads_per_core`` closed-loop workers, runs the
    window, and finalizes accounting.

    *tracer* is an optional :class:`~repro.observability.SpanTracer`.  It
    is deliberately **not** part of :class:`SimulationConfig`: the config
    participates in cache keys and summary fingerprints, and observability
    must never move either.  A traced run records spans and per-request
    timelines (attached as ``result.trace``) but is bit-identical to the
    untraced run in every simulated-time measurement -- the tracer only
    observes, it never schedules events or consumes entropy.
    """
    from .workload import request_stream

    config = config or SimulationConfig()
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, config.num_cores)
    service, factory = build(engine, cpu, metrics)
    if tracer is not None:
        cpu.trace = tracer
        service.tracer = tracer
    workers = [
        service.spawn_worker(request_stream(factory), name=f"worker-{index}")
        for index in range(config.num_cores * config.threads_per_core)
    ]
    engine.run_until(config.window_cycles, max_events=config.max_events)
    cpu.finalize(config.window_cycles)
    trace = None
    if tracer is not None:
        trace = tracer.finish()
    # The window is over.  A live thread sits in a reference cycle with
    # its body, so without this its request stream -- the factory's
    # pre-sampled RNG blocks and the request in flight -- would outlive
    # the run until the next full garbage collection.
    for worker in workers:
        worker.body.close()
    return SimulationResult(
        config=config, metrics=metrics, service=service, engine=engine,
        cpu=cpu, trace=trace,
    )


def measured_speedup(
    baseline: SimulationResult, accelerated: SimulationResult
) -> float:
    """A/B throughput speedup: accelerated over baseline."""
    if baseline.throughput == 0:
        raise ParameterError("baseline run completed no requests")
    return accelerated.throughput / baseline.throughput


def measured_latency_reduction(
    baseline: SimulationResult, accelerated: SimulationResult
) -> float:
    """A/B mean-latency reduction (baseline latency over accelerated)."""
    return baseline.mean_latency_cycles / accelerated.mean_latency_cycles
