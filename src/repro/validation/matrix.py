"""Systematic sim-vs-model validation across the design space.

The three case studies validate three points; this matrix validates the
*surface*: a grid over threading designs, kernel fractions, and offload
overheads, each cell an A/B simulator experiment compared against the
corresponding Accelerometer equation.  The summary (max/mean error in
percentage points) is the reproduction's quantitative answer to "do the
equations describe the simulated world everywhere, not just at the
published points?".

This module also owns the synthetic A/B cell every grid runs, so the
resilience and shared-device studies build the same service from here.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import (
    Accelerometer,
    AcceleratorSpec,
    KernelProfile,
    OffloadCosts,
    OffloadScenario,
    Placement,
    ThreadingDesign,
)
from ..faults import FaultInjector, FaultPolicy
from ..runtime import RunSpec, execute_batch
from ..runtime.batch import BatchReport, CacheArg
from ..paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from ..simulator import (
    AcceleratorDevice,
    InterfaceModel,
    KernelInvocation,
    KernelSpec,
    Microservice,
    OffloadConfig,
    RequestSpec,
    ResponseHandler,
    SegmentWork,
    SimulationConfig,
    measured_speedup,
    run_simulation,
)

# ---------------------------------------------------------------------------
# The synthetic A/B cell
# ---------------------------------------------------------------------------
#
# Per request: plain application logic sized so the kernel is an *alpha*
# fraction of the request, then three 400-byte kernel calls at 5
# cycles/byte, offloaded with a 30-cycle dispatch.

_KERNEL_CALLS = 3
_GRANULARITY = 400.0
_CB = 5.0
_KERNEL_CYCLES = _KERNEL_CALLS * _CB * _GRANULARITY
_DISPATCH_CYCLES = 30.0


def synthetic_request_factory(alpha: float):
    """Request factory of the synthetic service at kernel fraction *alpha*."""
    plain = _KERNEL_CYCLES * (1.0 - alpha) / alpha
    kernel = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=_CB)
    # Every request is the same immutable spec: build it once.
    request = RequestSpec(
        segments=(
            SegmentWork(F.APPLICATION_LOGIC, plain_cycles=plain,
                        leaf_mix={L.C_LIBRARIES: 1.0}),
            SegmentWork(F.IO, invocations=tuple(
                KernelInvocation(kernel, _GRANULARITY)
                for _ in range(_KERNEL_CALLS)
            )),
        )
    )

    def factory():
        return request

    return factory


def synthetic_inputs(alpha: float) -> Dict[str, float]:
    """Closed-form ``c``, ``alpha``, ``n`` and ``o0`` of one synthetic
    request, as keyword arguments of the :mod:`repro.core.resilience`
    equations."""
    request = _KERNEL_CYCLES * (1.0 - alpha) / alpha + _KERNEL_CYCLES
    return dict(c=request, alpha=_KERNEL_CYCLES / request,
                n=float(_KERNEL_CALLS), o0=_DISPATCH_CYCLES)


def synthetic_interface(interface_cycles: float = 0.0) -> InterfaceModel:
    """The synthetic cell's off-chip link: 30-cycle dispatch, fixed ``L``."""
    return InterfaceModel(
        Placement.OFF_CHIP, dispatch_cycles=_DISPATCH_CYCLES,
        transfer_base_cycles=interface_cycles,
    )


def synthetic_config(design: ThreadingDesign, num_cores: int,
                     window_cycles: float) -> SimulationConfig:
    """Sync-OS oversubscribes three threads per core; other designs run one."""
    threads_per_core = 3 if design is ThreadingDesign.SYNC_OS else 1
    return SimulationConfig(
        num_cores=num_cores, threads_per_core=threads_per_core,
        window_cycles=window_cycles,
    )


def synthetic_builds(
    alpha: float,
    design: ThreadingDesign,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    interface_cycles: float = 0.0,
    thread_switch_cycles: float = 0.0,
    policy: Optional[FaultPolicy] = None,
    seed: int = 0,
):
    """Baseline and accelerated builders of the synthetic A/B cell.

    The accelerated side offloads every kernel call to a private device
    with one engine per core.  Async-distinct-thread gets its response
    handler; a *policy* adds a fault injector seeded *seed*, fresh for
    every build.
    """
    factory = synthetic_request_factory(alpha)

    def build_baseline(engine, cpu, metrics):
        return Microservice(engine, cpu, metrics), factory

    def build_accelerated(engine, cpu, metrics):
        device = AcceleratorDevice(engine, accel_speedup, servers=num_cores)
        interface = synthetic_interface(interface_cycles)
        handler = (
            ResponseHandler(cpu, thread_switch_cycles)
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD
            else None
        )
        offloads = {
            "k": OffloadConfig(
                device=device, interface=interface, design=design,
                thread_switch_cycles=thread_switch_cycles,
                response_handler=handler,
                faults=(None if policy is None
                        else FaultInjector(policy, seed=seed)),
            )
        }
        return Microservice(engine, cpu, metrics, offloads=offloads), factory

    return build_baseline, build_accelerated


class SpeedupPoint:
    """Model-vs-simulation views of a point carrying ``model_speedup``
    and ``simulated_speedup`` factors."""

    model_speedup: float
    simulated_speedup: float

    @property
    def error_pct(self) -> float:
        """Relative model-vs-simulation error of the speedup factor."""
        return abs(self.model_speedup - self.simulated_speedup) / self.model_speedup * 100.0

    @property
    def model_speedup_pct(self) -> float:
        return (self.model_speedup - 1.0) * 100.0

    @property
    def simulated_speedup_pct(self) -> float:
        return (self.simulated_speedup - 1.0) * 100.0


class SpeedupGrid:
    """Error summary of a grid of :class:`SpeedupPoint` ``points``."""

    points: Tuple[Any, ...]

    @property
    def max_error_pct(self) -> float:
        return max(point.error_pct for point in self.points)

    @property
    def mean_error_pct(self) -> float:
        return sum(point.error_pct for point in self.points) / len(self.points)

    def worst_point(self) -> Any:
        return max(self.points, key=lambda point: point.error_pct)


# ---------------------------------------------------------------------------
# The Table 6 validation matrix
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MatrixCell:
    """One validated grid point."""

    design: ThreadingDesign
    alpha: float
    interface_cycles: float
    thread_switch_cycles: float
    model_speedup_pct: float
    simulated_speedup_pct: float

    @property
    def error_pp(self) -> float:
        return abs(self.model_speedup_pct - self.simulated_speedup_pct)


@dataclasses.dataclass(frozen=True)
class MatrixSummary:
    cells: Tuple[MatrixCell, ...]

    @property
    def max_error_pp(self) -> float:
        return max(cell.error_pp for cell in self.cells)

    @property
    def mean_error_pp(self) -> float:
        return sum(cell.error_pp for cell in self.cells) / len(self.cells)

    def worst_cell(self) -> MatrixCell:
        return max(self.cells, key=lambda cell: cell.error_pp)


def validate_cell(
    design: ThreadingDesign,
    alpha: float,
    interface_cycles: float,
    thread_switch_cycles: float,
    accel_speedup: float = 8.0,
    num_cores: int = 2,
    window_cycles: float = 8.0e6,
) -> MatrixCell:
    """Run one grid point: simulated A/B vs the analytical equation."""
    build_baseline, build_accelerated = synthetic_builds(
        alpha, design, accel_speedup, num_cores,
        interface_cycles=interface_cycles,
        thread_switch_cycles=thread_switch_cycles,
    )
    config = synthetic_config(design, num_cores, window_cycles)
    baseline = run_simulation(build_baseline, config)
    accelerated = run_simulation(build_accelerated, config)
    simulated = measured_speedup(baseline, accelerated)

    inputs = synthetic_inputs(alpha)
    scenario = OffloadScenario(
        kernel=KernelProfile(inputs["c"], inputs["alpha"], inputs["n"]),
        accelerator=AcceleratorSpec(accel_speedup, Placement.OFF_CHIP),
        costs=OffloadCosts(
            dispatch_cycles=inputs["o0"], interface_cycles=interface_cycles,
            thread_switch_cycles=thread_switch_cycles,
        ),
        design=design,
    )
    modelled = Accelerometer().speedup(scenario)
    return MatrixCell(
        design=design,
        alpha=alpha,
        interface_cycles=interface_cycles,
        thread_switch_cycles=thread_switch_cycles,
        model_speedup_pct=(modelled - 1.0) * 100.0,
        simulated_speedup_pct=(simulated - 1.0) * 100.0,
    )


def validation_matrix(
    designs: Sequence[ThreadingDesign] = (
        ThreadingDesign.SYNC,
        ThreadingDesign.SYNC_OS,
        ThreadingDesign.ASYNC,
        ThreadingDesign.ASYNC_DISTINCT_THREAD,
    ),
    alphas: Sequence[float] = (0.1, 0.3, 0.6),
    interface_cycles: Sequence[float] = (0.0, 500.0),
    thread_switch_cycles: float = 300.0,
    workers: int = 1,
    cache: CacheArg = None,
    report: BatchReport = None,
    telemetry=None,
    **cell_kwargs,
) -> MatrixSummary:
    """Validate the full grid; returns the error summary.

    All grid cells are mutually independent, so they run through the
    batch executor: *workers* > 1 validates cells in parallel processes
    and *cache* replays identical cells from disk.  *telemetry* (a
    :class:`~repro.observability.RuntimeTelemetry`) records the batch's
    own runtime span tree without touching specs or results.
    """
    specs: List[RunSpec] = [
        RunSpec.create(
            "matrix_cell",
            design=design,
            alpha=alpha,
            interface_cycles=latency,
            thread_switch_cycles=thread_switch_cycles,
            **cell_kwargs,
        )
        for design in designs
        for alpha in alphas
        for latency in interface_cycles
    ]
    cells = execute_batch(
        specs, workers=workers, cache=cache, report=report,
        telemetry=telemetry,
    )
    return MatrixSummary(cells=tuple(cells))
