"""The offload state machines are byte-identical across refactors.

``fixtures/offload_pinned.json`` pins a grid of small closed-loop runs
through :meth:`Microservice._run_offload`: every threading design, the
single-dispatch (B=1) and doorbell-batched (B=3, async designs only)
paths, six fault regimes, each run untraced and traced -- 96 cells.

Per cell the pin records the summary fingerprint, the merged fault
counters, the injector's entropy draws, the engine's event count, every
offload record's ``(dispatched_at, queued_cycles, completed_at)`` and a
digest of the decoded trace.  The fixture was captured before the
single-dispatch and batched fault loops were merged; any drift here is
a behavior change in a refactor, not an improvement.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.canonical import canonical_digest
from repro.core.strategies import Placement, ThreadingDesign
from repro.faults import (
    DegradationSchedule,
    DegradationWindow,
    FaultInjector,
    FaultPolicy,
)
from repro.observability import SpanTracer
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
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
    run_simulation,
)

PINNED = json.loads(
    (Path(__file__).parent / "fixtures" / "offload_pinned.json").read_text(
        encoding="utf-8"
    )
)

_KERNEL = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=5.0)
_WINDOW = 1.2e5

_BLOCKING = (ThreadingDesign.SYNC, ThreadingDesign.SYNC_OS)

#: name -> (policy, outage schedule or None); seeds are per cell.
_REGIMES = {
    "none": None,
    "drop-fallback-backoff": (
        FaultPolicy(drop_probability=0.35, timeout_cycles=600.0,
                    max_retries=2, backoff_base_cycles=150.0),
        None,
    ),
    "drop-lost": (
        FaultPolicy(drop_probability=0.35, timeout_cycles=600.0,
                    max_retries=1, fallback_to_cpu=False),
        None,
    ),
    "spike": (
        FaultPolicy(spike_probability=0.4, spike_cycles=900.0),
        None,
    ),
    "mixed-3-retries": (
        FaultPolicy(drop_probability=0.25, spike_probability=0.25,
                    spike_cycles=700.0, timeout_cycles=400.0,
                    max_retries=3, backoff_base_cycles=100.0),
        None,
    ),
    "outage": (
        FaultPolicy(drop_probability=0.1, timeout_cycles=500.0,
                    max_retries=1, backoff_base_cycles=200.0),
        DegradationSchedule(windows=(DegradationWindow(3.0e4, 6.0e4),)),
    ),
}


def _cells():
    cells = []
    for design in ThreadingDesign:
        batch_sizes = (1,) if design in _BLOCKING else (1, 3)
        for batch_size in batch_sizes:
            for regime in _REGIMES:
                for traced in (False, True):
                    cells.append((design, batch_size, regime, traced))
    return cells


def _cell_id(design, batch_size, regime, traced):
    return (
        f"{design.value}-B{batch_size}-{regime}"
        f"-{'traced' if traced else 'untraced'}"
    )


def _factory():
    return RequestSpec(segments=(
        SegmentWork(F.APPLICATION_LOGIC, plain_cycles=4_000.0,
                    leaf_mix={L.C_LIBRARIES: 3.0, L.MISCELLANEOUS: 1.0}),
        SegmentWork(F.IO, invocations=(
            KernelInvocation(_KERNEL, 400.0),
            KernelInvocation(_KERNEL, 250.0),
        )),
    ))


def _build(design, batch_size, injector):
    # Remote fire-and-forget never gates the request: it covers the
    # no-gate path of both the single and the batched dispatch.
    placement = (
        Placement.REMOTE if design is ThreadingDesign.ASYNC_NO_RESPONSE
        else Placement.OFF_CHIP
    )

    def build(engine, cpu, metrics):
        device = AcceleratorDevice(engine, 8.0, placement=placement, servers=1)
        interface = InterfaceModel(
            placement, dispatch_cycles=30.0, transfer_base_cycles=60.0,
            transfer_cycles_per_byte=0.1,
        )
        handler = (
            ResponseHandler(cpu, 40.0)
            if design is ThreadingDesign.ASYNC_DISTINCT_THREAD else None
        )
        offloads = {"k": OffloadConfig(
            device=device, interface=interface, design=design,
            thread_switch_cycles=40.0, response_handler=handler,
            batch_size=batch_size, faults=injector,
        )}
        return Microservice(engine, cpu, metrics, offloads=offloads), _factory

    return build


def _run_cell(design, batch_size, regime, traced):
    injector = None
    if _REGIMES[regime] is not None:
        policy, schedule = _REGIMES[regime]
        injector = FaultInjector(policy, seed=17, schedule=schedule)
    config = SimulationConfig(
        num_cores=2,
        threads_per_core=2 if design is ThreadingDesign.SYNC_OS else 1,
        window_cycles=_WINDOW,
    )
    tracer = SpanTracer(label="pin") if traced else None
    result = run_simulation(
        _build(design, batch_size, injector), config, tracer=tracer
    )
    return {
        "fingerprint": result.summarize().fingerprint(),
        "fault_totals": dataclasses.asdict(result.metrics.fault_totals()),
        "draws": None if injector is None else injector.draws,
        "events": result.engine.events_processed,
        "offloads": [
            [record.dispatched_at, record.queued_cycles, record.completed_at]
            for record in result.metrics.offloads
        ],
        "trace": None if result.trace is None else canonical_digest(
            result.trace, salt="offload-pin"
        ),
    }


@pytest.mark.parametrize(
    "design,batch_size,regime,traced", _cells(),
    ids=[_cell_id(*cell) for cell in _cells()],
)
def test_cell_matches_pinned(design, batch_size, regime, traced):
    # The JSON round trip turns tuples into lists; floats survive it
    # exactly.
    observed = json.loads(json.dumps(_run_cell(design, batch_size, regime, traced)))
    pinned = PINNED[_cell_id(design, batch_size, regime, traced)]
    assert observed.keys() == pinned.keys()
    for field in pinned:
        assert observed[field] == pinned[field], field


def test_pin_covers_the_grid_and_is_not_vacuous():
    assert sorted(PINNED) == sorted(_cell_id(*cell) for cell in _cells())
    assert len(PINNED) == 96
    totals = [cell["fault_totals"] for cell in PINNED.values()]
    # Every fault path the loops implement is exercised somewhere.
    for counter in ("drops", "retries", "fallbacks", "lost_offloads",
                    "latency_spikes", "backoff_cycles"):
        assert any(total[counter] for total in totals), counter
    batched_fallbacks = [
        cell["fault_totals"]["fallbacks"]
        for name, cell in PINNED.items() if "-B3-" in name
    ]
    assert any(batched_fallbacks)


def test_traced_and_untraced_cells_agree():
    # The tracer only observes: everything but the trace digest matches.
    for name, cell in PINNED.items():
        if name.endswith("-traced"):
            twin = PINNED[name[: -len("-traced")] + "-untraced"]
            assert cell["trace"] is not None and twin["trace"] is None
            assert {k: v for k, v in cell.items() if k != "trace"} == {
                k: v for k, v in twin.items() if k != "trace"
            }
