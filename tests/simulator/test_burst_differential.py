"""Coalesced bursts against the per-op oracle, bit for bit.

Every non-blocking run of core time is one :class:`~repro.simulator.cpu.
Burst` event; :class:`~tests.simulator.perop.PerOpMicroservice` replays
the same runs as one ``Compute`` event per piece.  Apart from the
engine's event count, the two must agree exactly: the measurement
record, the decoded trace and the number of charged ops -- across the
Fig 9 services, the offload-pin grid, a window that ends mid-burst and a
burst resumed across two ``run_until`` calls.  The cycle accounting that
makes this possible is order-independent by construction; the last test
shuffles charges across sources to show it.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.canonical import canonical_digest
from repro.observability import SpanTracer
from repro.paperdata.breakdowns import FB_SERVICES
from repro.paperdata.categories import FunctionalityCategory as F, LeafCategory as L
from repro.simulator import (
    CPU,
    CycleKind,
    Engine,
    KernelInvocation,
    KernelSpec,
    MetricSink,
    Microservice,
    RequestSpec,
    SegmentWork,
    SimulationConfig,
    run_simulation,
)
from repro.workloads import build_workload

from . import test_offload_pinned as pinned
from .perop import PerOpMicroservice


def _observed(result):
    """What the two paths must agree on, plus the event count."""
    record = result.summarize().measurement_record()
    events = record.pop("events_processed")
    trace = None
    if result.trace is not None:
        trace = canonical_digest(result.trace, salt="burst-differential")
    return (record, trace, result.metrics.charged_ops), events


def _assert_paths_agree(run):
    coalesced, coalesced_events = _observed(run(Microservice))
    per_op, per_op_events = _observed(run(PerOpMicroservice))
    assert coalesced == per_op
    # Not vacuous: the oracle really issued one event per piece.
    assert coalesced_events < per_op_events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("seed", [2020, 7919])
@pytest.mark.parametrize("service", FB_SERVICES)
def test_fig9_services_match_the_per_op_path(service, seed, traced):
    workload = build_workload(service)
    config = SimulationConfig(
        num_cores=4, window_cycles=workload.request_cycles * 6
    )

    def run(service_class):
        rng = np.random.default_rng(seed)

        def build(engine, cpu, metrics):
            microservice = service_class(engine, cpu, metrics, name=service)
            return microservice, workload.request_factory(rng)

        tracer = SpanTracer(label=service) if traced else None
        return run_simulation(build, config, tracer=tracer)

    _assert_paths_agree(run)


@pytest.mark.parametrize(
    "design,batch_size,regime,traced", pinned._cells(),
    ids=[pinned._cell_id(*cell) for cell in pinned._cells()],
)
def test_offload_pin_cells_match_the_per_op_path(
    design, batch_size, regime, traced, monkeypatch
):
    config = SimulationConfig(
        num_cores=2,
        threads_per_core=2 if design in pinned._BLOCKING else 1,
        window_cycles=pinned._WINDOW,
    )

    def run(service_class):
        # The pin grid builds its service by module-global name.
        monkeypatch.setattr(pinned, "Microservice", service_class)
        injector = None
        if pinned._REGIMES[regime] is not None:
            policy, schedule = pinned._REGIMES[regime]
            injector = pinned.FaultInjector(policy, seed=17, schedule=schedule)
        tracer = SpanTracer(label="pin") if traced else None
        return run_simulation(
            pinned._build(design, batch_size, injector), config, tracer=tracer
        )

    _assert_paths_agree(run)


# -- horizons ----------------------------------------------------------------

_KERNEL = KernelSpec("k", F.IO, L.SSL, cycles_per_byte=1.0)


def _burst_request():
    """Plain pieces 750 + 250, then kernel calls of 100, 0, 100, 100
    cycles: pieces start at 0, 750, 1000, 1100, 1100 and 1200."""
    return RequestSpec(segments=(
        SegmentWork(F.APPLICATION_LOGIC, plain_cycles=1000.0,
                    leaf_mix={L.C_LIBRARIES: 3.0, L.MISCELLANEOUS: 1.0}),
        SegmentWork(F.IO, invocations=tuple(
            KernelInvocation(_KERNEL, size) for size in (100.0, 0.0, 100.0, 100.0)
        )),
    ))


def _one_thread(service_class, horizons, traced=False):
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, 1)
    tracer = SpanTracer(label="horizon") if traced else None
    cpu.trace = tracer
    service = service_class(engine, cpu, metrics, tracer=tracer)
    service.spawn_worker(iter([_burst_request()]))
    for horizon in horizons:
        engine.run_until(horizon)
        cpu.finalize(horizon)
    trace = None if tracer is None else canonical_digest(tracer.finish())
    return engine, metrics, trace


def _charges(metrics, trace):
    return (
        dict(metrics.cycles),
        dict(metrics.kernel_invocations),
        dict(metrics.kernel_cycles),
        dict(metrics.kernel_cycles_by_origin),
        metrics.charged_ops,
        trace,
    )


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_window_ending_mid_burst_charges_only_started_pieces(traced):
    engine, metrics, trace = _one_thread(Microservice, [1100.0], traced)
    # Pieces starting at or before 1100 are charged -- the zero-length
    # call at 1100 included -- and the one starting at 1200 is not.
    assert metrics.useful_cycles() == 1200.0
    assert metrics.kernel_invocations == {"k": 3}
    assert metrics.kernel_cycles == {"k": 200.0}
    assert metrics.charged_ops == 4
    # The uncharged piece waits as one continuation event at 1200.
    assert engine.pending_events == 1
    _, per_op, per_op_trace = _one_thread(PerOpMicroservice, [1100.0], traced)
    assert _charges(metrics, trace) == _charges(per_op, per_op_trace)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("first", [0.0, 999.0, 1000.0, 1100.0, 1150.0])
def test_burst_resumes_across_run_until_calls(first, traced):
    split_engine, split, split_trace = _one_thread(
        Microservice, [first, 5000.0], traced
    )
    _, whole, whole_trace = _one_thread(Microservice, [5000.0], traced)
    _, per_op, per_op_trace = _one_thread(
        PerOpMicroservice, [first, 5000.0], traced
    )
    assert _charges(split, split_trace) == _charges(whole, whole_trace)
    assert _charges(split, split_trace) == _charges(per_op, per_op_trace)
    assert split.useful_cycles() == 1300.0
    assert split.kernel_invocations == {"k": 4}
    assert split_engine.pending_events == 0


def test_burst_spawned_outside_a_drain_charges_only_its_first_piece():
    engine = Engine()
    metrics = MetricSink()
    cpu = CPU(engine, metrics, 1)
    Microservice(engine, cpu, metrics).spawn_worker(iter([_burst_request()]))
    # Outside any drain the horizon is "now": spawning charges the piece
    # that starts now, exactly as a per-op thread's first Compute.
    assert engine.horizon == engine.now == 0.0
    assert metrics.useful_cycles() == 750.0
    assert metrics.charged_ops == 1


# -- order-independent accounting ---------------------------------------------


def _programs():
    rng = random.Random(3)
    return [
        [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-6, 6) for _ in range(300)]
        for _ in range(5)
    ]


def _interleave(programs, seed):
    """Source indices in a random order that keeps each source's own
    charges in program order."""
    order = [i for i, program in enumerate(programs) for _ in program]
    random.Random(seed).shuffle(order)
    return order


def _charge_all(programs, order):
    sink = MetricSink()
    ledgers = [sink.ledger() for _ in programs]
    cursors = [0] * len(programs)
    shared = 0.0
    for source in order:
        value = programs[source][cursors[source]]
        cursors[source] += 1
        sink.charge(value, F.IO, L.MEMORY, ledger=ledgers[source])
        sink.charge_kernel("memcpy", value, origin=F.IO, ledger=ledgers[source])
        shared += value
    return sink, shared


def test_metric_sink_totals_ignore_how_sources_interleave():
    programs = _programs()
    baseline, _ = _charge_all(programs, _interleave(programs, 0))
    expected = (
        dict(baseline.cycles), dict(baseline.kernel_cycles),
        dict(baseline.kernel_cycles_by_origin),
    )
    shared_totals = set()
    for seed in range(1, 25):
        sink, shared = _charge_all(programs, _interleave(programs, seed))
        shared_totals.add(shared)
        got = (
            dict(sink.cycles), dict(sink.kernel_cycles),
            dict(sink.kernel_cycles_by_origin),
        )
        assert got == expected
        assert sink.kernel_invocations == {"memcpy": 1500}
    # Not vacuous: one shared accumulator does move with the order.
    assert len(shared_totals) > 1
    # Pickling keeps the merged bits.
    restored = pickle.loads(pickle.dumps(baseline))
    assert dict(restored.cycles) == expected[0]
    assert restored.cycles[(F.IO, L.MEMORY, CycleKind.USEFUL)] == (
        expected[0][(F.IO, L.MEMORY, CycleKind.USEFUL)]
    )
