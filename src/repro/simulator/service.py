"""Microservice runtime: requests, kernels, and offload execution.

A request is a sequence of :class:`SegmentWork` items -- cycles attributed
to one functionality category, optionally containing kernel invocations
(compression calls, encryptions, memory copies ...) that can either run on
the host or be offloaded to an accelerator under a configured threading
design.  The offload state machines here implement, cycle for cycle, the
cost structures of the paper's Sync, Sync-OS, and Async designs (Figs.
12-14).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Sequence
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

from ..core.strategies import Placement, ThreadingDesign
from ..errors import SimulationError
from ..faults.policy import AttemptOutcome
from ..paperdata.categories import FunctionalityCategory, LeafCategory
from .accelerator import AcceleratorDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
from .cpu import (
    CPU,
    Burst,
    Compute,
    HoldCore,
    ReleaseCore,
    SimThread,
    ThreadState,
    YieldCore,
)
from .engine import Engine
from .interface import InterfaceModel
from .metrics import CycleKind, MetricSink, OffloadRecord

# ---------------------------------------------------------------------------
# Workload specification types.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class KernelSpec:
    """A named, offloadable kernel (e.g. "compression")."""

    name: str
    functionality: FunctionalityCategory
    leaf: LeafCategory
    cycles_per_byte: float
    complexity_exponent: float = 1.0

    def host_cycles(self, granularity_bytes: float) -> float:
        """Host cost of one invocation: ``Cb * g**beta``."""
        if granularity_bytes < 0:
            raise SimulationError("granularity must be >= 0")
        return self.cycles_per_byte * granularity_bytes**self.complexity_exponent


@dataclasses.dataclass(frozen=True, slots=True)
class KernelInvocation:
    """One kernel call within a request."""

    kernel: KernelSpec
    granularity: float


@dataclasses.dataclass(frozen=True, slots=True)
class KernelRow:
    """Consecutive calls to one kernel, as data: call ``i`` moves
    ``granularities[i]`` bytes and costs ``host_cycles[i]`` host cycles
    (``kernel.host_cycles(granularities[i])``, computed once per row)."""

    kernel: KernelSpec
    granularities: Sequence[float]
    host_cycles: Sequence[float]

    @classmethod
    def of(cls, kernel: KernelSpec, granularities: Sequence[float]) -> "KernelRow":
        return cls(
            kernel, granularities, [kernel.host_cycles(g) for g in granularities]
        )


class KernelCalls(Sequence):
    """A segment's kernel calls, stored as :class:`KernelRow` blocks.

    Reads as a sequence of :class:`KernelInvocation` (built on demand);
    the simulator walks :attr:`rows` directly, so a workload can emit one
    row per kernel block instead of one object per call.
    """

    __slots__ = ("rows", "_count")

    def __init__(self, rows: Tuple[KernelRow, ...] = ()) -> None:
        self.rows = rows
        count = 0
        for row in rows:
            if len(row.host_cycles) != len(row.granularities):
                raise SimulationError(
                    "kernel row needs one host cost per granularity"
                )
            count += len(row.granularities)
        self._count = count

    @classmethod
    def of(cls, invocations: Iterable[KernelInvocation]) -> "KernelCalls":
        """Group consecutive calls to the same kernel spec into rows."""
        rows = []
        kernel = None
        sizes: list = []
        for invocation in invocations:
            if invocation.kernel is not kernel and invocation.kernel != kernel:
                if sizes:
                    rows.append(KernelRow.of(kernel, sizes))
                kernel, sizes = invocation.kernel, []
            sizes.append(invocation.granularity)
        if sizes:
            rows.append(KernelRow.of(kernel, sizes))
        return cls(tuple(rows))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[KernelInvocation]:
        for row in self.rows:
            for granularity in row.granularities:
                yield KernelInvocation(row.kernel, granularity)

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"KernelCalls({list(self)!r})"


_NO_CALLS = KernelCalls()


def _miscellaneous_leaf_mix() -> Mapping[LeafCategory, float]:
    """Default leaf attribution: all plain cycles are miscellaneous."""
    return {LeafCategory.MISCELLANEOUS: 1.0}


@dataclasses.dataclass(frozen=True, slots=True)
class SegmentWork:
    """Work in one functionality category within a request."""

    functionality: FunctionalityCategory
    #: Non-kernel host cycles in this segment.
    plain_cycles: float = 0.0
    #: Shares of *plain_cycles* per leaf category (normalized internally).
    leaf_mix: Mapping[LeafCategory, float] = dataclasses.field(
        default_factory=_miscellaneous_leaf_mix
    )
    #: The segment's kernel calls; a plain tuple of
    #: :class:`KernelInvocation` is stored as :class:`KernelCalls`.
    invocations: Sequence[KernelInvocation] = ()
    #: ``leaf_mix``'s total share, summed once in insertion order.
    _share_total: float = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.plain_cycles < 0:
            raise SimulationError(
                f"segment plain_cycles must be >= 0, got {self.plain_cycles}"
            )
        total = 0.0
        for leaf, share in self.leaf_mix.items():
            if share < 0:
                raise SimulationError(
                    f"segment leaf_mix share of {leaf} must be >= 0, got {share}"
                )
            total += share
        if total <= 0:
            raise SimulationError("segment leaf_mix must have positive mass")
        object.__setattr__(self, "_share_total", total)
        if not isinstance(self.invocations, KernelCalls):
            object.__setattr__(
                self, "invocations",
                KernelCalls.of(self.invocations) if self.invocations
                else _NO_CALLS,
            )


@dataclasses.dataclass(frozen=True, slots=True)
class RequestSpec:
    """A full request: ordered functionality segments."""

    segments: Tuple[SegmentWork, ...]

    def total_host_cycles(self) -> float:
        """Cycles the request costs when nothing is offloaded."""
        total = 0.0
        for segment in self.segments:
            total += segment.plain_cycles
            for row in segment.invocations.rows:
                for cycles in row.host_cycles:
                    total += cycles
        return total


# ---------------------------------------------------------------------------
# Offload configuration.
# ---------------------------------------------------------------------------


def _tenant_label(device) -> str:
    """Span attribution label for *device* (a device or a tenant port).

    Private devices have no label; a :class:`~repro.simulator.accelerator.
    TenantPort` reports its tenant name only in shared mode, keeping
    single-tenant traces bit-identical to private-device traces.
    """
    return getattr(device, "tenant_label", "")


#: Designs whose thread blocks until the offload responds.
_BLOCKING_DESIGNS = (ThreadingDesign.SYNC, ThreadingDesign.SYNC_OS)


@dataclasses.dataclass(slots=True)
class _BatchState:
    """Accumulated invocations awaiting a batched dispatch."""

    pending_host_cycles: float = 0.0
    pending_bytes: float = 0.0
    pending_count: int = 0
    gates: list = dataclasses.field(default_factory=list)
    #: Every request context covered by the pending batch (gating or
    #: not), so a whole-batch fallback can mark each one degraded.
    contexts: list = dataclasses.field(default_factory=list)

    def reset(self) -> Tuple[float, float, int, list, list]:
        summary = (
            self.pending_host_cycles,
            self.pending_bytes,
            self.pending_count,
            self.gates,
            self.contexts,
        )
        self.pending_host_cycles = 0.0
        self.pending_bytes = 0.0
        self.pending_count = 0
        self.gates = []
        self.contexts = []
        return summary


@dataclasses.dataclass(slots=True)
class OffloadConfig:
    """How one kernel is offloaded."""

    device: AcceleratorDevice
    interface: InterfaceModel
    design: ThreadingDesign

    #: Only invocations with granularity >= this are offloaded; smaller
    #: ones run on the host (the paper's selective-offload assumption).
    min_granularity: float = 0.0

    #: Sync-OS only: whether the device driver waits for the accelerator's
    #: acknowledgement (transfer + queue) before switching threads.
    driver_awaits_ack: bool = True

    #: ``o1`` in cycles, used by Sync-OS and async-distinct-thread.
    thread_switch_cycles: float = 0.0

    #: Async-distinct-thread response consumer (one per service).
    response_handler: Optional["ResponseHandler"] = None

    #: Async designs only: accumulate this many invocations into one
    #: offload, paying the dispatch overheads once per batch (the
    #: remote-inference case study's batching strategy).  A partial batch
    #: left at the end of a measurement window is never flushed, matching
    #: a size-triggered production batcher.
    batch_size: int = 1

    #: Optional seeded fault injector.  When active, every dispatch of
    #: this kernel runs through the retry / exponential-backoff /
    #: fallback-to-CPU state machine in
    #: :meth:`Microservice._adjudicate_faults`, once per *doorbell*: a
    #: single dispatch is a doorbell of one.  Each attempt draws one
    #: outcome per buffered invocation -- the same entropy budget as
    #: ``batch_size`` unbatched dispatches -- and a single dropped item
    #: fails the whole doorbell while latency spikes accrue per item.
    faults: Optional["FaultInjector"] = None

    _batch_state: _BatchState = dataclasses.field(default_factory=_BatchState)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise SimulationError("batch_size must be >= 1")
        if self.batch_size > 1 and self.design in _BLOCKING_DESIGNS:
            raise SimulationError(
                "batched offload requires an async design: a blocking "
                "thread cannot wait on a batch it has not filled"
            )
        if (
            self.design is ThreadingDesign.ASYNC_DISTINCT_THREAD
            and self.response_handler is None
        ):
            raise SimulationError(
                "async-distinct-thread offload needs a response handler"
            )

    def gates_request(self) -> bool:
        """Whether a request must wait for this kernel's response.

        Fire-and-forget offloads to a *remote* device do not gate the
        issuing microservice's request latency (the paper: remote
        accelerator latency "will instead show up in the overall
        application's end-to-end latency").
        """
        if self.design is ThreadingDesign.ASYNC_NO_RESPONSE:
            return self.interface.placement is not Placement.REMOTE
        return True


def _no_release() -> None:
    """Response callback of a dispatch that gates no request."""


class ResponseHandler:
    """A dedicated thread that picks up async accelerator responses.

    Each delivered response costs one thread switch ``o1`` of core time
    (the paper's async-distinct-thread design: "the speedup equation is
    the same as (3) with only one thread switching overhead").
    """

    __slots__ = ("_cpu", "_o1", "_pending", "_parked", "_thread")

    def __init__(self, cpu: CPU, thread_switch_cycles: float) -> None:
        if thread_switch_cycles < 0:
            raise SimulationError("thread_switch_cycles must be >= 0")
        self._cpu = cpu
        self._o1 = thread_switch_cycles
        self._pending: Deque[Callable[[], None]] = deque()
        self._parked = False
        self._thread = cpu.spawn(self._body, name="response-handler")

    @property
    def pending_responses(self) -> int:
        return len(self._pending)

    def deliver(self, callback: Callable[[], None]) -> None:
        """Queue a response; wakes the handler if it is parked."""
        self._pending.append(callback)
        if self._parked:
            self._parked = False
            self._cpu.resume(self._thread)

    def _body(self, thread: SimThread):
        while True:
            if self._pending:
                callback = self._pending.popleft()
                if self._o1 > 0:
                    yield Compute(
                        self._o1,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                        CycleKind.THREAD_SWITCH,
                    )
                callback()
            else:
                self._parked = True
                yield ReleaseCore()


# ---------------------------------------------------------------------------
# Request lifecycle.
# ---------------------------------------------------------------------------


class _RequestContext:
    """Tracks outstanding gating offloads for one in-flight request."""

    __slots__ = ("_engine", "_record", "_outstanding", "_body_done", "trace")

    def __init__(self, engine: Engine, record) -> None:
        self._engine = engine
        self._record = record
        self._outstanding = 0
        self._body_done = False
        #: Per-request :class:`~repro.observability.TraceContext` when the
        #: service carries a tracer; None on untraced runs.
        self.trace = None

    def add_gate(self) -> None:
        self._outstanding += 1

    def release_gate(self) -> None:
        if self._outstanding <= 0:
            raise SimulationError("released more gates than were taken")
        self._outstanding -= 1
        self._maybe_complete()

    def body_finished(self) -> None:
        self._body_done = True
        self._maybe_complete()

    def mark_degraded(self) -> None:
        """Record that a fault degraded this request (fallback or loss)."""
        self._record.degraded = True

    def _maybe_complete(self) -> None:
        if (
            self._body_done
            and self._outstanding == 0
            and self._record.completed_at is None
        ):
            self._record.completed_at = self._engine.now


class Microservice:
    """Executes request streams on a :class:`CPU` with optional offloads."""

    __slots__ = ("engine", "cpu", "metrics", "name", "offloads",
                 "_request_counter", "tracer")

    def __init__(
        self,
        engine: Engine,
        cpu: CPU,
        metrics: MetricSink,
        name: str = "service",
        offloads: Optional[Dict[str, OffloadConfig]] = None,
        tracer=None,
    ) -> None:
        self.engine = engine
        self.cpu = cpu
        self.metrics = metrics
        self.name = name
        self.offloads = dict(offloads or {})
        self._request_counter = 0
        #: Optional :class:`~repro.observability.SpanTracer`.  Every span
        #: emission below is gated on ``is not None`` (lint rule OBS001),
        #: so untraced runs allocate nothing on the request path.
        self.tracer = tracer

    # -- workers --------------------------------------------------------------

    def spawn_worker(
        self,
        requests: Iterator[RequestSpec],
        name: str = "",
        arrival_time: Optional[float] = None,
    ) -> SimThread:
        """Start a closed-loop worker thread consuming *requests*.

        *arrival_time* timestamps the first request's arrival (open-loop
        drivers pass the arrival instant so measured latency includes any
        run-queue wait before a core picks the work up).
        """

        def factory(thread: SimThread):
            return self._worker_body(thread, requests, arrival_time)

        return self.cpu.spawn(factory, name=name or f"{self.name}-worker")

    def _worker_body(
        self,
        thread: SimThread,
        requests: Iterator[RequestSpec],
        arrival_time: Optional[float] = None,
    ):
        for spec in requests:
            self._request_counter += 1
            opened_at = self.engine.now if arrival_time is None else arrival_time
            arrival_time = None  # only the first request pre-dates scheduling
            record = self.metrics.open_request(self._request_counter, opened_at)
            context = _RequestContext(self.engine, record)
            tracer = self.tracer
            if tracer is not None:
                context.trace = tracer.begin_request(self.name, record)
                thread.trace_ctx = context.trace
            for segment in spec.segments:
                yield from self._run_segment(thread, segment, context)
            context.body_finished()
            if tracer is not None:
                tracer.end_body(context.trace, self.engine.now)
                thread.trace_ctx = None
            # Hand the core to any waiting thread (e.g. a response
            # handler) before starting the next request.
            yield YieldCore()

    # -- segment execution ------------------------------------------------------

    def _run_segment(self, thread: SimThread, segment: SegmentWork, context):
        """Run one segment: its plain leaf pieces and every host-run
        kernel call go to the CPU as one :class:`Burst`; an offloaded
        call ends the burst so far and runs its offload state machine."""
        tracer = self.tracer
        span = None
        if tracer is not None and context.trace is not None:
            span = tracer.begin_segment(
                context.trace, segment.functionality, self.engine.now
            )
        runs = []
        plain = segment.plain_cycles
        if plain > 0:
            functionality = segment.functionality
            total_share = segment._share_total
            for leaf, share in segment.leaf_mix.items():
                cycles = plain * share / total_share
                if cycles > 0:
                    runs.append((functionality, leaf, None, (cycles,)))
        for row in segment.invocations.rows:
            kernel = row.kernel
            config = self.offloads.get(kernel.name)
            if config is None:
                runs.append((
                    kernel.functionality, kernel.leaf, kernel.name,
                    row.host_cycles,
                ))
                continue
            threshold = config.min_granularity
            for granularity, host_cycles in zip(
                row.granularities, row.host_cycles
            ):
                if granularity < threshold:
                    runs.append((
                        kernel.functionality, kernel.leaf, kernel.name,
                        (host_cycles,),
                    ))
                    continue
                if runs:
                    yield Burst(runs)
                    runs = []
                yield from self._run_offload(
                    thread, kernel, granularity, host_cycles, config, context
                )
        if runs:
            yield Burst(runs)
        if tracer is not None and span is not None:
            tracer.end_segment(context.trace, span, self.engine.now)

    # -- offload state machines ---------------------------------------------------

    def _run_offload(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        granularity: float,
        host_cycles: float,
        config: OffloadConfig,
        context: _RequestContext,
    ):
        if config.batch_size > 1:
            # Batched kernels buffer here; the filling invocation runs
            # the doorbell through the same fault loop and async tail.
            yield from self._offload_async_batched(
                thread, kernel, host_cycles, granularity, config, context,
            )
            return
        transfer = config.interface.transfer_cycles(granularity)
        dispatch = config.interface.dispatch_cycles
        extra_delay = 0.0
        injector = config.faults
        if injector is not None and injector.active:
            # A single dispatch is a doorbell of one: it covers its own
            # request and takes its gate only after adjudication.
            extra_delay = yield from self._adjudicate_faults(
                thread, kernel, host_cycles, transfer, dispatch, config,
                context, 1, (context,), (),
            )
            if extra_delay is None:
                # Retries exhausted: the kernel ran on the host (fallback)
                # or its work was lost.  Nothing reaches the device.
                return
        record = OffloadRecord(
            kernel=kernel.name,
            granularity=granularity,
            dispatched_at=self.engine.now,
            service_cycles=config.device.service_cycles(host_cycles),
        )
        design = config.design
        tracer = self.tracer
        if tracer is not None and context.trace is not None:
            tracer.begin_offload(
                context.trace, record, design,
                tenant=_tenant_label(config.device),
            )

        if design is ThreadingDesign.SYNC:
            yield from self._offload_sync(
                thread, kernel, host_cycles, transfer, dispatch, config, record,
                extra_delay,
            )
        elif design is ThreadingDesign.SYNC_OS:
            yield from self._offload_sync_os(
                thread, kernel, host_cycles, transfer, dispatch, config,
                record, extra_delay,
            )
        elif design in (
            ThreadingDesign.ASYNC,
            ThreadingDesign.ASYNC_DISTINCT_THREAD,
            ThreadingDesign.ASYNC_NO_RESPONSE,
        ):
            yield from self._offload_async(
                kernel, host_cycles, transfer, dispatch, config, record,
                context, extra_delay,
            )
        else:
            raise SimulationError(f"unsupported threading design {design!r}")

    # -- fault handling ---------------------------------------------------------

    def _adjudicate_faults(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        host_cycles: float,
        transfer: float,
        dispatch: float,
        config: OffloadConfig,
        context: _RequestContext,
        count: int,
        covered: Sequence[_RequestContext],
        gated: Sequence[_RequestContext],
    ):
        """Retry loop for one doorbell of *count* invocations (costing
        *host_cycles* in all) under ``config.faults``; a single dispatch
        is the doorbell of one.  Each attempt draws one outcome per
        invocation -- the entropy budget of *count* single dispatches --
        so seeded fault streams stay aligned across batch sizes.  Any
        DROP fails the whole doorbell; per-item SPIKEs accrue into its
        response delay.  *covered* and *gated* go to :meth:`_fall_back`.

        Returns the response-delay shift of the final successful attempt
        (accumulated async timeouts plus latency spikes), or ``None``
        when retries were exhausted -- the fallback (or the loss) is then
        already accounted for.
        """
        injector = config.faults
        policy = injector.policy
        counters = self.metrics.fault_counters(kernel.name)
        blocking = config.design in _BLOCKING_DESIGNS
        tracer = self.tracer
        trace_ctx = context.trace if tracer is not None else None
        if tracer is not None and trace_ctx is not None:
            tracer.note_degradations(kernel.name, injector.schedule)
        waited = 0.0
        failures = 0
        while True:
            attempt_started = self.engine.now
            dropped = 0
            spikes = 0
            for _ in range(count):
                outcome = injector.outcome(self.engine.now)
                if outcome is AttemptOutcome.DROP:
                    dropped += 1
                elif outcome is AttemptOutcome.SPIKE:
                    spikes += 1
            counters.attempts += 1
            if not dropped:
                if not spikes:
                    if tracer is not None and trace_ctx is not None:
                        tracer.record_attempt(
                            trace_ctx, kernel.name, failures, "ok",
                            attempt_started, attempt_started,
                        )
                    return waited
                spike_cycles = spikes * policy.spike_cycles
                counters.latency_spikes += spikes
                counters.spike_cycles += spike_cycles
                if tracer is not None and trace_ctx is not None:
                    tracer.record_attempt(
                        trace_ctx, kernel.name, failures, "spike",
                        attempt_started, attempt_started,
                        spike_cycles=spike_cycles,
                    )
                return waited + spike_cycles
            # DROP: the attempt never completes; the host pays its share
            # of the dispatch cost and notices only via one timeout.
            failures += 1
            counters.drops += dropped
            counters.timeouts += 1
            counters.timeout_cycles += policy.timeout_cycles
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = "fault-timeout"
            yield from self._failed_attempt(
                thread, kernel, transfer, dispatch, config
            )
            if tracer is not None and trace_ctx is not None:
                trace_ctx.tag = None
                tracer.record_attempt(
                    trace_ctx, kernel.name, failures - 1, "drop",
                    attempt_started, self.engine.now,
                )
            if not blocking:
                # Async hosts compute through the wait; the lost time
                # surfaces as response delay instead of core time.
                waited += policy.timeout_cycles
            if failures > policy.max_retries:
                fallback_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "fallback"
                yield from self._fall_back(
                    thread, kernel, host_cycles, count, covered, gated,
                    counters, policy,
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
                    tracer.record_fallback(
                        trace_ctx, kernel.name, fallback_started,
                        self.engine.now, policy.fallback_to_cpu,
                    )
                return None
            backoff = policy.backoff_cycles(failures - 1)
            if backoff > 0:
                counters.backoff_cycles += backoff
                backoff_started = self.engine.now
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = "backoff"
                    tracer.record_backoff(
                        trace_ctx, kernel.name, backoff_started,
                        backoff_started + backoff,
                    )
                yield Compute(
                    backoff, kernel.functionality, kernel.leaf, CycleKind.BLOCKED
                )
                if tracer is not None and trace_ctx is not None:
                    trace_ctx.tag = None
            counters.retries += 1

    def _failed_attempt(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        transfer: float,
        dispatch: float,
        config: OffloadConfig,
    ):
        """Charge one dropped attempt's host-side cost for the design.

        Sync: ``o0`` busy plus the timeout blocked on-core.  Sync-OS:
        ``o0 + 2*o1`` busy with the timeout spent off-core.  Async family:
        ``o0 + L`` busy (the bytes were sent), timeout off the host.
        """
        design = config.design
        if design not in _BLOCKING_DESIGNS:
            overhead = dispatch + transfer
            if overhead > 0:
                yield Compute(
                    overhead, kernel.functionality, kernel.leaf,
                    CycleKind.OFFLOAD_OVERHEAD,
                )
            return
        o1 = config.thread_switch_cycles
        timeout = config.faults.policy.timeout_cycles
        if dispatch > 0:
            yield Compute(
                dispatch, kernel.functionality, kernel.leaf,
                CycleKind.OFFLOAD_OVERHEAD,
            )
        if design is ThreadingDesign.SYNC:
            if timeout > 0:
                self.engine.after(timeout, lambda: self.cpu.resume(thread))
                yield HoldCore(kernel.functionality, kernel.leaf)
        else:
            if timeout > 0:
                if o1 > 0:
                    yield Compute(
                        o1,
                        FunctionalityCategory.THREAD_POOL,
                        LeafCategory.KERNEL,
                        CycleKind.THREAD_SWITCH,
                    )
                self.engine.after(timeout, lambda: self.cpu.resume(thread))
                yield ReleaseCore(resume_charge=o1)
            elif o1 > 0:
                # Immediate detection still pays the pair of switches,
                # keeping cost parity with eqn. (3)'s 2 * o1.
                yield Compute(
                    2.0 * o1,
                    FunctionalityCategory.THREAD_POOL,
                    LeafCategory.KERNEL,
                    CycleKind.THREAD_SWITCH,
                )

    def _fall_back(
        self,
        thread: SimThread,
        kernel: KernelSpec,
        host_cycles: float,
        count: int,
        covered: Sequence[_RequestContext],
        gated: Sequence[_RequestContext],
        counters,
        policy,
    ):
        """Retries exhausted: the doorbell's *count* invocations run on
        the host CPU (or their work is lost).  Every *covered* request is
        marked degraded and every *gated* one released: a batch took its
        gates while buffering, a single dispatch takes none until its
        attempt succeeds."""
        for covered_context in covered:
            covered_context.mark_degraded()
        if policy.fallback_to_cpu:
            counters.fallbacks += count
            counters.fallback_cycles += host_cycles
            self.metrics.charge_kernel(
                kernel.name, host_cycles, origin=kernel.functionality,
                ledger=thread.ledger,
            )
            if host_cycles > 0:
                yield Compute(host_cycles, kernel.functionality, kernel.leaf)
        else:
            counters.lost_offloads += count
        for gated_context in gated:
            gated_context.release_gate()

    def _offload_sync(
        self, thread, kernel, host_cycles, transfer, dispatch, config, record,
        extra_delay=0.0,
    ):
        """Sync (Fig. 12): the core blocks through transfer, queue, and
        accelerator service (plus any fault-induced *extra_delay*)."""
        if dispatch > 0:
            yield Compute(
                dispatch, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )

        def on_accept(queue_cycles: float) -> None:
            record.queued_cycles = queue_cycles

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            self.cpu.resume(thread)

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            host_cycles,
            arrival_time=arrival_time,
            on_accept=on_accept,
            on_complete=on_complete,
        )
        yield HoldCore(kernel.functionality, kernel.leaf)
        self.metrics.record_offload(record)

    def _offload_sync_os(
        self, thread, kernel, host_cycles, transfer, dispatch, config,
        record, extra_delay=0.0,
    ):
        """Sync-OS (Fig. 13): block through the driver ack (if any), then
        switch to another thread; switch back on completion (2 x o1)."""
        o1 = config.thread_switch_cycles
        if dispatch > 0:
            yield Compute(
                dispatch, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )
        completed_early = {"flag": False}

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            if thread.state is ThreadState.BLOCKED_RELEASED:
                self.cpu.resume(thread)
            else:
                completed_early["flag"] = True

        arrival_time = self.engine.now + transfer
        if extra_delay:
            arrival_time += extra_delay
        awaits_ack = (
            config.driver_awaits_ack
            and config.interface.placement is not Placement.REMOTE
        )
        if awaits_ack:
            # Host stays on-core until the device acknowledges (L + Q).
            def on_accept(queue_cycles: float) -> None:
                record.queued_cycles = queue_cycles
                self.cpu.resume(thread)

            config.device.submit(
                host_cycles,
                arrival_time=arrival_time,
                on_accept=on_accept,
                on_complete=on_complete,
            )
            yield HoldCore(kernel.functionality, kernel.leaf)
        else:

            def on_accept(queue_cycles: float) -> None:
                record.queued_cycles = queue_cycles

            config.device.submit(
                host_cycles,
                arrival_time=arrival_time,
                on_accept=on_accept,
                on_complete=on_complete,
            )
        # Switch away...
        if o1 > 0:
            yield Compute(
                o1,
                FunctionalityCategory.THREAD_POOL,
                LeafCategory.KERNEL,
                CycleKind.THREAD_SWITCH,
            )
        if completed_early["flag"]:
            # Response beat the switch; pay the switch-back inline to keep
            # cost parity with eqn. (3)'s 2 * o1.
            if o1 > 0:
                yield Compute(
                    o1,
                    FunctionalityCategory.THREAD_POOL,
                    LeafCategory.KERNEL,
                    CycleKind.THREAD_SWITCH,
                )
        else:
            yield ReleaseCore(resume_charge=o1)
        self.metrics.record_offload(record)

    def _offload_async(
        self, kernel, host_cycles, transfer, dispatch, config, record, context,
        extra_delay=0.0,
    ):
        """Async (Fig. 14): the host pays dispatch + transfer cycles and
        keeps running; responses gate request completion (except remote
        fire-and-forget) and may be consumed by a dedicated thread.
        Fault-induced *extra_delay* (timeouts waited out off the host,
        latency spikes) pushes the device arrival into the future."""
        overhead = dispatch + transfer
        if overhead > 0:
            yield Compute(
                overhead, kernel.functionality, kernel.leaf, CycleKind.OFFLOAD_OVERHEAD
            )
        release = _no_release
        if config.gates_request():
            context.add_gate()
            release = context.release_gate
        self._submit_async(config, record, host_cycles, release, extra_delay)

    def _offload_async_batched(
        self, thread, kernel, host_cycles, granularity, config, context
    ):
        """Append one invocation to the kernel's batch; the invocation
        that fills the batch pays the (single) dispatch overhead and
        triggers the offload covering every buffered invocation."""
        state = config._batch_state
        state.pending_host_cycles += host_cycles
        state.pending_bytes += granularity
        state.pending_count += 1
        state.contexts.append(context)
        if config.gates_request():
            context.add_gate()
            state.gates.append(context)
        if state.pending_count < config.batch_size:
            return
        cycles, size, count, gated, covered = state.reset()
        transfer = config.interface.transfer_cycles(size)
        dispatch = config.interface.dispatch_cycles
        extra_delay = 0.0
        injector = config.faults
        if injector is not None and injector.active:
            extra_delay = yield from self._adjudicate_faults(
                thread, kernel, cycles, transfer, dispatch, config, context,
                count, covered, gated,
            )
            if extra_delay is None:
                # Doorbell retries exhausted: the whole batch fell back
                # to the host (or was lost); nothing reaches the device.
                return
        overhead = dispatch + transfer
        if overhead > 0:
            yield Compute(
                overhead, kernel.functionality, kernel.leaf,
                CycleKind.OFFLOAD_OVERHEAD,
            )
        record = OffloadRecord(
            kernel=kernel.name,
            granularity=size,
            dispatched_at=self.engine.now,
            service_cycles=config.device.service_cycles(cycles),
        )
        tracer = self.tracer
        if tracer is not None and context.trace is not None:
            # Parented by the flushing request; the batch covers every
            # buffered invocation (batched_invocations attribute).
            tracer.begin_offload(
                context.trace, record, config.design, batched=count,
                tenant=_tenant_label(config.device),
            )

        def release_all() -> None:
            for gated_context in gated:
                gated_context.release_gate()

        self._submit_async(config, record, cycles, release_all, extra_delay)

    def _submit_async(self, config, record, cycles, release, extra_delay):
        """Submit one async dispatch of *cycles*, arriving *extra_delay*
        late; its response runs *release* -- through the response
        handler under the distinct-thread design."""
        handler = None
        if config.design is ThreadingDesign.ASYNC_DISTINCT_THREAD:
            handler = config.response_handler

        def on_accept(queue_cycles: float) -> None:
            record.queued_cycles = queue_cycles

        def on_complete(completion: float) -> None:
            record.completed_at = completion
            if handler is not None:
                handler.deliver(release)
            else:
                release()

        arrival_time = self.engine.now
        if extra_delay:
            arrival_time += extra_delay
        config.device.submit(
            cycles,
            arrival_time=arrival_time,
            on_accept=on_accept,
            on_complete=on_complete,
        )
        self.metrics.record_offload(record)
