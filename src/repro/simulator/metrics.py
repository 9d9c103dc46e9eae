"""Cycle accounting and measurement for the microservice simulator.

The :class:`MetricSink` is the simulator's flight recorder.  It attributes
every simulated host cycle to a (functionality, leaf-category, kind)
triple -- exactly the attribution the paper's Strobelight + internal
tagging tools produce -- and records per-request latencies, offload
statistics, and core utilization.  The profiling layer
(:mod:`repro.profiling`) consumes these counters to regenerate the
characterization figures.

Cycle accounting is order-independent: every simulated thread and core
charges its own :class:`Ledger` in program order, and the sink's totals
merge the ledgers per key with :func:`math.fsum` (exact, then rounded
once).  How the event loop interleaves threads -- one event per
``Compute`` or one per coalesced burst -- cannot move a bit of any
total.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..paperdata.categories import FunctionalityCategory, LeafCategory
from .guards import require_positive_window


class CycleKind(enum.Enum):
    """Why the host spent a cycle."""

    # Identity hashing: members are singletons with identity equality,
    # and this enum is the third component of the per-event cycle-dict
    # key, so the C slot hash replaces an interpreted __hash__ on the
    # DES hot path (see repro.paperdata.categories for the full note).
    __hash__ = object.__hash__

    #: Application work (kernel or non-kernel logic).
    USEFUL = "useful"

    #: Per-offload dispatch overhead (o0, and L/Q where they burn host time).
    OFFLOAD_OVERHEAD = "offload-overhead"

    #: Thread-switch overhead (o1).
    THREAD_SWITCH = "thread-switch"

    #: Core blocked waiting for a synchronous offload.
    BLOCKED = "blocked"

    #: Core idle with nothing runnable.
    IDLE = "idle"


@dataclasses.dataclass(slots=True)
class OffloadRecord:
    """Lifecycle timestamps of one offload, in simulated cycles."""

    kernel: str
    granularity: float
    dispatched_at: float
    queued_cycles: float = 0.0
    service_cycles: float = 0.0
    completed_at: Optional[float] = None


@dataclasses.dataclass(slots=True)
class FaultCounters:
    """Degraded-mode accounting for one offloaded kernel.

    ``attempts`` counts every dispatch the fault layer adjudicated
    (including the final successful one); ``drops``/``timeouts`` count
    failed attempts; ``retries`` counts re-dispatches; ``fallbacks``
    counts offloads that exhausted their retries.  The ``*_cycles``
    fields record where the recovery cycles went, so goodput-vs-
    throughput analyses can separate useful work from fault tax.
    """

    attempts: int = 0
    drops: int = 0
    retries: int = 0
    timeouts: int = 0
    latency_spikes: int = 0
    fallbacks: int = 0
    lost_offloads: int = 0
    timeout_cycles: float = 0.0
    backoff_cycles: float = 0.0
    fallback_cycles: float = 0.0
    spike_cycles: float = 0.0

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate *other* into this counter set."""
        for field in dataclasses.fields(FaultCounters):
            setattr(
                self,
                field.name,
                getattr(self, field.name) + getattr(other, field.name),
            )


@dataclasses.dataclass(slots=True)
class RequestRecord:
    """One request's lifecycle."""

    request_id: int
    started_at: float
    completed_at: Optional[float] = None

    #: True when a fault degraded this request: an offload fell back to
    #: the host CPU, or (without fallback) its work was lost outright.
    degraded: bool = False

    @property
    def latency(self) -> float:
        if self.completed_at is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.completed_at - self.started_at


CycleKey = Tuple[FunctionalityCategory, LeafCategory, CycleKind]


class Ledger:
    """One charge source's partial sums, accumulated in program order.

    A source is a simulated thread or core (or the sink itself, for
    direct :meth:`MetricSink.charge` calls).  Its charges arrive in the
    order its own program issues them, whatever the event loop does with
    other sources, so each partial sum is interleaving-independent.
    """

    __slots__ = ("cycles", "invocations", "kernel_cycles",
                 "kernel_cycles_by_origin", "ops")

    def __init__(self) -> None:
        self.cycles: Dict[CycleKey, float] = defaultdict(float)
        self.invocations: Dict[str, int] = defaultdict(int)
        self.kernel_cycles: Dict[str, float] = defaultdict(float)
        self.kernel_cycles_by_origin: Dict[
            Tuple[str, FunctionalityCategory], float
        ] = defaultdict(float)
        #: Thread ops charged: one per ``Compute`` or burst piece of
        #: positive core time, however many events carried them.
        self.ops = 0


def _key_order(key) -> tuple:
    """Sort key for merged totals: enum components by value."""
    parts = key if isinstance(key, tuple) else (key,)
    return tuple(
        part.value if isinstance(part, enum.Enum) else part for part in parts
    )


class MetricSink:
    """Accumulates simulator measurements."""

    __slots__ = ("offloads", "requests", "faults", "_ledgers", "_own")

    def __init__(self) -> None:
        self.offloads: List[OffloadRecord] = []
        self.requests: List[RequestRecord] = []
        #: Degraded-mode accounting per offloaded kernel.  Populated only
        #: when a fault injector actually adjudicated attempts, so a
        #: fault-free run's measurement record stays byte-identical to one
        #: taken before the fault layer existed.
        self.faults: Dict[str, FaultCounters] = {}
        self._ledgers: List[Ledger] = []
        #: The source of charges made without a ledger.
        self._own = self.ledger()

    # -- cycle attribution ------------------------------------------------

    def ledger(self) -> Ledger:
        """A new charge source (one per simulated thread and core)."""
        ledger = Ledger()
        self._ledgers.append(ledger)
        return ledger

    def charge(
        self,
        cycles: float,
        functionality: FunctionalityCategory,
        leaf: LeafCategory,
        kind: CycleKind = CycleKind.USEFUL,
        ledger: Optional[Ledger] = None,
    ) -> None:
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles: {cycles}")
        source = self._own if ledger is None else ledger
        source.cycles[(functionality, leaf, kind)] += cycles

    def charge_kernel(
        self,
        kernel: str,
        cycles: float,
        origin: Optional[FunctionalityCategory] = None,
        ledger: Optional[Ledger] = None,
    ) -> None:
        """Track named-kernel host cycles (for deriving alpha and the
        per-functionality kernel origins of Fig. 4)."""
        source = self._own if ledger is None else ledger
        source.invocations[kernel] += 1
        source.kernel_cycles[kernel] += cycles
        if origin is not None:
            source.kernel_cycles_by_origin[(kernel, origin)] += cycles

    # -- merged totals -----------------------------------------------------

    def _merged(self, attribute: str, total=math.fsum) -> dict:
        parts: Dict[object, list] = defaultdict(list)
        for ledger in self._ledgers:
            for key, value in getattr(ledger, attribute).items():
                parts[key].append(value)
        merged = defaultdict(float if total is math.fsum else int)
        for key in sorted(parts, key=_key_order):
            merged[key] = total(parts[key])
        return merged

    @property
    def cycles(self) -> Dict[CycleKey, float]:
        """Cycles per (functionality, leaf, kind), merged over sources."""
        return self._merged("cycles")

    @property
    def kernel_invocations(self) -> Dict[str, int]:
        return self._merged("invocations", total=sum)

    @property
    def kernel_cycles(self) -> Dict[str, float]:
        return self._merged("kernel_cycles")

    @property
    def kernel_cycles_by_origin(
        self,
    ) -> Dict[Tuple[str, FunctionalityCategory], float]:
        """Host cycles per (kernel, functionality-origin) -- Fig. 4's
        attribution of memory copies to service functionalities."""
        return self._merged("kernel_cycles_by_origin")

    @property
    def charged_ops(self) -> int:
        """Thread ops charged, summed over sources."""
        return sum(ledger.ops for ledger in self._ledgers)

    def kernel_origin_shares(self, kernel: str) -> Dict[FunctionalityCategory, float]:
        """Fraction of *kernel*'s host cycles per functionality origin."""
        totals = {
            origin: cycles
            for (name, origin), cycles in self.kernel_cycles_by_origin.items()
            if name == kernel
        }
        total = sum(totals.values())
        if total == 0:
            return {}
        return {origin: cycles / total for origin, cycles in totals.items()}

    # -- aggregations ------------------------------------------------------

    def total_cycles(self, kinds: Optional[Tuple[CycleKind, ...]] = None) -> float:
        """Total attributed cycles, optionally restricted to *kinds*."""
        if kinds is None:
            return sum(self.cycles.values())
        return sum(
            v for (_, _, kind), v in self.cycles.items() if kind in kinds
        )

    def busy_cycles(self) -> float:
        """Cycles during which a core was doing something (not idle and
        not blocked)."""
        return self.total_cycles(
            (CycleKind.USEFUL, CycleKind.OFFLOAD_OVERHEAD, CycleKind.THREAD_SWITCH)
        )

    def useful_cycles(self) -> float:
        return self.total_cycles((CycleKind.USEFUL,))

    def by_functionality(
        self, kinds: Tuple[CycleKind, ...] = (CycleKind.USEFUL,)
    ) -> Dict[FunctionalityCategory, float]:
        out: Dict[FunctionalityCategory, float] = defaultdict(float)
        for (functionality, _, kind), value in self.cycles.items():
            if kind in kinds:
                out[functionality] += value
        return dict(out)

    def by_leaf(
        self, kinds: Tuple[CycleKind, ...] = (CycleKind.USEFUL,)
    ) -> Dict[LeafCategory, float]:
        out: Dict[LeafCategory, float] = defaultdict(float)
        for (_, leaf, kind), value in self.cycles.items():
            if kind in kinds:
                out[leaf] += value
        return dict(out)

    def functionality_shares(self) -> Dict[FunctionalityCategory, float]:
        """Useful-cycle shares per functionality (fractions summing to 1)."""
        per = self.by_functionality()
        total = sum(per.values())
        if total == 0:
            return {}
        return {cat: value / total for cat, value in per.items()}

    def leaf_shares(self) -> Dict[LeafCategory, float]:
        per = self.by_leaf()
        total = sum(per.values())
        if total == 0:
            return {}
        return {cat: value / total for cat, value in per.items()}

    # -- requests ----------------------------------------------------------

    def open_request(self, request_id: int, now: float) -> RequestRecord:
        record = RequestRecord(request_id=request_id, started_at=now)
        self.requests.append(record)
        return record

    def completed_requests(self) -> List[RequestRecord]:
        return [r for r in self.requests if r.completed_at is not None]

    def throughput(self, window_cycles: float) -> float:
        """Completed requests per time unit of *window_cycles*."""
        window = require_positive_window(window_cycles)
        return len(self.completed_requests()) / window

    def mean_latency(self) -> float:
        completed = self.completed_requests()
        if not completed:
            raise ValueError("no completed requests")
        return sum(r.latency for r in completed) / len(completed)

    def latency_percentile(self, percentile: float) -> float:
        completed = sorted(r.latency for r in self.completed_requests())
        if not completed:
            raise ValueError("no completed requests")
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be in [0, 100]")
        index = min(
            len(completed) - 1, max(0, round(percentile / 100 * (len(completed) - 1)))
        )
        return completed[index]

    # -- offloads ------------------------------------------------------------

    def record_offload(self, record: OffloadRecord) -> None:
        self.offloads.append(record)

    def mean_queue_cycles(self) -> float:
        if not self.offloads:
            return 0.0
        return sum(o.queued_cycles for o in self.offloads) / len(self.offloads)

    # -- faults --------------------------------------------------------------

    def fault_counters(self, kernel: str) -> FaultCounters:
        """The (created-on-first-use) fault counters for *kernel*."""
        counters = self.faults.get(kernel)
        if counters is None:
            counters = self.faults[kernel] = FaultCounters()
        return counters

    def fault_totals(self) -> FaultCounters:
        """All per-kernel fault counters merged into one."""
        total = FaultCounters()
        for counters in self.faults.values():
            total.merge(counters)
        return total
