"""Test-only oracle: the simulator with one event per piece of core time.

:class:`PerOpMicroservice` runs the same service code as
:class:`~repro.simulator.Microservice`, but expands every
:class:`~repro.simulator.cpu.Burst` its workers yield into the ops the
simulator issued before bursts existed: each kernel call is charged when
the thread reaches it, and each piece of positive core time is one
:class:`~repro.simulator.Compute` op -- one engine event.  The coalesced
path must match it bit for bit in everything but the engine's event
count, the way the legacy object tracer pins the ring tracer.
"""

from __future__ import annotations

from repro.simulator import Compute, Microservice
from repro.simulator.cpu import Burst


def expand_burst(metrics, thread, burst):
    """The per-op form of *burst*: charge each kernel call as the thread
    reaches it, and yield one ``Compute`` per positive piece."""
    for functionality, leaf, kernel, pieces in burst.runs:
        for cycles in pieces:
            if kernel is not None:
                metrics.charge_kernel(
                    kernel, cycles, origin=functionality, ledger=thread.ledger
                )
            if cycles > 0:
                yield Compute(cycles, functionality, leaf)


class PerOpMicroservice(Microservice):
    """A :class:`~repro.simulator.Microservice` whose workers issue one
    ``Compute`` op per burst piece."""

    __slots__ = ()

    def _worker_body(self, thread, requests, arrival_time=None):
        for op in super()._worker_body(thread, requests, arrival_time):
            if type(op) is Burst:
                yield from expand_burst(self.metrics, thread, op)
            else:
                yield op
