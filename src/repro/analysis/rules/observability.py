"""OBS001/OBS002: observability emission must be gated behind its handle.

The zero-observer-effect contract has a structural half: instrumented
code only ever *talks to* an observer through an ``is not None`` gate,
so an unobserved run pays one attribute load and one comparison per
hook -- no allocation, no call, no way for observability state to leak
into the observed computation.  That discipline erodes one convenience
call at a time (``self.tracer.record_x(...)`` with no guard "works" on
every traced test run), so these rules pin it at both layers:

* **OBS001** -- simulated-time tracing: inside ``simulator/`` and
  ``faults/``, every method call on a tracer-named receiver must sit
  under an ``if`` whose test mentions that name.
* **OBS002** -- runtime self-telemetry: inside ``runtime/``, the same
  for telemetry-named receivers.  The batch executor and result cache
  are on every experiment's hot path; an ungated telemetry call would
  put clock reads and record allocation into *untelemetered* runs,
  breaking the bit-identity the DET-rule family guarantees.

The gate grammar itself lives in :mod:`repro.analysis.gates`, shared
with EFF001's simulator-side scan.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Tuple

from ..findings import Finding, Severity
from ..gates import TRACER_NAMES, scan_gates
from ..registry import Rule, register_rule

#: Receiver names treated as runtime self-telemetry handles.
_TELEMETRY_NAMES = frozenset({
    "telemetry", "_telemetry", "batch_telemetry", "cache_telemetry",
    "recorder",
})


class _GatedEmission(Rule):
    """Shared finding shape for the OBS rule family.

    Subclasses set ``scopes`` (path components the rule applies to),
    ``handle_names`` (receiver names treated as observer handles), and
    ``handle_word`` (what the findings call them).
    """

    scopes: Tuple[str, ...] = ()
    handle_names: FrozenSet[str] = frozenset()
    handle_word = "observer"

    def check(self, source, context) -> Iterator[Finding]:
        if not source.in_scope(*self.scopes):
            return
        scan = scan_gates(source.tree.body, self.handle_names)
        for node, name in scan.ungated_calls:
            yield Finding(
                rule=self.name,
                path=source.relpath,
                line=node.lineno,
                column=node.col_offset,
                message=(
                    f"{self.handle_word} call {ast.unparse(node.func)}() "
                    f"is not gated behind an `if {name} ...` check"
                ),
                hint=(
                    f"bind the {self.handle_word} to a local and gate "
                    f"the call: `{name} = self.{name}` / "
                    f"`if {name} is not None: {name}.method(...)`"
                ),
                severity=self.severity,
            )


@register_rule
class GatedObservability(_GatedEmission):
    """OBS001: tracer method calls in simulator/faults code must be
    inside an ``if`` that tests the tracer name."""

    name = "OBS001"
    severity = Severity.WARNING
    description = (
        "span/metric emission in simulator/ and faults/ is gated behind "
        "an `if <tracer> ...` check naming the receiver"
    )
    invariant = (
        "zero observer effect: untraced runs execute no tracer calls, so "
        "every simulator/fault hook costs one attribute load and one "
        "comparison when observability is off"
    )
    scopes = ("simulator", "faults")
    handle_names = TRACER_NAMES
    handle_word = "tracer"


@register_rule
class GatedRuntimeTelemetry(_GatedEmission):
    """OBS002: telemetry method calls in runtime/ code must be inside
    an ``if`` that tests the telemetry name."""

    name = "OBS002"
    severity = Severity.WARNING
    description = (
        "runtime self-telemetry emission in runtime/ is gated behind an "
        "`if <telemetry> ...` check naming the receiver"
    )
    invariant = (
        "zero observer effect at the runtime layer: untelemetered batch "
        "and cache operations execute no telemetry calls (and therefore "
        "no clock reads), keeping results and fingerprints bit-identical"
    )
    scopes = ("runtime",)
    handle_names = _TELEMETRY_NAMES
    handle_word = "telemetry"
