"""The effect & purity rule pack: EFF001-EFF004.

Deep rules over the effect summaries of :mod:`repro.analysis.effects`,
proving the contracts the simulator's correctness argument leans on:

* EFF001 -- *zero-observer purity*: tracing may record, never perturb.
  Observability hooks (and anything they call) must not mutate engine
  state, draw randomness, or schedule events; and in simulator/faults
  code every tracer touch must sit behind an ``is not None`` gate whose
  body is write-only with respect to the simulation.
* EFF002 -- *entropy budget*: every RNG draw in the simulation layers
  flows through the sanctioned seeded facades.
* EFF003 -- *frozen-spec write protection*: specs are immutable after
  construction, ``object.__setattr__`` escapes included.
* EFF004 -- *cache-input effect closure*: computing a cache key or
  canonical fingerprint must be effect-free.
"""

from __future__ import annotations

from typing import Iterator

from ..effects import (
    EffectAnalysis,
    engine_facts,
    find_frozen_writes,
    find_gate_violations,
    hops_phrase,
    observer_class_names,
)
from ..findings import Finding, Severity
from ..registry import Rule, register_rule
from ..taint import sink_reason


@register_rule
class ZeroObserverPurity(Rule):
    """EFF001: tracing hooks and gates never perturb the simulation."""

    name = "EFF001"
    severity = Severity.ERROR
    description = (
        "observability hooks reach no engine-state mutation, RNG draw, "
        "or event schedule through any call chain; every tracer touch "
        "in simulator/faults code is gated behind `is not None` and the "
        "gated region is write-only toward the simulation"
    )
    invariant = (
        "the zero-observer contract: attaching a tracer changes no "
        "simulated timestamp, queue decision, or random draw -- runs "
        "with and without observability are bit-identical, so traces "
        "are evidence about the run they observed, not a different one"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        graph = context.call_graph()
        summaries = context.summaries(EffectAnalysis())
        observers = observer_class_names(model)

        # Face one: hook purity.  Every function belonging to the
        # observability layer must be free of engine effects.
        for func in model.functions():
            observer_side = (
                "observability" in func.module.split(".")
                or func.class_name in observers
            )
            if not observer_side:
                continue
            for fact in engine_facts(summaries.get(func.fq, {})):
                yield Finding(
                    rule=self.name,
                    path=func.relpath,
                    line=func.line,
                    column=0,
                    message=(
                        f"observability hook {func.fq} reaches "
                        f"{fact.effect.detail} ({fact.effect.kind})"
                        f"{hops_phrase(fact.steps)}: hooks must observe, "
                        "never perturb"
                    ),
                    hint=(
                        "record into observer-owned state (ring buffers, "
                        "trace contexts) only; move the engine work to "
                        "the simulator side of the gate"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [observability hook]")),
                )

        # Face two: gate discipline in simulator/faults code.
        for violation in find_gate_violations(model, graph, summaries):
            yield Finding(
                rule=self.name,
                path=violation.relpath,
                line=violation.line,
                column=violation.column,
                message=violation.message,
                hint=(
                    "wrap the tracer touch in `if tracer is not None:` "
                    "(write-only body) so a run without observability "
                    "executes the identical engine path"
                ),
                severity=self.severity,
                trace=violation.trace,
            )


@register_rule
class EntropyBudget(Rule):
    """EFF002: all simulation entropy flows through seeded facades."""

    name = "EFF002"
    severity = Severity.ERROR
    description = (
        "every consumes-rng effect in simulator/faults/runtime/"
        "workloads code is reachable only through BlockSampler or "
        "FaultInjector (the seeded, spec-determined entropy facades)"
    )
    invariant = (
        "one seed, one stream: all randomness the simulation consumes "
        "is budgeted through facades a RunSpec seeds, so replaying the "
        "spec replays every draw -- a stray RNG anywhere in the "
        "simulation layers silently forks the run from its cache key"
    )
    project_rule = True
    deep = True

    #: Call-graph hops through these classes sanction a draw: the
    #: facade owns the stream, helpers it calls inherit the budget.
    _SCOPE = ("simulator", "faults", "runtime", "workloads")

    def check_project(self, context) -> Iterator[Finding]:
        from ..effects import SANCTIONED_RNG_CLASSES

        model = context.project_model()
        summaries = context.summaries(EffectAnalysis())
        infos = {func.fq: func for func in model.functions()}

        sanctioned_fqs = {
            fq
            for fq, info in infos.items()
            if info.class_name in SANCTIONED_RNG_CLASSES
        }

        for func in model.functions():
            if not model.modules[func.module].source.in_scope(*self._SCOPE):
                continue
            if func.fq in sanctioned_fqs:
                continue
            for key in sorted(summaries.get(func.fq, {})):
                fact = summaries[func.fq][key]
                if fact.effect.kind != "consumes-rng" or fact.steps:
                    # Lifted facts are reported at their owning
                    # function; locals are the draw sites themselves.
                    continue
                yield Finding(
                    rule=self.name,
                    path=fact.effect.relpath,
                    line=fact.effect.line,
                    column=fact.effect.column,
                    message=(
                        f"{func.fq} draws entropy outside the sanctioned "
                        f"samplers: {fact.effect.detail}"
                    ),
                    hint=(
                        "route the draw through BlockSampler or "
                        "FaultInjector (seeded from the RunSpec) instead "
                        "of holding a private RNG"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [entropy budget]")),
                )


@register_rule
class FrozenSpecWrites(Rule):
    """EFF003: specs stay immutable after construction."""

    name = "EFF003"
    severity = Severity.ERROR
    description = (
        "no write to a RunSpec/FaultPolicy/OffloadConfig (or any "
        "frozen-dataclass) instance after construction, including "
        "object.__setattr__ escapes"
    )
    invariant = (
        "a spec is a value: its canonical digest is computed once and "
        "cached forever, so any post-construction write desynchronizes "
        "the object from every key, fingerprint, and replay derived "
        "from it"
    )
    project_rule = True
    deep = True

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        for write in find_frozen_writes(model):
            yield Finding(
                rule=self.name,
                path=write.relpath,
                line=write.line,
                column=write.column,
                message=write.message,
                hint=(
                    "derive a new spec with dataclasses.replace(...) "
                    "instead of mutating; construction-time writes "
                    "belong in __init__/__post_init__"
                ),
                severity=self.severity,
            )


@register_rule
class CacheInputEffectClosure(Rule):
    """EFF004: cache-key/fingerprint computation is effect-free."""

    name = "EFF004"
    severity = Severity.ERROR
    description = (
        "functions feeding RunSpec.key/canonical digests (the DET003 "
        "sink set) reach no mutation, RNG draw, event schedule, or IO "
        "through any call chain"
    )
    invariant = (
        "keying a run must not change anything: a cache probe that "
        "mutates state or consumes entropy makes hit and miss paths "
        "diverge, which is exactly the nondeterminism the key exists "
        "to rule out"
    )
    project_rule = True
    deep = True

    _SINK_KINDS = (
        "mutates-param",
        "mutates-global",
        "consumes-rng",
        "schedules-event",
        "performs-io",
    )

    def check_project(self, context) -> Iterator[Finding]:
        model = context.project_model()
        summaries = context.summaries(EffectAnalysis())
        for func in model.functions():
            reason = sink_reason(func)
            if reason is None:
                continue
            summary = summaries.get(func.fq, {})
            for key in sorted(summary):
                fact = summary[key]
                if fact.effect.kind not in self._SINK_KINDS:
                    continue
                yield Finding(
                    rule=self.name,
                    path=func.relpath,
                    line=func.line,
                    column=0,
                    message=(
                        f"{func.fq} ({reason}) reaches "
                        f"{fact.effect.detail} ({fact.effect.kind})"
                        f"{hops_phrase(fact.steps)}: cache inputs must be "
                        "effect-free"
                    ),
                    hint=(
                        "compute the key from already-materialized "
                        "values; hoist the effect out of the keying "
                        "path so probing a cache cannot change the run"
                    ),
                    severity=self.severity,
                    trace=tuple(fact.chain(f"{func.fq} [{reason}]")),
                )


_RULES = ["EFF001", "EFF002", "EFF003", "EFF004"]
