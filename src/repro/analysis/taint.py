"""Interprocedural nondeterminism taint: entropy sources reaching
determinism sinks along the call graph.

The per-file DET001/DET002 rules catch a wall-clock read *in* a
simulated path; they cannot see one **three calls upstream of a cache
key** -- a helper in one module reading ``time.time`` while a
``cache_key``/``fingerprint`` function in another module (transitively)
calls it.  DET003 can: the effect analysis (:mod:`repro.analysis.effects`)
records each function's first nondeterminism *source* (wall clocks,
unseeded RNGs, ``os.urandom``, environment reads, set-order-dependent
iteration) as an effect and propagates it up the call graph with the
shortest witness chain; :func:`find_taint_paths` reads those summaries
at every *sink* (cache-key construction, canonical fingerprints,
``RunSummary`` assembly), reporting the full source -> sink call chain.

This module owns the entropy-call catalog and the sink set; the DET001
rule and the effect scanner import them from here so all three stay in
lockstep.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Tuple

from .dataflow import CallStep, compute_summaries
from .graph import CallGraph
from .project import FunctionInfo, ProjectModel

#: Call targets that read ambient entropy: wall clocks and OS randomness.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "uuid.uuid1": "clock/MAC-derived identifier",
    "uuid.uuid4": "OS entropy read",
    "random.SystemRandom": "OS entropy source",
}

#: numpy.random attributes that are *constructors of seeded streams* and
#: therefore fine; every other ``numpy.random.*`` call hits the global
#: unseeded singleton.
NUMPY_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

#: Environment reads: deep-only sources (configuration reads are fine in
#: scripts; they become hazards only when a cache key depends on them).
_ENV_READS = {
    "os.getenv": "environment read",
    "os.environ.get": "environment read",
}


def classify_entropy_call(target: str) -> Optional[str]:
    """Why a resolved dotted call target is an entropy source, or None."""
    reason = BANNED_CALLS.get(target)
    if reason is not None:
        return reason
    if target.startswith("random.") and target != "random.Random":
        return "module-level stdlib RNG (unseeded shared state)"
    if target.startswith("numpy.random."):
        attribute = target.rsplit(".", 1)[-1]
        if attribute not in NUMPY_ALLOWED:
            return "global numpy RNG singleton (unseeded shared state)"
    return None


def classify_env_read(target: str) -> Optional[str]:
    return _ENV_READS.get(target)


def is_set_expression(node: ast.expr) -> bool:
    """Whether *node* evaluates to a set (literal, comprehension, or
    ``set()``/``frozenset()`` call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def iteration_sites(node: ast.AST) -> List[ast.expr]:
    """The iterables *node* loops over: a ``for`` loop's, or each
    generator's in a comprehension."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        return [generator.iter for generator in node.generators]
    return []


@dataclasses.dataclass(frozen=True)
class TaintSource:
    """One nondeterminism source inside one function."""

    fq: str
    relpath: str
    line: int
    reason: str
    detail: str  # the offending target / construct


@dataclasses.dataclass(frozen=True)
class TaintPath:
    """A sink that transitively executes a nondeterminism source."""

    sink: str
    sink_relpath: str
    sink_line: int
    sink_reason: str
    steps: Tuple[CallStep, ...]
    source: TaintSource

    def chain(self) -> List[str]:
        """Human-readable call chain, sink first."""
        lines = [f"{self.sink} [{self.sink_reason}]"]
        for step in self.steps:
            lines.append(
                f"-> calls {step.callee} (at {step.caller}:{step.line})"
            )
        lines.append(
            f"** {self.source.detail} ({self.source.reason}) at "
            f"{self.source.relpath}:{self.source.line}"
        )
        return lines


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


def sink_reason(func: FunctionInfo) -> Optional[str]:
    """Why a function is a determinism sink, or None.

    Sinks are where nondeterminism becomes *permanent*: content-
    addressed cache keys, canonical fingerprints, and the summary
    objects those fingerprints are computed over.
    """
    name = func.name
    module_parts = func.module.split(".")
    if "cache_key" in name or "fingerprint" in name:
        return "cache-key construction"
    if "runtime" in module_parts and name == "key":
        return "cache-key construction"
    if module_parts[-1] == "canonical" and name in (
        "canonicalize",
        "canonical_digest",
    ):
        return "canonical fingerprint"
    if func.class_name == "RunSummary" and name in ("__init__", "from_result"):
        return "RunSummary assembly (cached measurement surface)"
    return None


def find_taint_paths(
    model: ProjectModel,
    graph: CallGraph,
    summaries: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[TaintPath]:
    """Shortest source->sink path for every (sink, source function) pair,
    read off the effect summaries (computed here when not given).

    Deterministic: the framework visits functions and call edges in
    sorted order, and the final report is sorted by sink location.
    """
    # Imported here: the effect scanner imports this module's catalog.
    from .effects import SOURCE_KINDS, EffectAnalysis, source_reason

    if summaries is None:
        summaries = compute_summaries(model, graph, EffectAnalysis())
    paths: List[TaintPath] = []
    for func in model.functions():
        reason = sink_reason(func)
        if reason is None:
            continue
        for fact in summaries.get(func.fq, {}).values():
            effect = fact.effect
            if effect.kind not in SOURCE_KINDS:
                continue
            source = TaintSource(
                fq=fact.owner(func.fq),
                relpath=effect.relpath,
                line=effect.line,
                reason=source_reason(effect),
                detail=effect.detail,
            )
            paths.append(
                TaintPath(
                    sink=func.fq,
                    sink_relpath=func.relpath,
                    sink_line=func.line,
                    sink_reason=reason,
                    steps=fact.steps,
                    source=source,
                )
            )
    paths.sort(
        key=lambda p: (p.sink_relpath, p.sink_line, p.sink, p.source.fq)
    )
    return paths
