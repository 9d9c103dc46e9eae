"""The four benchmark jobs, each built from a seed and checked on every run.

A job is set up once per process (imports, workload construction, input
extraction) and then run repeatedly.  Every run returns an
:class:`Outcome`: the correctness checks it failed, the deterministic
counters its result objects carry (which must repeat exactly across runs
with the same seed), and the accuracy figures the correctness gate reads.

Tolerances are the ones the repository's tier-1 tests already assert.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Fig 9 shape gate (``benchmarks/test_fig09_functionality.py``).
FIG9_L1_LIMIT = 0.06
#: Table 6 validation-matrix gate, in speedup points.
MATRIX_ERROR_LIMIT_PP = 1.0
#: Shared-device and resilience grid gate (model vs simulation, %).
GRID_ERROR_LIMIT_PCT = 2.0

#: Requests per core in each ``characterize`` window.
CHARACTERIZE_REQUESTS = 40
#: Shared-device grid window (the tier-1 grid test's size).
SHARED_WINDOW_CYCLES = 8.0e6
#: Resilience grid window: twice the tier-1 acceptance test's 2.4e7,
#: because at 2.4e7 fault-sampling noise alone puts some seeds past the
#: 2% gate (seed 8: 2.89% in the drop=0.2, timeout=8000 cell; 1.43% at
#: 4.8e7).
RESILIENCE_WINDOW_CYCLES = 4.8e7
#: The one traced resilience cell: a faulted, retrying SYNC offload.
TRACED_CELL = dict(
    drop_probability=0.3, timeout_cycles=2_000.0, backoff_base_cycles=500.0,
    window_cycles=2.0e6,
)

CORPUS = Path(__file__).resolve().parent / "corpus.tar.gz"


@dataclasses.dataclass
class Outcome:
    """What one run of a job produced, beyond its wall time."""

    #: Failed correctness checks, one line each; empty when correct.
    failures: List[str] = dataclasses.field(default_factory=list)
    #: Deterministic counters from the job's result objects.
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Accuracy figures the gate reads (printed, not bounded).
    figures: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Wall seconds of the warm replay, for jobs that have one.
    replay_s: Optional[float] = None
    #: The runtime telemetry of a traced ``validate`` run.
    telemetry: object = None

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


class Job:
    """Base class: ``run(traced)`` executes the job once."""

    name = ""
    #: Why the seed does or does not reach the job's inputs.
    seed_note = "the seed drives every simulation's random streams"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def run(self, traced: bool = False) -> Outcome:
        raise NotImplementedError


class Characterize(Job):
    """``characterize_all`` over the seven Fig 9 services, serial, uncached."""

    name = "characterize"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.characterization import (
            characterize_all,
            compare_breakdown,
            fig9_functionality_breakdown,
        )
        from repro.paperdata.breakdowns import (
            FB_SERVICES,
            FUNCTIONALITY_BREAKDOWN,
        )
        from repro.workloads import build_workload

        self._characterize_all = characterize_all
        self._compare = compare_breakdown
        self._fig9 = fig9_functionality_breakdown
        self._published = FUNCTIONALITY_BREAKDOWN
        self.services = tuple(FB_SERVICES)
        # Calibrated workloads are memoized per process: build them here
        # so their one-time construction counts as set-up, not job time.
        for name in self.services:
            build_workload(name)

    def run(self, traced: bool = False) -> Outcome:
        runs = self._characterize_all(
            self.services, seed=self.seed, workers=1, cache=None,
            requests_target=CHARACTERIZE_REQUESTS,
        )
        outcome = Outcome()
        worst = 0.0
        for service, run in runs.items():
            comparison = self._compare(
                service, "fig9", self._fig9(run), self._published[service]
            )
            worst = max(worst, comparison.l1)
            outcome.check(
                comparison.l1 < FIG9_L1_LIMIT,
                f"{service}: Fig 9 L1 {comparison.l1:.4f} >= {FIG9_L1_LIMIT}",
            )
            outcome.check(
                comparison.dominant_match,
                f"{service}: Fig 9 dominant category differs",
            )
        summaries = [run.simulation for run in runs.values()]
        outcome.figures["fig9_l1"] = worst
        outcome.counters = {
            "simulator.engine.events": sum(
                s.events_processed for s in summaries),
            "simulator.service.requests": sum(
                s.completed_requests for s in summaries),
            "simulator.service.offloads": sum(
                len(s.metrics.offloads) for s in summaries),
        }
        return outcome


class Validate(Job):
    """The 24-cell Table 6 matrix through a pool into a fresh cache, then
    replayed warm from that cache."""

    name = "validate"
    seed_note = "the matrix cells take no seed: every run is the same input"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.observability import RuntimeTelemetry
        from repro.runtime import BatchReport, ResultCache
        from repro.validation.matrix import validation_matrix

        self._matrix = validation_matrix
        self._report = BatchReport
        self._cache = ResultCache
        self._telemetry = RuntimeTelemetry
        self.workers = len(os.sched_getaffinity(0))

    def run(self, traced: bool = False) -> Outcome:
        outcome = Outcome()
        cache_dir = tempfile.mkdtemp(prefix="results-", dir=self.scratch)
        try:
            cache = self._cache(cache_dir)
            telemetry = self._telemetry(label="validate") if traced else None
            cold_report, warm_report = self._report(), self._report()
            cold = self._matrix(
                workers=self.workers, cache=cache, report=cold_report,
                telemetry=telemetry,
            )
            start = time.perf_counter()
            warm = self._matrix(
                workers=self.workers, cache=cache, report=warm_report,
                telemetry=telemetry,
            )
            outcome.replay_s = time.perf_counter() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcome.telemetry = telemetry
        outcome.check(
            cold.max_error_pp < MATRIX_ERROR_LIMIT_PP,
            f"matrix max error {cold.max_error_pp:.4f} pp "
            f">= {MATRIX_ERROR_LIMIT_PP}",
        )
        outcome.check(warm.cells == cold.cells,
                      "warm replay differs from the cold run")
        outcome.check(warm_report.simulated_nothing,
                      "warm replay simulated a cell")
        outcome.figures["matrix_error_pp"] = cold.max_error_pp
        outcome.counters = {
            "runtime.executed": cold_report.executed + warm_report.executed,
            "runtime.cache_hits": cold_report.cache_hits
            + warm_report.cache_hits,
        }
        return outcome


class Contention(Job):
    """Shared-device grid, resilience grid, one traced resilience cell."""

    name = "contention"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.application.resilience import (
            resilience_grid,
            traced_resilience_run,
        )
        from repro.application.shared_device import shared_device_grid

        self._shared = shared_device_grid
        self._resilience = resilience_grid
        self._traced = traced_resilience_run

    def run(self, traced: bool = False) -> Outcome:
        shared = self._shared(seed=self.seed,
                              window_cycles=SHARED_WINDOW_CYCLES)
        resilience = self._resilience(seed=self.seed,
                                      window_cycles=RESILIENCE_WINDOW_CYCLES)
        cell = self._traced(seed=self.seed, **TRACED_CELL)
        outcome = Outcome()
        for label, grid in (("shared-device", shared),
                            ("resilience", resilience)):
            outcome.check(
                grid.max_error_pct <= GRID_ERROR_LIMIT_PCT,
                f"{label} grid error {grid.max_error_pct:.4f}% "
                f"> {GRID_ERROR_LIMIT_PCT}%",
            )
        spans = len(cell.trace.spans) if cell.trace is not None else 0
        outcome.check(spans > 0, "traced resilience run recorded no spans")
        outcome.figures["grid_error_pct"] = max(
            shared.max_error_pct, resilience.max_error_pct)
        outcome.counters = {
            "shared.attempts": sum(p.attempts for p in shared.points),
            "shared.drops": sum(p.drops for p in shared.points),
            "resilience.retries": sum(p.retries for p in resilience.points),
            "resilience.fallbacks": sum(
                p.fallbacks for p in resilience.points),
            "traced.events": cell.events_processed,
            "observability.spans": spans,
        }
        return outcome


class LintDeep(Job):
    """``repro lint --deep`` over the frozen corpus: cold, then warm."""

    name = "lint_deep"
    seed_note = "the corpus is a fixed snapshot: every run is the same input"

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        from repro.cli import main

        self._main = main
        self.root = scratch / "corpus"
        # The corpus is the benchmark's input, not the program's set-up:
        # the run extracts it once and the processes that time set-up
        # reuse it, so ``setup_s`` does not time the disk.
        if self.root.is_dir():
            return
        with tarfile.open(CORPUS) as archive:
            # Extraction filters arrived in 3.10.12/3.11.4; the corpus is
            # this repository's own archive either way.
            if hasattr(tarfile, "data_filter"):
                archive.extractall(self.root, filter="data")
            else:
                archive.extractall(self.root)

    def _lint(self, cache_dir: str):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            status = self._main([
                "lint", "--deep", "--json", "--root", str(self.root),
                "--cache-dir", cache_dir,
            ])
        return status, json.loads(captured.getvalue())

    def run(self, traced: bool = False) -> Outcome:
        outcome = Outcome()
        cache_dir = tempfile.mkdtemp(prefix="lint-cache-", dir=self.scratch)
        try:
            cold_status, cold = self._lint(cache_dir)
            start = time.perf_counter()
            warm_status, warm = self._lint(cache_dir)
            outcome.replay_s = time.perf_counter() - start
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcome.check(cold_status == 0, f"cold lint exited {cold_status}")
        outcome.check(warm_status == 0, f"warm lint exited {warm_status}")
        reported = ("findings", "grandfathered", "suppressed", "internal")
        outcome.check(
            all(warm[key] == cold[key] for key in reported + ("files",)),
            "warm lint findings differ from the cold run",
        )
        outcome.counters = {
            "analysis.files": cold["files"],
            "analysis.findings": sum(len(cold[key]) for key in reported),
        }
        return outcome


JOBS = {job.name: job for job in (Characterize, Validate, Contention, LintDeep)}
