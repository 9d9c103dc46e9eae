"""Golden pre-shared-device fingerprints and cache-schema compatibility.

The multi-tenant device refactor rebuilt the accelerator's dispatch
machinery, so this module pins the *pre-PR* artifacts directly: the
``characterize("cache1")`` digests captured before the shared scheduler
existed must hash out unchanged (single-tenant runs ride the legacy
eager path byte for byte), and the result cache must keep replaying old
entries -- the new study types are *new* frozen dataclasses, not layout
changes to existing ones, so :data:`~repro.runtime.SCHEMA_VERSION`
intentionally does not move.  Exact work counters (events, completed
requests, offloads issued and served) sit beside the digests: counters
do not flake, and a drift in them names what changed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.application.resilience import run_resilience_point
from repro.application.shared_device import (
    SharedDevicePoint,
    TenantRun,
    run_shared_device_point,
)
from repro.characterization import characterize
from repro.core import ThreadingDesign
from repro.runtime import SCHEMA_VERSION, RunSpec
from repro.simulator import SimulationConfig, run_simulation
from repro.validation.matrix import synthetic_builds

#: RunSummary fingerprints for
#: characterize("cache1", seed=2020, num_cores=2, requests_target=...),
#: captured on the commit before the shared-device scheduler landed.
GOLDEN = {
    30: "c216cf2c9587677255fda0b066d4589587991c47ccffb2ba6a1d5ff2e53549a2",
    50: "ff046a8373079b8ad0d32051f563e256b9b0cd9d4edec5bfbc896841fd79d7d6",
}


@pytest.mark.parametrize("requests_target", sorted(GOLDEN))
def test_characterize_digests_survive_the_shared_device_refactor(
    requests_target,
):
    run = characterize(
        "cache1", seed=2020, num_cores=2, requests_target=requests_target
    )
    assert run.simulation.fingerprint() == GOLDEN[requests_target]


def test_characterize_work_counters_are_pinned():
    """Exact work counts beside the digest: a change that adds events
    per request fails here with a readable diff, not only a new hash."""
    run = characterize("cache1", seed=2020, num_cores=2, requests_target=30)
    assert run.simulation.events_processed == 4020
    assert run.simulation.completed_requests == 59


def test_matrix_cell_offload_counters_are_pinned():
    """One Table 6 cell (SYNC, alpha=0.3, 500-cycle interface), run the
    way :func:`~repro.validation.matrix.validate_cell` runs its
    accelerated side: every offload the service issues is served."""
    _, build_accelerated = synthetic_builds(
        0.3, ThreadingDesign.SYNC, 8.0, 2,
        interface_cycles=500.0, thread_switch_cycles=300.0,
    )
    result = run_simulation(
        build_accelerated,
        SimulationConfig(num_cores=2, threads_per_core=1, window_cycles=8.0e6),
    )
    device = result.service.offloads["k"].device
    assert len(result.metrics.offloads) == 2934
    assert device.stats.offloads_served == 2934


def test_resilience_point_is_pinned():
    """One degraded SYNC cell of the resilience grid, exactly."""
    point = run_resilience_point(
        drop_probability=0.1, timeout_cycles=4_000.0,
        design=ThreadingDesign.SYNC,
    )
    assert repr(point.simulated_speedup) == "1.23125"
    assert point.retries == 335
    assert point.fallbacks == 1


def test_shared_device_point_is_pinned():
    """One batched, faulted cell of the shared-device grid, exactly."""
    point = run_shared_device_point(
        tenants=2, batch_size=4, drop_probability=0.1,
    )
    assert repr(point.simulated_speedup) == "1.395"
    assert point.attempts == 2483
    assert point.drops == 1027


def test_cache_schema_version_is_unchanged():
    """Old cache entries must keep replaying: the shared-device studies
    add new result types rather than changing any pickled layout."""
    assert SCHEMA_VERSION == "accelerometer-runtime-v4"


def test_characterize_cache_key_is_stable():
    """Run-spec cache keys for pre-existing studies must not move either,
    or a warm cache would silently re-run everything."""
    spec = RunSpec.create(
        "characterize", seed=2020, name="cache1", num_cores=2,
        requests_target=30,
    )
    assert spec.key() == (
        "1683719f44ef412825bd24608b55d5c981eeab6c816d771d174f9699481b581b"
    )


@pytest.mark.parametrize("kind, params, key", [
    ("matrix_cell",
     dict(design=ThreadingDesign.SYNC, alpha=0.3, interface_cycles=500.0,
          thread_switch_cycles=300.0),
     "734b0dabff15ef339ac1b23ac59c3669539a279d7bd8ba282133d9a21679817c"),
    ("resilience_point",
     dict(seed=0, drop_probability=0.1, timeout_cycles=4_000.0,
          design=ThreadingDesign.SYNC),
     "e8c0c5bd34bcf664c12ef99ac28d1416b738bcf73c355b8c2d2740b25bdbfc72"),
    ("shared_device_point",
     dict(seed=0, tenants=2, weight=1.0, batch_size=4, drop_probability=0.1),
     "4c0ceb3ada2ee554c710b117812487552ff8380258ec634c0a1e95802334f044"),
])
def test_synthetic_study_cache_keys_are_stable(kind, params, key):
    """The three synthetic A/B studies keep their spec kinds and params,
    so their warm cache entries keep replaying."""
    assert RunSpec.create(kind, **params).key() == key


def test_new_study_results_pickle_under_the_current_schema():
    point = SharedDevicePoint(
        tenants=2, weight=2.0, batch_size=4, drop_probability=0.1,
        model_speedup=1.25, simulated_speedup=1.24, attempts=10, drops=3,
        device_utilization=0.4,
    )
    assert pickle.loads(pickle.dumps(point)) == point
    run = TenantRun(
        tenant="tenant-0", weight=1.0, completed_requests=5,
        throughput=1e-3, offloads_served=15, busy_cycles=100.0,
        mean_queue_cycles=2.0, attempts=0, drops=0, fallbacks=0,
    )
    assert pickle.loads(pickle.dumps(run)) == run
