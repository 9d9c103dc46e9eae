"""Golden fingerprints and cache-schema compatibility.

The multi-tenant device refactor rebuilt the accelerator's dispatch
machinery, so this module pins the ``characterize("cache1")`` digests
directly: single-tenant runs ride the legacy eager path byte for byte.
The digests were re-pinned once, deliberately, when cycle accounting
became order-independent (per-source partial sums merged with
``math.fsum``) and non-blocking work coalesced into one event per
burst: only float totals (max relative move 1.25e-14) and the event
count changed, checked by ``scripts/repin_fingerprints.py``.  That
change moved every cached summary, so
:data:`~repro.runtime.SCHEMA_VERSION` moved to v5 with it.  Exact work
counters (events, charged ops, completed requests, offloads issued and
served) sit beside the digests: counters do not flake, and a drift in
them names what changed.
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
#: re-pinned with order-independent accounting and burst coalescing.
GOLDEN = {
    30: "fd811b493e241e1e5f4b4bbb9ca63fc8010f5b1cffb220814fcdb8b889849f2f",
    50: "c5e5320387428f9761fff19075b11e27caeb9a25f154b452016c51d912abff07",
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
    assert run.simulation.events_processed == 422
    # One charged op per piece of core time, however many events
    # carried them: the per-op count the event count used to be.
    assert run.simulation.metrics.charged_ops == 4022
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
    """The schema is pinned: the shared-device studies added new result
    types without moving it, and the order-independent accounting moved
    every cached summary's bits, so it is v5 -- a warm v4 cache must not
    replay old bits."""
    assert SCHEMA_VERSION == "accelerometer-runtime-v5"


def test_characterize_cache_key_is_stable():
    """Run-spec cache keys for pre-existing studies must not move either,
    or a warm cache would silently re-run everything."""
    spec = RunSpec.create(
        "characterize", seed=2020, name="cache1", num_cores=2,
        requests_target=30,
    )
    assert spec.key() == (
        "4728f52c1cd8a2e85c6b0dfc04c908579daa504ba8f04f79881007226dfba546"
    )


@pytest.mark.parametrize("kind, params, key", [
    ("matrix_cell",
     dict(design=ThreadingDesign.SYNC, alpha=0.3, interface_cycles=500.0,
          thread_switch_cycles=300.0),
     "ed97252007b1044eba9ed9dfba4fbf32300222e7ad7745fb60cafe99c838c83a"),
    ("resilience_point",
     dict(seed=0, drop_probability=0.1, timeout_cycles=4_000.0,
          design=ThreadingDesign.SYNC),
     "dcc4fa5369b37caa744c3804d1fdb6665b88a0a69015a8f40e985859ad3cbde4"),
    ("shared_device_point",
     dict(seed=0, tenants=2, weight=1.0, batch_size=4, drop_probability=0.1),
     "3ee6ba207f5260a52d0a67e176b02f56d8d78b4072b0bbfebb432e37f5034fab"),
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
