"""Tests for the multi-tenant serving simulator (:mod:`repro.serve`).

The load-bearing guarantees: seeded arrival generation is deterministic and
per-tenant decorrelated, offered load is pure time compression (same
requests, same merge order at any load), the scheduler's admission /
shedding / batch-forming decisions satisfy their invariants on arbitrary
request sequences (hypothesis), and with batching disabled the simulator
exactly reproduces the per-request G/G/1 reference oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.context import SimulationContext
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    BatchQueue,
    RenderRequest,
    SchedulerConfig,
    ServeWorkloadConfig,
    ServiceCostConfig,
    ServiceCostModel,
    TokenBucket,
    arrival_times,
    base_arrival_times,
    batch_request_stream,
    generate_requests,
    request_points,
    simulate_serving,
    simulate_serving_reference,
    tenant_seed,
)

# One small serving-scale cost model shared by every test that prices batches
# (accelerator constants are derived once; the model is stateless per batch).
SMALL_COST = ServiceCostConfig(
    cache_kb=16, grid_levels=2, table_size=2**10, base_resolution=8, max_resolution=32
)
SMALL_WORKLOAD = ServeWorkloadConfig(
    num_tenants=2, requests_per_tenant=12, mean_interarrival_us=20.0, rays_min=2, rays_max=6
)


@pytest.fixture(scope="module")
def cost_model():
    return ServiceCostModel(SMALL_COST)


# ------------------------------------------------------------------ workload
def test_workload_config_validation():
    with pytest.raises(ValueError):
        ServeWorkloadConfig(num_tenants=0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(mean_interarrival_us=0.0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(offered_load=-1.0)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(process="bursty")
    with pytest.raises(ValueError):
        ServeWorkloadConfig(rays_min=8, rays_max=4)
    with pytest.raises(ValueError):
        ServeWorkloadConfig(diurnal_amplitude=1.0)


@pytest.mark.parametrize("process", ["poisson", "mmpp", "diurnal"])
def test_arrival_generation_is_deterministic(process):
    config = ServeWorkloadConfig(num_tenants=3, requests_per_tenant=32, process=process)
    for tenant in range(config.num_tenants):
        first = arrival_times(config, tenant)
        second = arrival_times(config, tenant)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.diff(first) > 0) and first[0] > 0
    # Same seed, same requests — down to identity fields.
    assert generate_requests(config) == generate_requests(config)
    # A different seed is a different trace.
    reseeded = ServeWorkloadConfig(
        num_tenants=3, requests_per_tenant=32, process=process, seed=1
    )
    assert not np.array_equal(arrival_times(config, 0), arrival_times(reseeded, 0))


def test_tenants_are_decorrelated():
    config = ServeWorkloadConfig(num_tenants=4, requests_per_tenant=64)
    # SHA-256 hashing: neighbouring (seed, tenant) pairs give unrelated seeds.
    seeds = {tenant_seed(config.seed, t) for t in range(4)} | {tenant_seed(1, 0)}
    assert len(seeds) == 5
    t0, t1 = base_arrival_times(config, 0), base_arrival_times(config, 1)
    assert not np.array_equal(t0, t1)
    # Tenant 0's base trace is invariant under fleet size changes.
    grown = ServeWorkloadConfig(num_tenants=8, requests_per_tenant=64)
    np.testing.assert_array_equal(t0, base_arrival_times(grown, 0))


def test_offered_load_is_pure_time_compression():
    config = ServeWorkloadConfig(num_tenants=2, requests_per_tenant=16)
    compressed = config.at_load(4.0)
    np.testing.assert_allclose(
        arrival_times(compressed, 0), arrival_times(config, 0) / 4.0, rtol=1e-12
    )
    base, dense = generate_requests(config), generate_requests(compressed)
    # Same requests in the same order — only arrival timestamps rescale.
    for a, b in zip(base, dense):
        assert (a.request_id, a.tenant, a.rays, a.pose, a.seed) == (
            b.request_id, b.tenant, b.rays, b.pose, b.seed
        )
        assert b.arrival_us == pytest.approx(a.arrival_us / 4.0)


def test_request_identity_ranges():
    config = ServeWorkloadConfig(num_tenants=2, requests_per_tenant=32, rays_min=3, rays_max=9)
    requests = generate_requests(config)
    assert [r.request_id for r in requests] == list(range(len(requests)))
    assert all(3 <= r.rays <= 9 for r in requests)
    assert all(0.0 <= c < 1.0 for r in requests for c in r.pose)
    arrivals = [r.arrival_us for r in requests]
    assert arrivals == sorted(arrivals)


# ----------------------------------------------------------------- scheduler
def _request(request_id, tenant=0, arrival=0.0, rays=4, ppr=8):
    return RenderRequest(
        request_id=request_id,
        tenant=tenant,
        arrival_us=arrival,
        rays=rays,
        points_per_ray=ppr,
        pose=(0.5, 0.5, 0.5),
        seed=request_id,
    )


def test_token_bucket_refill_and_cap():
    bucket = TokenBucket(rate_per_us=0.5, capacity=2.0)
    assert bucket.try_take(0.0) and bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # empty
    assert bucket.try_take(2.0)  # 2 us x 0.5/us refills one token
    assert not bucket.try_take(2.0)
    bucket2 = TokenBucket(rate_per_us=0.5, capacity=2.0)
    assert bucket2.try_take(1e6)  # refill clamps at capacity
    assert 0.0 <= bucket2.tokens <= bucket2.capacity


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), st.integers(1, 12), st.integers(0, 3)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 6),
)
def test_depth_cap_is_never_exceeded(offers, cap):
    """Property: with a depth cap the queue never holds more than ``cap``."""
    queue = BatchQueue(SchedulerConfig(admission=AdmissionConfig(max_queue_depth=cap)))
    now = 0.0
    for i, (gap, rays, tenant) in enumerate(offers):
        now += gap
        queue.offer(_request(i, tenant=tenant, arrival=now, rays=rays), now)
        assert queue.depth <= cap
        if queue.depth == cap:  # the next offer at this instant must bounce
            assert not queue.offer(_request(1000 + i, arrival=now), now)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 20), min_size=1, max_size=30),
    st.sampled_from([BatchPolicy.FIFO, BatchPolicy.SJF]),
    st.integers(16, 200),
)
def test_batches_respect_point_budget_and_drain_exactly_once(sizes, policy, budget):
    """Property: batches stay within ``max_batch_points`` (unless a single
    oversized request dispatches alone) and every admitted request is served
    in exactly one batch."""
    queue = BatchQueue(SchedulerConfig(policy=policy, max_batch_points=budget))
    for i, rays in enumerate(sizes):
        assert queue.offer(_request(i, arrival=float(i), rays=rays, ppr=8), float(i))
    seen = []
    while queue.depth:
        batch = queue.next_batch()
        points = sum(e.request.num_points for e in batch)
        assert points <= budget or len(batch) == 1
        if policy is BatchPolicy.FIFO:  # strict admission order within a batch
            seqs = [e.admit_seq for e in batch]
            assert seqs == sorted(seqs)
        seen.extend(e.request.request_id for e in batch)
    assert sorted(seen) == list(range(len(sizes)))


def test_sjf_orders_small_jobs_first():
    queue = BatchQueue(SchedulerConfig(policy=BatchPolicy.SJF, max_batch_points=32))
    for i, rays in enumerate([10, 1, 5]):
        queue.offer(_request(i, arrival=0.0, rays=rays, ppr=8), 0.0)
    batch = queue.next_batch()
    assert [e.request.request_id for e in batch] == [1]  # 8 points, then 5x8=40 > 32-8


def test_shed_expired_removes_only_timed_out_entries():
    queue = BatchQueue(SchedulerConfig(timeout_us=10.0))
    queue.offer(_request(0, arrival=0.0), 0.0)
    queue.offer(_request(1, arrival=8.0), 8.0)
    expired = queue.shed_expired(11.0)
    assert [e.request.request_id for e in expired] == [0]
    assert queue.depth == 1


# ----------------------------------------------------------------- streams
def test_request_points_are_deterministic_and_in_unit_cube():
    request = _request(0, rays=5, ppr=7)
    points = request_points(request)
    assert points.shape == (35, 3)
    assert np.all((points >= 0.0) & (points < 1.0))
    np.testing.assert_array_equal(points, request_points(request))


def test_batch_stream_group_ids_never_span_requests(cost_model):
    requests = generate_requests(SMALL_WORKLOAD)[:4]
    grid = cost_model.grid
    stream = batch_request_stream(requests, grid, grid.hash_fn, cost_model.level)
    assert stream.num_points == sum(r.num_points for r in requests)
    assert stream.source == "serve.batch"
    offsets = np.cumsum([0] + [r.num_points for r in requests])
    cubes = int(grid.resolutions[cost_model.level]) ** 3
    for request, lo, hi in zip(requests, offsets[:-1], offsets[1:]):
        owners = stream.group_ids[lo:hi] // cubes
        assert np.all(owners == request.request_id)
    with pytest.raises(ValueError):
        batch_request_stream([], grid, grid.hash_fn, cost_model.level)


def test_service_cost_is_deterministic_and_batching_wins(cost_model):
    requests = generate_requests(SMALL_WORKLOAD)[:6]
    together = cost_model.cost(requests)
    again = cost_model.cost(requests)
    assert together == again
    assert together.num_points == sum(r.num_points for r in requests)
    assert together.dram_us > 0 and together.compute_us > 0
    assert together.total_us == together.overhead_us + max(
        together.dram_us, together.compute_us
    )
    # Coalescing pays: one batch beats six per-request dispatches.
    alone = sum(cost_model.cost([r]).total_us for r in requests)
    assert together.total_us < alone


# ---------------------------------------------------------------- simulator
def test_simulator_matches_per_request_reference_oracle(cost_model):
    """With coalescing disabled, the event loop is exactly the G/G/1 oracle."""
    workload = ServeWorkloadConfig(
        num_tenants=2, requests_per_tenant=10, rays_min=4, rays_max=4, points_per_ray=8
    )
    scheduler = SchedulerConfig(max_batch_points=4 * 8)  # one request per batch
    batched = simulate_serving(workload, scheduler, model=cost_model)
    oracle = simulate_serving_reference(workload, model=cost_model)
    assert [(r.request_id, r.start_us, r.finish_us) for r in batched.records] == [
        (r.request_id, r.start_us, r.finish_us) for r in oracle.records
    ]


def test_cost_model_is_keyword_only(cost_model):
    """A model passed positionally is rejected up front, not misread as config."""
    with pytest.raises(TypeError):
        simulate_serving(SMALL_WORKLOAD, SchedulerConfig(), cost_model)
    with pytest.raises(TypeError):
        simulate_serving_reference(SMALL_WORKLOAD, cost_model)


def test_simulation_is_replayable_and_work_conserving(cost_model):
    scheduler = SchedulerConfig(batch_window_us=5.0)
    first = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model)
    second = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model)
    assert first.records == second.records and first.batches == second.batches
    for batch in first.batches:
        assert batch.start_us == pytest.approx(
            max(batch.free_before_us, batch.earliest_admit_us + 5.0), abs=1e-9
        )


def test_statuses_partition_requests_and_summary_is_consistent(cost_model):
    scheduler = SchedulerConfig(
        timeout_us=15.0,
        admission=AdmissionConfig(max_queue_depth=3),
    )
    hot = SMALL_WORKLOAD.at_load(6.0)
    result = simulate_serving(hot, scheduler, model=cost_model)
    # Every generated request has exactly one terminal record.
    assert [r.request_id for r in result.records] == list(range(hot.num_requests))
    summary = result.summary()
    assert summary["served"] + summary["shed"] + summary["rejected"] == summary["num_requests"]
    assert 0.0 <= summary["shed_rate"] <= 1.0
    assert 0.0 <= summary["utilization"] <= 1.0
    assert summary["p50_latency_us"] <= summary["p95_latency_us"] <= summary["p99_latency_us"]
    served = [r for r in result.records if r.status == "served"]
    # A served request never waited past the shedding deadline.
    assert all(r.queue_us <= 15.0 + 1e-9 for r in served)
    # finish = start + service is rounded once more before subtracting the
    # arrival, so compare with a one-ulp-scale tolerance.
    assert all(r.latency_us >= r.service_us - 1e-9 * max(1.0, r.finish_us) for r in served)


def test_fifo_serves_in_admission_order(cost_model):
    result = simulate_serving(SMALL_WORKLOAD.at_load(4.0), SchedulerConfig(), model=cost_model)
    served = [r for r in result.records if r.status == "served"]
    batch_ids = [r.batch_id for r in sorted(served, key=lambda r: r.arrival_us)]
    assert batch_ids == sorted(batch_ids)


def test_context_memoizes_serving_summaries(cost_model):
    ctx = SimulationContext()
    scheduler = SchedulerConfig()
    first = ctx.serving_summary(SMALL_WORKLOAD, scheduler, SMALL_COST)
    hits = ctx.stats.hits
    second = ctx.serving_summary(SMALL_WORKLOAD, scheduler, SMALL_COST)
    assert second is first
    assert ctx.stats.hits == hits + 1
    direct = simulate_serving(SMALL_WORKLOAD, scheduler, model=cost_model).summary()
    assert first == direct
