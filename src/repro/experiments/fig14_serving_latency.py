"""Fig. 14 (extension): tail latency of multi-tenant serving under open load.

Not a figure of the paper — this experiment takes the accelerator + memory
system the paper evaluates on one training job and asks the production
question: what latency does it deliver to *many tenants* under open-loop
traffic?  The :mod:`repro.serve` simulator coalesces per-tenant render
requests into accelerator-sized batches, prices each batch through the
unchanged hierarchy → DRAM → NMP cost models, and reports the serving
metrics that matter at scale — p50/p99 latency, goodput, shed rate and
queue depth — swept over offered load x batching policy x admission
control.

Offered load is time compression of one seeded base arrival sequence, so
the load axis re-serves the *same* requests at increasing density; for a
fixed policy the p99 latency curve is the classic hockey stick and is
monotone non-decreasing in load (asserted by ``benchmarks/test_perf_serve``).
"""

from __future__ import annotations

from ..pipeline.context import SimulationContext
from ..pipeline.registry import ParamSpec, register_experiment
from ..serve.cost import ServiceCostConfig
from ..serve.scheduler import AdmissionConfig, BatchPolicy, SchedulerConfig
from ..serve.workload import ServeWorkloadConfig
from .runner import ExperimentResult

__all__ = ["fig14_experiment", "admission_from_name"]

#: Named admission-control presets the experiment sweeps.
ADMISSION_PRESETS = ("none", "depth", "token")


def admission_from_name(
    name: str,
    queue_depth: int = 64,
    tokens_per_us: float = 0.05,
    bucket_capacity: float = 8.0,
) -> AdmissionConfig:
    """One of the named admission presets as a concrete config."""
    if name == "none":
        return AdmissionConfig()
    if name == "depth":
        return AdmissionConfig(max_queue_depth=queue_depth)
    if name == "token":
        return AdmissionConfig(tokens_per_us=tokens_per_us, bucket_capacity=bucket_capacity)
    raise ValueError(f"admission must be one of {ADMISSION_PRESETS}, got {name!r}")


@register_experiment(
    "fig14_serving_latency",
    paper_ref="Fig. 14 (ext.)",
    title="Multi-tenant serving: tail latency, goodput and shedding vs offered load",
    params=(
        ParamSpec("loads", str, "0.25,0.5,1.0,2.0,4.0", help="comma list of offered loads"),
        ParamSpec("policies", str, "fifo,sjf", help="comma list of batching policies"),
        ParamSpec(
            "admission",
            str,
            "none,depth,token",
            help="comma list of admission presets (none/depth/token)",
        ),
        ParamSpec("tenants", int, 4, help="number of tenants"),
        ParamSpec("requests", int, 64, help="requests per tenant"),
        ParamSpec("interarrival_us", float, 20.0, help="per-tenant mean gap at unit load"),
        ParamSpec(
            "process",
            str,
            "poisson",
            choices=("poisson", "mmpp", "diurnal"),
            help="arrival process",
        ),
        ParamSpec("rays_min", int, 4, help="minimum rays per request"),
        ParamSpec("rays_max", int, 16, help="maximum rays per request"),
        ParamSpec("points_per_ray", int, 8, help="samples per ray"),
        ParamSpec("seed", int, 0, help="workload seed"),
        ParamSpec("batch_points", int, 4096, help="sample-point budget of one batch"),
        ParamSpec("window_us", float, 0.0, help="batch coalescing window"),
        ParamSpec("timeout_us", float, 0.0, help="queue-wait shedding deadline (0 = off)"),
        ParamSpec("queue_depth", int, 64, help="depth-preset queue cap"),
        ParamSpec("tokens_per_us", float, 0.05, help="token-preset refill rate per tenant"),
        ParamSpec("bucket_capacity", float, 8.0, help="token-preset bucket capacity"),
        ParamSpec("dram", str, "lpddr4-2400", help="DRAM spec pricing the batches"),
        ParamSpec("cache_kb", int, 64, help="SRAM cache capacity (KB)"),
        ParamSpec("grid_levels", int, 4, help="serving hash-grid levels"),
        ParamSpec("dtype", str, "fp16", help="hash-table entry precision"),
    ),
    tags=("serving", "extension", "latency"),
    provides=("serving_summary",),
    smoke={"requests": 24, "grid_levels": 2, "loads": "0.5,4.0"},
)
def fig14_experiment(
    ctx: SimulationContext,
    *,
    loads: str,
    policies: str,
    admission: str,
    tenants: int,
    requests: int,
    interarrival_us: float,
    process: str,
    rays_min: int,
    rays_max: int,
    points_per_ray: int,
    seed: int,
    batch_points: int,
    window_us: float,
    timeout_us: float,
    queue_depth: int,
    tokens_per_us: float,
    bucket_capacity: float,
    dram: str,
    cache_kb: int,
    grid_levels: int,
    dtype: str,
) -> ExperimentResult:
    """Serving-latency sweep over offered load x policy x admission control."""
    load_values = tuple(float(v) for v in loads.split(",") if v.strip())
    policy_values = tuple(BatchPolicy(p.strip()) for p in policies.split(",") if p.strip())
    admission_values = tuple(a.strip() for a in admission.split(",") if a.strip())
    if not load_values or not policy_values or not admission_values:
        raise ValueError("loads, policies and admission must each name at least one value")
    if any(load <= 0.0 for load in load_values):
        raise ValueError(f"loads must be positive, got {loads!r}")
    for name in admission_values:
        if name not in ADMISSION_PRESETS:
            raise ValueError(f"admission must be one of {ADMISSION_PRESETS}, got {name!r}")
    workload = ServeWorkloadConfig(
        num_tenants=tenants,
        requests_per_tenant=requests,
        mean_interarrival_us=interarrival_us,
        process=process,
        rays_min=rays_min,
        rays_max=rays_max,
        points_per_ray=points_per_ray,
        seed=seed,
    )
    cost = ServiceCostConfig(dram=dram, cache_kb=cache_kb, grid_levels=grid_levels, dtype=dtype)
    rows = []
    for policy in policy_values:
        for admission_name in admission_values:
            scheduler = SchedulerConfig(
                policy=policy,
                max_batch_points=batch_points,
                batch_window_us=window_us,
                timeout_us=timeout_us,
                admission=admission_from_name(
                    admission_name, queue_depth, tokens_per_us, bucket_capacity
                ),
            )
            for load in load_values:
                summary = ctx.serving_summary(workload.at_load(load), scheduler, cost)
                row: dict = {
                    "policy": policy.value,
                    "admission": admission_name,
                    "offered_load": load,
                    "tenants": workload.num_tenants,
                    "process": workload.process,
                }
                row.update(summary)
                rows.append(row)
    return ExperimentResult(
        experiment_id="Fig. 14 (ext.)",
        description="Multi-tenant serving latency under open-loop load on the NMP system",
        rows=rows,
        notes=(
            f"{workload.num_tenants} tenants x {workload.requests_per_tenant} requests, "
            f"{workload.process} arrivals (mean gap {workload.mean_interarrival_us} us at "
            f"unit load); batches coalesced to {batch_points} points and priced by "
            f"hierarchy+DRAM ({cost.dram}) + NMP forward compute; offered load is time "
            "compression of one seeded arrival sequence."
        ),
    )
