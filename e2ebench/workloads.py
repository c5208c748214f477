"""The benchmark's three workloads: ``train``, ``memsim`` and ``serve``.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
``setup_s``), runs untimed oracle checks in :meth:`prepare`, and then does
whole units of work in :meth:`unit` while the run lasts.  A unit returns the
modeled results it produced; every unit of one run must return the same
ones.  :meth:`instrument` lists the public calls the traced run wraps with
spans, named after the layer each call enters.

* ``train`` trains the Morton-hash Instant-NeRF field of Table IV on the
  procedural ``lego`` scene and scores it on the held-out view.  It is the
  job the paper accelerates and never touches ``mem``, ``dram`` or
  ``serve``.
* ``memsim`` pushes one training batch of scene-traced lookups, for both
  hash functions and both directions, through the cache hierarchy and the
  DRAM model in few large calls, then derives row requests, bank conflicts
  and the NMP training time from the same streams.
* ``serve`` simulates the multi-tenant serving defaults at offered load 1
  and 4: the same memory layers, reached through thousands of tiny calls,
  so per-call overhead dominates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import replace
from time import perf_counter
from typing import Any

import numpy as np

import repro.core.streaming as streaming
import repro.experiments.tab04_psnr as tab04
import repro.nerf.trainer as trainer_mod
import repro.scenes.dataset as dataset_mod
import repro.serve.simulator as simulator
import repro.serve.workload as serve_workload
import repro.workloads.traces as traces
from repro.accel.nmp import AlgorithmLocality, NMPAccelerator
from repro.core.hashing import get_hash_function
from repro.core.mapping import HashTableMapper
from repro.dram.system import DRAMSystem
from repro.mem import CacheConfig, CacheHierarchy, PrefetcherConfig
from repro.nerf.adam import Adam
from repro.nerf.encoding import HashGridConfig, HashGridEncoding
from repro.nerf.field import InstantNGPField
from repro.nerf.mlp import MLP
from repro.serve.cost import ServiceCostConfig, ServiceCostModel
from repro.serve.scheduler import SchedulerConfig
from repro.streams.ir import StreamKind

from probe import Checks, Probe, ReferenceClock

__all__ = ["WORKLOADS", "MemoryPathCounters"]


class MemoryPathCounters:
    """``mem.*``/``dram.*`` counters of hierarchy → DRAM calls.

    Every call's counters are checked against their neighbours as they are
    added: L0 accesses split into L0 hits and demand lines, demand lines into
    cache hits, misses and MSHR-coalesced accesses, and the DRAM requests
    serviced equal both the row hits plus misses and the lines the hierarchy
    let through.
    """

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.values: dict[str, float] = defaultdict(float)
        self._lines = -1

    def filtered(self, filtered: Any) -> None:
        stats, cache = filtered.stats, filtered.stats.cache
        demand, lines = int(filtered.demand_lines.size), int(filtered.dram_lines.size)
        self.checks.expect(
            stats.l0_accesses == stats.l0_hits + demand, "mem: l0_accesses != l0_hits + demand"
        )
        self.checks.expect(
            demand == cache.demand_accesses == cache.hits + cache.misses + cache.coalesced,
            "mem: demand != cache hits + misses + coalesced",
        )
        self.checks.expect(
            lines == cache.misses + cache.prefetch_fills, "mem: dram lines != misses + fills"
        )
        self._lines = lines
        for name, value in (
            ("calls", 1),
            ("l0_accesses", stats.l0_accesses),
            ("l0_hits", stats.l0_hits),
            ("demand_lines", demand),
            ("cache_hits", cache.hits),
            ("cache_misses", cache.misses),
            ("coalesced", cache.coalesced),
            ("prefetch_fills", cache.prefetch_fills),
            ("prefetch_useful", cache.prefetch_useful),
            ("writebacks", cache.writebacks),
            ("dram_lines", lines),
        ):
            self.values[f"mem.{name}"] += value

    def serviced(self, result: Any) -> None:
        self.checks.expect(
            result.total_requests == result.row_hits + result.row_misses == self._lines,
            "dram: requests != row hits + misses != hierarchy dram lines",
        )
        for name, value in (
            ("calls", 1),
            ("requests", result.total_requests),
            ("row_hits", result.row_hits),
            ("row_misses", result.row_misses),
            ("bank_conflicts", result.bank_conflicts),
            ("cycles", result.total_cycles),
        ):
            self.values[f"dram.{name}"] += value

    def metrics(self) -> dict[str, float]:
        v = self.values
        out = {name: value for name, value in v.items() if name != "mem.demand_lines"}
        out["mem.l0_hit_rate"] = _ratio(v["mem.l0_hits"], v["mem.l0_accesses"])
        out["mem.cache_hit_rate"] = _ratio(v["mem.cache_hits"], v["mem.demand_lines"])
        out["mem.prefetch_accuracy"] = _ratio(v["mem.prefetch_useful"], v["mem.prefetch_fills"])
        out["dram.row_hit_rate"] = _ratio(v["dram.row_hits"], v["dram.requests"])
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator / denominator) if denominator else 0.0


class Workload:
    """What every workload records while its units run.

    ``work`` counts the items behind ``work_per_ref_s`` and ``work_s`` the
    host seconds they took; ``step_s`` holds one host duration per step (the
    samples of the step percentiles); ``counts`` holds the last unit's layer
    counters and modeled results.  ``clock`` is ticked between steps and
    its samples are left out of ``work_s``.  ``named`` maps the generic host
    measurements to this workload's own names for them, and ``modeled``
    gives the unit of each modeled result it reports by name.
    """

    name = ""
    named: dict[str, str] = {}
    modeled: dict[str, str] = {}

    def __init__(self) -> None:
        self.step_s: list[float] = []
        self.work = 0
        self.work_s = 0.0
        self.counts: dict[str, float] = {}
        self.clock = ReferenceClock(math.inf)

    def _stepped(self, _result: Any, elapsed: float) -> None:
        self.step_s.append(elapsed)
        self.clock.tick()

    def prepare(self, checks: Checks) -> None:
        """Untimed oracle checks on the inputs ``setup`` built."""

    def instrument(self, probe: Probe) -> None:
        """Wrap the public calls the workload enters, one layer per span name."""


# ----------------------------------------------------------------- train
class TrainWorkload(Workload):
    """Table IV's Instant-NeRF cell on ``lego``: train, then test PSNR.

    Work is training iterations; a step is one ``Trainer.train_step``.
    ``work_s`` covers ``Trainer.train`` only, not the scoring.
    """

    name = "train"
    named = {
        "work_per_s": "train_iters_per_s",
        "step_p50_ms": "train_iter_p50_ms",
        "step_tail_ms": "train_iter_tail_ms",
    }
    modeled = {"train_test_psnr_db": "dB"}
    scene = "lego"
    method = "instant-nerf"

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.config = tab04.QualityRunConfig(scenes=(self.scene,), seed=seed)

    def setup(self) -> None:
        self.dataset = dataset_mod.load_synthetic_dataset(
            self.scene, self.config.dataset_config()
        )

    def prepare(self, checks: Checks) -> None:
        # The first batch train_step draws: same generators, same calls.
        cfg = self.config.trainer_config()
        field = tab04.build_field(self.method, np.random.default_rng(self.config.seed))
        rng = np.random.default_rng(cfg.seed)
        rays, _ = self.dataset.sample_ray_batch(cfg.rays_per_batch, rng=rng)
        t_values = trainer_mod.stratified_t_values(
            len(rays), cfg.samples_per_ray, cfg.near, cfg.far, rng=rng, jitter=True
        )
        points = trainer_mod.sample_along_rays(rays, t_values).reshape(-1, 3)
        positions = self.dataset.normalize_positions(points)
        checks.expect(
            np.array_equal(
                field.encoding.forward(positions), field.encoding.forward_reference(positions)
            ),
            "nerf.encoding: forward != forward_reference on the first training batch",
        )

    def unit(self, probe: Probe, checks: Checks) -> dict[str, float]:
        field = tab04.build_field(self.method, np.random.default_rng(self.config.seed))
        trainer = trainer_mod.Trainer(field, self.dataset, self.config.trainer_config())
        spent, start = self.clock.spent_s, perf_counter()
        history = trainer.train()
        self.work_s += perf_counter() - start - (self.clock.spent_s - spent)
        psnr = trainer.evaluate()
        finite = np.isfinite(history.losses)
        checks.operations(finite.size, int((~finite).sum()), "training iterations (loss)")
        checks.expect(bool(np.isfinite(psnr)), "nerf: test PSNR is not finite")
        self.work += len(history.losses)
        self.counts = {
            "train_test_psnr_db": float(psnr),
            "nerf.samples_evaluated": float(history.total_samples),
        }
        return dict(self.counts)

    def instrument(self, probe: Probe) -> None:
        probe.wrap(dataset_mod, "load_synthetic_dataset", "scenes.dataset")
        probe.wrap(tab04, "build_field", "nerf.trainer.init")
        probe.wrap(trainer_mod.Trainer, "__init__", "nerf.trainer.init")
        probe.wrap(trainer_mod.Trainer, "train", "nerf.trainer.train")
        probe.wrap(
            trainer_mod.Trainer,
            "train_step",
            "nerf.trainer.step",
            new_id="iteration",
            after=self._stepped,
        )
        probe.wrap(trainer_mod.Trainer, "evaluate", "nerf.evaluate")
        # The trainer binds these functions into its own module namespace.
        probe.wrap(trainer_mod, "stratified_t_values", "nerf.rays.sample")
        probe.wrap(trainer_mod, "sample_along_rays", "nerf.rays.sample")
        probe.wrap(trainer_mod, "render_rays", "nerf.render.forward")
        probe.wrap(trainer_mod, "render_rays_backward", "nerf.render.backward")
        probe.wrap(trainer_mod, "mse_loss", "nerf.loss")
        probe.wrap(InstantNGPField, "forward", "nerf.field.forward")
        probe.wrap(InstantNGPField, "backward", "nerf.field.backward")
        probe.wrap(HashGridEncoding, "forward", "nerf.encoding.forward")
        probe.wrap(HashGridEncoding, "backward", "nerf.encoding.backward")
        probe.wrap(MLP, "forward", "nerf.mlp.forward")
        probe.wrap(MLP, "backward", "nerf.mlp.backward")
        probe.wrap(Adam, "step", "nerf.adam.step")


# ---------------------------------------------------------------- memsim
class MemsimWorkload(Workload):
    """One training batch of ``lego`` lookups through hierarchy and DRAM.

    Work is modeled table lookups (L0 accesses); a step is one level
    stream of one hash in one direction through ``filter_stream`` and
    ``service_batch``.  Every call starts with empty caches.
    """

    name = "memsim"
    named = {"work_per_s": "memsim_lookups_per_s"}
    modeled = {"memsim_dram_cycles": "cycles", "memsim_nmp_train_s": "modeled_s"}
    hashes = ("morton", "original")
    directions = ("read", "write")
    num_levels = 16
    line_bytes = 64
    prefix_points = 512

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.trace = traces.TraceConfig(num_rays=128, points_per_ray=64, seed=seed, scene="lego")

    def setup(self) -> None:
        self.order = streaming.point_order(
            self.trace.num_rays, self.trace.points_per_ray, streaming.StreamingOrder.RAY_FIRST
        )
        self.generators = {}
        self.mappers = {}
        for hash_name in self.hashes:
            grid = HashGridConfig(num_levels=self.num_levels, hash_fn=get_hash_function(hash_name))
            self.generators[hash_name] = traces.HashTraceGenerator(grid, self.trace)
            self.mappers[hash_name] = HashTableMapper(grid)
        # The serving cost model's tiers: a 64 KB cache holds the coarse
        # dense levels but not the fine hashed ones.
        self.hierarchy = CacheHierarchy(
            cache=CacheConfig(capacity_bytes=64 * 1024, line_bytes=self.line_bytes, mshr_latency=4),
            prefetcher=PrefetcherConfig(policy="stride", degree=1),
        )
        self.dram = DRAMSystem()

    def prepare(self, checks: Checks) -> None:
        stream = self.generators["morton"].stream(self.num_levels - 1, self.order)
        keep = np.arange(stream.num_points) < self.prefix_points
        for direction in self.directions:
            prefix = self._directed(stream.subset(keep), direction)
            fast = self.hierarchy.filter_stream(prefix)
            oracle = self.hierarchy.filter_stream_reference(prefix)
            arrays = ("demand_lines", "merged_lines", "is_prefetch", "outcomes", "dram_lines")
            same = fast.stats == oracle.stats and all(
                np.array_equal(getattr(fast, name), getattr(oracle, name)) for name in arrays
            )
            checks.expect(same, f"mem: filter_stream != filter_stream_reference ({direction})")

    @staticmethod
    def _directed(stream: Any, direction: str) -> Any:
        # The backward pass scatters gradients to the very entries it read.
        return stream if direction == "read" else replace(stream, kind=StreamKind.WRITE)

    def unit(self, probe: Probe, checks: Checks) -> dict[str, float]:
        spent, start = self.clock.spent_s, perf_counter()
        counters = MemoryPathCounters(checks)
        splits: dict[str, float] = defaultdict(float)
        finest = {}
        for hash_name in self.hashes:
            generator, mapper = self.generators[hash_name], self.mappers[hash_name]
            probe.ids["hash"] = hash_name
            for level in range(self.num_levels):
                probe.ids["level"] = level
                stream = generator.stream(level, self.order)
                for direction in self.directions:
                    probe.ids["direction"] = direction
                    directed = self._directed(stream, direction)
                    self.clock.tick()
                    step_start = perf_counter()
                    filtered = self.hierarchy.filter_stream(directed)
                    served = self.dram.service_batch(
                        filtered.dram_stream(), size_bytes=self.line_bytes
                    )
                    self.step_s.append(perf_counter() - step_start)
                    counters.filtered(filtered)
                    counters.serviced(served)
                    splits[f"mem.writebacks.{direction}"] += filtered.stats.cache.writebacks
                    splits[f"dram.requests.{direction}"] += served.total_requests
                    splits[f"dram.cycles.{direction}"] += served.total_cycles
                    splits[f"dram.cycles.{hash_name}"] += served.total_cycles
                del probe.ids["direction"]
                splits[f"core.row_requests.{hash_name}"] += streaming.row_requests_for_stream(
                    stream
                )
                splits[f"core.bank_conflicts.{hash_name}"] += mapper.count_conflicts(
                    level, stream.indices
                ).bank_conflicts
            del probe.ids["level"]
            # ``stream`` is the finest level's: the one the paper's figures use.
            finest[hash_name] = AlgorithmLocality.from_request_stream(stream)
        del probe.ids["hash"]

        paper = {
            "morton": AlgorithmLocality.instant_nerf().row_requests_per_cube,
            "original": AlgorithmLocality.ingp_baseline().row_requests_per_cube,
        }
        for hash_name, locality in finest.items():
            measured = locality.row_requests_per_cube
            splits[f"core.row_requests_per_cube.{hash_name}"] = measured
            splits[f"core.row_requests_per_cube_err.{hash_name}"] = (
                abs(measured - paper[hash_name]) / paper[hash_name]
            )
        accelerator = NMPAccelerator(locality=finest["morton"])
        iteration = accelerator.iteration_cost()
        for step, cost in iteration.steps.items():
            splits[f"accel.step_modeled_s.{step}"] = cost.seconds
        splits["memsim_nmp_train_s"] = accelerator.scene_training_seconds()
        splits["memsim_dram_cycles"] = splits["dram.cycles.morton"]

        self.work_s += perf_counter() - start - (self.clock.spent_s - spent)
        self.work += int(counters.values["mem.l0_accesses"])
        self.counts = {**counters.metrics(), **splits}
        return dict(self.counts)

    def instrument(self, probe: Probe) -> None:
        probe.wrap(traces.HashTraceGenerator, "__init__", "workloads.trace")
        probe.wrap(traces.HashTraceGenerator, "stream", "workloads.stream")
        probe.wrap(CacheHierarchy, "filter_stream", "mem.filter")
        probe.wrap(DRAMSystem, "service_batch", "dram.service")
        probe.wrap(streaming, "row_requests_for_stream", "core.row_requests")
        probe.wrap(HashTableMapper, "count_conflicts", "core.count_conflicts")
        probe.wrap(AlgorithmLocality, "from_request_stream", "accel.nmp")
        probe.wrap(NMPAccelerator, "iteration_cost", "accel.nmp")
        probe.wrap(NMPAccelerator, "scene_training_seconds", "accel.nmp")


# ----------------------------------------------------------------- serve
class ServeWorkload(Workload):
    """The fig14 serving defaults at offered load 1 and 4, FIFO, no admission.

    Arrivals are an open loop in modeled time, so latency runs from each
    request's arrival and the generator is never late; the host drives the
    simulation as one closed-loop process.  Work is simulated requests; a
    step is one batch priced by ``ServiceCostModel.cost``.
    """

    name = "serve"
    named = {"work_per_s": "serve_requests_per_s"}
    modeled = {"serve_p99_us_load1": "modeled_us", "serve_p99_us_load4": "modeled_us"}
    loads = (1.0, 4.0)
    requests_per_tenant = 512

    def __init__(self, seed: int) -> None:
        super().__init__()
        base = serve_workload.ServeWorkloadConfig(
            requests_per_tenant=self.requests_per_tenant, seed=seed
        )
        self.workloads = {load: base.at_load(load) for load in self.loads}
        self.scheduler = SchedulerConfig()
        self.memory: MemoryPathCounters | None = None

    def setup(self) -> None:
        self.model = ServiceCostModel(ServiceCostConfig())
        self.arrivals = {
            load: len(serve_workload.generate_requests(workload))
            for load, workload in self.workloads.items()
        }

    def unit(self, probe: Probe, checks: Checks) -> dict[str, float]:
        spent, start = self.clock.spent_s, perf_counter()
        self.memory = MemoryPathCounters(checks)
        out: dict[str, float] = {}
        batches = []
        for load, workload in self.workloads.items():
            probe.ids["load"] = load
            result = simulator.simulate_serving(workload, self.scheduler, model=self.model)
            summary = result.summary()
            served, dropped = summary["served"], summary["shed"] + summary["rejected"]
            checks.expect(
                self.arrivals[load] == len(result.records) == served + dropped,
                f"serve: arrivals != served + shed + rejected at load {load:g}",
            )
            checks.operations(len(result.records), int(dropped), f"requests at load {load:g}")
            queue_us = [r.queue_us for r in result.records if r.status == "served"]
            tag = f"load{load:g}"
            out[f"serve_p99_us_{tag}"] = summary["p99_latency_us"]
            out[f"serve.queue_us_p99.{tag}"] = float(np.percentile(queue_us, 99.0))
            out[f"serve.utilization.{tag}"] = summary["utilization"]
            out[f"serve.mean_batch_requests.{tag}"] = summary["mean_batch_requests"]
            batches.extend(result.batches)
            self.work += len(result.records)
        del probe.ids["load"]
        out["serve.batches"] = float(len(batches))
        out["serve.dram_us_mean"] = float(np.mean([b.dram_us for b in batches]))
        out["serve.compute_us_mean"] = float(np.mean([b.compute_us for b in batches]))
        # Recorded, not asserted: batches whose DRAM time exceeds compute.
        out["serve.batches_dram_bound"] = float(sum(b.dram_us > b.compute_us for b in batches))
        self.work_s += perf_counter() - start - (self.clock.spent_s - spent)
        self.counts = {**self.memory.metrics(), **out}
        return dict(self.counts)

    def instrument(self, probe: Probe) -> None:
        probe.wrap(serve_workload, "generate_requests", "serve.generate")
        probe.wrap(simulator, "generate_requests", "serve.generate")
        probe.wrap(simulator, "simulate_serving", "serve.simulate")
        probe.wrap(
            ServiceCostModel, "cost", "serve.cost", new_id="batch", after=self._stepped
        )
        probe.wrap(ServiceCostModel, "batch_stream", "serve.batch_stream")
        probe.wrap(CacheHierarchy, "filter_stream", "mem.filter", after=self._filtered)
        probe.wrap(DRAMSystem, "service_batch", "dram.service", after=self._serviced)

    # Looked up per call: ``unit`` starts fresh counters for every unit.
    def _filtered(self, filtered: Any, _elapsed: float) -> None:
        self.memory.filtered(filtered)

    def _serviced(self, result: Any, _elapsed: float) -> None:
        self.memory.serviced(result)


WORKLOADS = {w.name: w for w in (TrainWorkload, MemsimWorkload, ServeWorkload)}

#: Per-layer self-time metrics and the span names whose self time each sums.
SELF_METRICS = {
    "scenes.dataset_s": ("scenes.dataset",),
    "nerf.rays.sample_s": ("nerf.rays.sample",),
    "nerf.encoding.forward_s": ("nerf.encoding.forward",),
    "nerf.encoding.backward_s": ("nerf.encoding.backward",),
    "nerf.mlp.forward_s": ("nerf.mlp.forward",),
    "nerf.mlp.backward_s": ("nerf.mlp.backward",),
    "nerf.field.self_s": ("nerf.field.forward", "nerf.field.backward"),
    "nerf.render.forward_s": ("nerf.render.forward",),
    "nerf.render.backward_s": ("nerf.render.backward",),
    "nerf.loss_s": ("nerf.loss",),
    "nerf.adam.step_s": ("nerf.adam.step",),
    "nerf.trainer.self_s": ("nerf.trainer.init", "nerf.trainer.train", "nerf.trainer.step"),
    "nerf.evaluate_s": ("nerf.evaluate",),
    "workloads.trace_s": ("workloads.trace",),
    "workloads.stream_s": ("workloads.stream",),
    "core.row_requests_s": ("core.row_requests",),
    "core.count_conflicts_s": ("core.count_conflicts",),
    "mem.filter_s": ("mem.filter",),
    "dram.service_s": ("dram.service",),
    "accel.nmp_s": ("accel.nmp",),
    "serve.generate_s": ("serve.generate",),
    "serve.batch_stream_s": ("serve.batch_stream",),
    "serve.cost_s": ("serve.cost",),
    "serve.loop_self_s": ("serve.simulate",),
    "bench.self_s": tuple(f"bench.{name}" for name in WORKLOADS),
}
