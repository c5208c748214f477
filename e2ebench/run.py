"""End-to-end benchmark of the reproduction: ``train``, ``memsim``, ``serve``.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload train --seed 0 --seconds 15 --trace 0

``--trace 0`` runs whole units of work until they have taken ``--seconds``,
setting the workload up again before each (``setup_s`` is the median), and
reports the end-to-end metrics named in ``BENCHMARK.json``.  ``--trace 1``
runs one set-up plus one unit untraced and the same again traced, writes
the Chrome trace, folds it into per-layer self times and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check makes
the exit code 1.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".e2ebench-out"
#: BLAS/OpenMP threads: one, so that the single benchmark process is the
#: only thing it runs and nothing oversubscribes the cores it shares.
THREADS = 1
#: Set-up runs before every unit, repeated for SETUP_ROUND_S (at least once),
#: so that its samples spread over the whole run; SETUP_MIN_RUNS in all.
#: Each round is bracketed by SETUP_REFERENCE_REPEATS reference kernels on
#: either side, which scale that round's samples to reference seconds.
SETUP_ROUND_S = 1.0
SETUP_MIN_RUNS = 3
SETUP_REFERENCE_REPEATS = 3
#: Host seconds between two samples of the reference clock.
REFERENCE_INTERVAL_S = 0.2
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="train, memsim, serve or all")
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Any, seconds: float, checks: Any) -> dict[str, Any]:
    """Untraced run: set-ups, oracle checks and units until time is up."""
    from probe import Probe, ReferenceClock, tail_percentile
    from repro.obs import Tracer

    setup_runs: list[float] = []
    setup_ref_runs: list[float] = []
    clock = ReferenceClock(REFERENCE_INTERVAL_S)

    def set_up() -> None:
        before_s = clock.sample(SETUP_REFERENCE_REPEATS)
        runs: list[float] = []
        start = perf_counter()
        while not runs or perf_counter() - start < SETUP_ROUND_S:
            before = perf_counter()
            workload.setup()
            runs.append(perf_counter() - before)
        after_s = clock.sample(SETUP_REFERENCE_REPEATS)
        local_factor = 2.0 * clock.NOMINAL_S / (before_s + after_s)
        setup_runs.extend(runs)
        setup_ref_runs.extend(run * local_factor for run in runs)

    probe = Probe(Tracer())
    workload.instrument(probe)
    try:
        set_up()
        workload.prepare(checks)
        workload.clock = clock
        first: dict[str, float] | None = None
        units = 0
        measured_s = 0.0
        while units == 0 or measured_s < seconds:
            if units:
                set_up()
            start = perf_counter()
            result = workload.unit(probe, checks)
            measured_s += perf_counter() - start
            units += 1
            if first is None:
                first = result
            else:
                checks.expect(result == first, f"unit {units} repeated different modeled results")
        while len(setup_runs) < SETUP_MIN_RUNS:
            set_up()
    finally:
        probe.restore()
    q, tail, beyond = tail_percentile(workload.step_s, len(workload.step_s) // units)
    host = {
        "setup_host_s": statistics.median(setup_runs),
        "work_per_s": workload.work / workload.work_s,
        "step_p50_ms": statistics.median(workload.step_s) * 1e3,
        "step_tail_ms": tail * 1e3,
    }
    factor = workload.clock.factor()
    metrics = {
        "setup_s": statistics.median(setup_ref_runs),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_ref_s": host["work_per_s"] / factor,
        "step_p50_ref_ms": host["step_p50_ms"] * factor,
        "step_tail_ref_ms": host["step_tail_ms"] * factor,
    }
    details = {
        "host": host,
        "reference_factor": factor,
        "reference_samples_s": workload.clock.samples_s,
        "setup_runs_s": setup_runs,
        "setup_runs_ref_s": setup_ref_runs,
        "units": units,
        "work": workload.work,
        "work_s": workload.work_s,
        "steps": len(workload.step_s),
        "step_tail_percentile": q,
        "steps_beyond_tail": beyond,
    }
    return {"metrics": metrics, "modeled": workload.counts, "details": details}


def measure_traced(name: str, seed: int, checks: Any) -> dict[str, Any]:
    """One untraced and one traced set-up + unit; per-layer metrics from the trace."""
    from probe import Probe, fold_chrome_trace
    from repro.obs import RecordingTracer, Tracer, validate_chrome_trace, write_chrome_trace
    from workloads import SELF_METRICS, WORKLOADS

    untraced = WORKLOADS[name](seed)
    probe = Probe(Tracer())
    untraced.instrument(probe)
    try:
        start = perf_counter()
        untraced.setup()
        untraced_wall = perf_counter() - start
        untraced.prepare(checks)
        start = perf_counter()
        expected = untraced.unit(probe, checks)
        untraced_wall += perf_counter() - start
    finally:
        probe.restore()

    traced = WORKLOADS[name](seed)
    tracer = RecordingTracer(wall_clock=True)
    probe = Probe(tracer)
    traced.instrument(probe)
    try:
        start = perf_counter()
        with probe.span(f"bench.{name}"):
            traced.setup()
            result = traced.unit(probe, checks)
        traced_wall = perf_counter() - start
    finally:
        probe.restore()
    checks.expect(result == expected, "tracing changed the modeled results")

    path = write_chrome_trace(OUT / f"{name}-seed{seed}.trace.json", tracer.events())
    document = json.loads(path.read_text())
    events = validate_chrome_trace(document)
    folded = fold_chrome_trace(document)
    mapped = {span for spans in SELF_METRICS.values() for span in spans}
    checks.expect(set(folded) <= mapped, f"trace: spans without a metric {set(folded) - mapped}")

    layer: dict[str, float] = {
        metric: sum(folded[span]["self_s"] for span in spans if span in folded)
        for metric, spans in SELF_METRICS.items()
    }
    self_total = sum(layer.values())
    checks.expect(
        abs(self_total - traced_wall) <= 1e-3 * traced_wall,
        f"trace: self times add to {self_total:.6f} s, traced wall is {traced_wall:.6f} s",
    )
    encoding = folded.get("nerf.encoding.forward")
    cost = folded.get("serve.cost")
    layer["nerf.encoding.calls"] = float(encoding["calls"]) if encoding else 0.0
    layer["serve.cost_p50_ms"] = statistics.median(cost["durations_s"]) * 1e3 if cost else 0.0
    layer.update(result)
    layer["bench.untraced_wall_s"] = untraced_wall
    layer["bench.traced_wall_s"] = traced_wall
    layer["bench.trace_overhead_s"] = traced_wall - untraced_wall
    layer["bench.trace_events"] = float(events)
    return {"layer": layer, "trace": str(path.relative_to(ROOT))}


def report(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>18.6f}  {unit}")


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    from probe import Checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    checks = Checks()
    env = environment(args.seed)
    print(f"e2ebench {args.workload}: seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    record: dict[str, Any] = {"workload": args.workload, "environment": env}
    if args.trace:
        traced = measure_traced(args.workload, args.seed, checks)
        values = traced["layer"]
        wanted = spec["per_layer"]
        record.update(traced)
        report("per-layer metrics (traced run; host seconds are self time)", [
            (m["name"], values.get(m["name"], 0.0), m["unit"]) for m in wanted
        ])
    else:
        workload = WORKLOADS[args.workload](args.seed)
        measured = measure(workload, args.seconds, checks)
        values = measured["metrics"]
        wanted = spec["end_to_end"]
        record.update(measured)
        report("end-to-end metrics", [(m["name"], values[m["name"]], m["unit"]) for m in wanted])
        details = measured["details"]
        host = details["host"]
        units = {"setup_host_s": "s", "work_per_s": "1/s", "step_p50_ms": "ms", "step_tail_ms": "ms"}
        named = [(workload.named.get(k, k), v, units[k]) for k, v in host.items()]
        named += [(k, workload.counts[k], unit) for k, unit in workload.modeled.items()]
        report(
            f"host and modeled, by the workload's own names (reference factor "
            f"{details['reference_factor']:.4f}; tail is p{details['step_tail_percentile']:g} "
            f"of {details['steps']} steps)",
            named,
        )
        record["named"] = {name: value for name, value, _ in named}
    error_rate = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"checks: attempted={checks.attempted} failed={checks.failed} error_rate={error_rate:g}")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    record["checks"] = vars(checks)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    correct = checks.failed == 0 and checks.attempted > 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Every workload in its own process, so set-up time and peak RSS are its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    # Must precede the first numpy import to take effect.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
