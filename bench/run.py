#!/usr/bin/env python3
"""Benchmark for grasspack, driven through its public API and its command line.

    python3 bench/run.py --workload paley71 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``paley71``: the library pipeline on a seed-relabelled Paley (71, 35, 17)
  design and its complement over the 72 MUBs of C^71 (n = 5112, d = 5040).
- ``cli-pg31``: a command-line round trip at m = 31 on PG(2, 5), one child
  process per command.
- ``small-ladder``: six small certificate cases in seed-shuffled passes.

A run measures whole operations, one at a time, until the next one would
end after ``--seconds``, and at least the workload's minimum (two for
``cli-pg31``, so that its outputs can be compared byte for byte). Every
operation is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the lines
before it print every metric with its unit, ``fail_ratio``, ``pipeline_s.p90``
(where a run has 100 operations) and the environment. ``--trace 0`` reports
the end-to-end metrics. ``--trace 1`` alternates untraced and traced
operations, keeps a span around every call into a grasspack layer, writes the
spans to ``bench/out/`` and reports per-layer metrics and the tracing
overhead. ``--smoke`` runs every code path on tiny inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer
from workloads import CLI_STEPS, CliRoundTrip, Ladder, Paley

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = {w.name: w for w in (Paley, CliRoundTrip, Ladder)}
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

# Reported beside the metrics: p90 only where a run has 100 operations, and
# fail_ratio, which BENCHMARK.json cannot hold as a metric because it is 0.
EXTRA_UNITS = {"pipeline_s.p90": "s", "fail_ratio": "ratio", "operations": "count",
               "host_steal_share": "ratio"}

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s.p50", "s"),
    ("certs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)

# Public calls the workloads make, by layer; each gets a span.
LAYER_CALLS = {
    "packing": ("build_mixed_packing", "build_orthoplex_packing", "certify",
                "coherence", "check_tightness", "span_of_achievers",
                "spatial_complement", "verify_orthoplex_geometry",
                "extract_hadamard", "packing_from_json", "packing_to_json",
                "certificate_to_json"),
    "mubs": ("gen_mubs_prime", "gen_mubs_prime_power", "gen_mubs_small",
             "verify_mubs", "mubs_from_json", "mubs_to_json"),
    "designs": ("verify_design", "complement_design", "gen_hadamard",
                "hadamard_to_3design", "complementary_halves", "design_rebase",
                "design_to_json", "design_from_json"),
    "fields": ("enumerate_projective_plane",),
    "embedding": ("build_space", "embed", "embedded_code_to_json"),
    "io": ("json_load", "json_dump"),
}
TRACE_METRICS = (
    ("trace.pipeline_s.p50", "s"),
    ("trace.untraced_pipeline_s.p50", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    metrics = []
    for layer, calls in LAYER_CALLS.items():
        for call in calls:
            metrics += [(f"{layer}.{call}.s", "s"), (f"{layer}.{call}.calls", "count")]
            if layer == "packing":
                metrics.append((f"{layer}.{call}.alloc_peak_mb", "MB"))
    for step in CLI_STEPS:
        metrics += [(f"cli.{step}.s", "s"), (f"cli.{step}.peak_rss_mb", "MB"),
                    (f"cli.{step}.bytes_written", "B")]
    metrics += [(f"case.{case}.ms", "ms") for case in Ladder.CASES]
    return metrics + list(TRACE_METRICS)


def fail(message: str, code: int) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def import_grasspack():
    """Import grasspack from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import grasspack

    if src.resolve() not in Path(grasspack.__file__).resolve().parents:
        raise ImportError(f"grasspack was imported from {grasspack.__file__}, not {src}")
    return grasspack


def set_up(args):
    """Import grasspack and build the workload's inputs: the work setup_s times."""
    start = time.perf_counter()
    gp = import_grasspack()
    workload = WORKLOADS[args.workload](gp, args.seed, args.smoke, OUT, ROOT)
    return workload, time.perf_counter() - start


def probe_setup(args) -> list[float]:
    """Time the set-up again in fresh processes, where imports are cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(float(done.stdout.split()[-1]))
    return times


def mem_available_mb() -> float | None:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    return None


def cpu_ticks() -> tuple[int, int]:
    """Steal and total ticks summed over all CPUs. Steal is time the host
    ran something else while these CPUs were ready; it slows every timed
    operation, so a run reports its share to explain outlying figures."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def openblas_threads() -> tuple[int | None, str | None]:
    """Thread count and configuration of the OpenBLAS this process loaded."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    if config is not None:
                        config.restype = ctypes.c_char_p
                    return threads(), config().decode() if config else None
    return None, None


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    return sizes


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    threads, config = openblas_threads()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name, "blas_threads": threads, "blas_config": config,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "caches": cache_sizes(),
        "mem_available_mb": mem_available_mb(),
    }


def measure(workload, seconds: float, trace: bool):
    """Closed loop, one operation in flight.

    Rounds run until the next one would end after ``seconds`` (judged by the
    last round's length) and the workload's minimum is met. An untraced run
    makes one untraced round each time. A traced run makes an untraced and a
    traced round, swapping their order every time, preceded by a round that
    records allocation peaks where the workload has one; that round takes the
    cost of the first, cold pass, so the other two compare like with like.
    """
    results = workload.warm_up()
    tracer = Tracer() if trace else None
    untraced = NullTracer()
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        if not trace:
            modes = ("plain",)
        else:
            modes = ("plain", "traced") if rounds % 2 == 0 else ("traced", "plain")
            modes = ("alloc",) * workload.alloc_round + modes
        for mode in modes:
            if trace:
                tracer.alloc = mode == "alloc"
            results += workload.iteration(untraced if mode == "plain" else tracer)
        rounds += 1
        now = time.perf_counter()
        if rounds >= (1 if trace else workload.min_iterations) \
                and now + (now - began) - start > seconds:
            return results, tracer


def medians_by_kind(results) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r.name, []).append(r.seconds)
    return {name: statistics.median(times) for name, times in kinds.items()}


def p50(results) -> float:
    """Median over operation kinds of each kind's median time. With one kind
    this is the plain median; on the ladder, whose six cases run equally
    often, it avoids a median that sits on the jump between two cases."""
    return statistics.median(medians_by_kind(results).values())


def end_to_end(workload, results, setup_times) -> tuple[dict, dict]:
    timed = [r for r in results if r.timed]
    times = [r.seconds for r in timed]
    if workload.uses_children:
        rss_mb = max(r.child_rss_mb for r in timed)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s.p50": p50(timed),
        "certs_per_s": sum(r.certs for r in timed) / sum(times),
        "peak_rss_mb": rss_mb,
        "output_mb": statistics.fmean(r.output_bytes for r in timed) / 1e6,
    }
    extra = {"operations": len(times), "setup_samples_s": setup_times,
             "median_s_by_operation": medians_by_kind(timed)}
    if len(times) >= 100:
        extra["pipeline_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return values, extra


def per_layer(results, tracer) -> tuple[dict, dict]:
    summary = tracer.layer_summary()
    values = {}
    for name, _ in per_layer_metrics():
        span, _, stat = name.rpartition(".")
        if stat == "ms":
            values[name] = summary.get(span, {}).get("total_s", 0.0) * 1000
        else:
            values[name] = summary.get(span, {}).get(stat, 0.0)
    timed = [r for r in results if r.timed]
    traced = p50([r for r in timed if r.mode == "traced"])
    plain = p50([r for r in timed if r.mode == "plain"])
    values["trace.pipeline_s.p50"] = traced
    values["trace.untraced_pipeline_s.p50"] = plain
    values["trace.overhead_s"] = traced - plain
    return values, {"operations": len(timed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the fewest operations")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    if not (ROOT / "src" / "grasspack" / "__init__.py").is_file():
        return fail(f"no grasspack sources under {ROOT / 'src'}", 2)
    OUT.mkdir(exist_ok=True)
    try:
        workload, setup_main = set_up(args)
    except (ImportError, OSError) as exc:
        return fail(f"set-up failed: {exc}", 2)
    if args.setup_probe:
        print(setup_main)
        return 0

    available = mem_available_mb()
    if available is not None and available < workload.mem_need_mb:
        return fail(f"{args.workload} needs about {workload.mem_need_mb} MB but "
                    f"MemAvailable is {available:.0f} MB; not starting", 3)
    env = environment(args)
    setup_times = [setup_main] + ([] if args.trace else probe_setup(args))

    steal0, total0 = cpu_ticks()
    try:
        results, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    steal1, total1 = cpu_ticks()
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is None:
        metrics, extra = end_to_end(workload, results, setup_times)
        units = dict(END_TO_END)
    else:
        metrics, extra = per_layer(results, tracer)
        units = dict(per_layer_metrics())
        tracer.write(OUT / f"{stem}-spans.json", environment=env)
    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    extra["fail_ratio"] = failed / attempted
    extra["host_steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps({
        "environment": env, "metrics": metrics, "extra": extra,
        "failures": [[r.name, r.failures] for r in results if r.failures],
    }, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name} = {value} {EXTRA_UNITS.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
