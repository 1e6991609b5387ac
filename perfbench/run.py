"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports the package from `src/`.
BLAS is pinned to one thread here, before numpy loads; nothing starts a thread
pool.  With `--trace 0` the last line of stdout holds the end-to-end metrics,
scaled to a reference speed (see reference.py), with `--trace 1` the
per-layer metrics of a separate traced run.  `--info`
prints the machine description instead.  See README.md in this directory.
"""

import os
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5

# name -> unit of the metrics printed with --trace 0 and --trace 1
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
_FUNCTION_METRICS = [
    ("dictionary.random_dictionary", ("calls", "self_ms")),
    ("dictionary.coherence", ("self_ms",)),
    ("projection.project_atoms", ("calls", "self_ms")),
    ("projection.residual", ("calls", "self_ms")),
    ("greedy.run", ("calls", "self_ms")),
    ("greedy.classify", ("self_ms",)),
    ("guarantees.tropp_erc", ("self_ms",)),
    ("guarantees.partial_erc", ("self_ms",)),
    ("guarantees.projected_coherence", ("self_ms",)),
    ("guarantees.prip_exact", ("self_ms",)),
    ("worstcase.build_scenario", ("self_ms",)),
    ("worstcase.reach_input", ("self_ms",)),
    ("sweep.run_sweep", ("self_ms",)),
    ("cli.main", ("self_ms",)),
]
IO_FUNCTIONS = ("dictionary.save_dictionary", "dictionary.load_dictionary",
                "dictionary.save_vector", "dictionary.load_vector")
PER_LAYER = {f"{fn}.{part}": ("count" if part == "calls" else "ms")
             for fn, parts in _FUNCTION_METRICS for part in parts}
PER_LAYER.update({
    "dictionary.io.self_ms": "ms", "dictionary.io.bytes": "bytes",
    "greedy.selections": "count", "greedy.ties": "count",
    "guarantees.supports_enumerated": "count",
    "worstcase.calibration_runs": "count", "worstcase.calibration_runs_per_scenario": "ratio",
    "sweep.trials_attempted": "count", "sweep.trials_accepted": "count",
    "sweep.accepted_share": "ratio",
    "trace.overhead_s": "s",
})


def machine_info() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": None, "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                info["blas"], info["blas_threads"] = config().decode(), threads()
    with open("/proc/self/status") as fh:
        info["process_threads"] = next(int(line.split()[1]) for line in fh
                                       if line.startswith("Threads:"))
    return info


def run_round(ops, tracer=None):
    """Run each op once, then the reference kernel; return (latencies, kernel
    times, failed count, keys)."""
    latencies, kernel_s, failed, keys = [], [], 0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.enabled = f"{i}:{op.name}", True
        start = time.perf_counter()
        try:
            result, problems = op.call(), None
        except Exception:  # a raising op is a failed op; the run goes on
            result, problems = None, [traceback.format_exc()]
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False
        kernel_s.append(reference.timed_kernel())
        if problems is None:
            problems = op.check(result)
            keys.append(op.key(result))
        else:
            keys.append(None)
        if problems:
            failed += 1
            print(f"op {op.name} failed: {problems[:3]}", file=sys.stderr)
    return latencies, kernel_s, failed, keys


def measure(ops, workload, seconds, tracer=None):
    """Repeat whole rounds until `seconds` have passed and enough ops ran.

    With a tracer, every other round is traced, so traced and untraced rounds
    share the machine's slow and fast spells.  Returns (rounds of latencies,
    rounds of reference kernel times, which rounds were traced, failed ops,
    whether every round gave the same results).
    """
    rounds, kernels, traced, failed, deterministic, first_keys = [], [], [], 0, True, None
    start = time.perf_counter()
    while True:
        traced.append(tracer is not None and len(rounds) % 2 == 0)
        latencies, kernel_s, round_failed, keys = run_round(
            ops, tracer if traced[-1] else None)
        rounds.append(latencies)
        kernels.append(kernel_s)
        failed += round_failed
        if first_keys is None:
            first_keys = keys
        elif keys != first_keys:
            deterministic = False
            print("an op gave a different result than in the first round", file=sys.stderr)
        done = len(rounds) * len(ops)
        if time.perf_counter() - start >= seconds and done >= workload.min_ops:
            return rounds, kernels, traced, failed, deterministic


def timing_metrics(workload, setup_s, latencies, completed):
    return {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * statistics.quantiles(
            latencies, n=100, method="inclusive")[workload.tail_pct - 1],
    }


def end_to_end(workload, seed, seconds, import_s):
    """Every timing is scaled by the reference kernel's speed factor taken
    around it (see reference.py); the unscaled figures go to stderr."""
    import_speed = reference.speed()
    setups, setup_speeds, ops = [], [], None
    for _ in range(SETUP_REPEATS):
        ops = None  # the previous inputs are freed before the next ones are built
        before = reference.speed()
        t = time.perf_counter()
        ops = workload.setup(seed)
        setups.append(time.perf_counter() - t)
        setup_speeds.append(0.5 * (before + reference.speed()))
    rounds, kernels, _, failed, deterministic = measure(ops, workload, seconds)
    latencies = [x for r in rounds for x in r]
    attempted = len(latencies)
    raw = timing_metrics(workload, import_s + statistics.median(setups),
                         latencies, attempted - failed)
    metrics = timing_metrics(
        workload,
        import_s * import_speed + statistics.median(
            s * f for s, f in zip(setups, setup_speeds)),
        reference.scale(latencies, [x for r in kernels for x in r]), attempted - failed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("unscaled: " + json.dumps(raw), file=sys.stderr)
    return deterministic, attempted, failed, metrics


def per_layer(workload, seed, seconds, package, trace_path):
    from tracing import Tracer

    workload.setup(seed)  # warm-up, so the baseline below is not a cold first call
    t = time.perf_counter()
    workload.setup(seed)
    plain_setup = time.perf_counter() - t

    tracer = Tracer()
    tracer.install(package)
    tracer.op, tracer.enabled = "setup", True
    t = time.perf_counter()
    ops = workload.setup(seed)
    traced_setup = time.perf_counter() - t
    tracer.enabled = False
    at_setup = tracer.snapshot()
    rounds, _, traced, failed, deterministic = measure(ops, workload, seconds, tracer)
    total = tracer.snapshot()

    # one set-up plus one round: the set-up's share and the traced rounds' mean
    n = sum(traced)
    raw = {key: at_setup.get(key, 0) + (total[key] - at_setup.get(key, 0)) / n for key in total}
    metrics = {name: raw.get(name, 0) for name in PER_LAYER}
    metrics["dictionary.io.self_ms"] = sum(raw.get(f"{fn}.self_ms", 0) for fn in IO_FUNCTIONS)
    scenarios = raw.get("worstcase.build_scenario.calls", 0)
    metrics["worstcase.calibration_runs_per_scenario"] = (
        raw.get("worstcase.calibration_runs", 0) / scenarios if scenarios else 0)
    attempted_trials = raw.get("sweep.trials_attempted", 0)
    metrics["sweep.accepted_share"] = (
        raw.get("sweep.trials_accepted", 0) / attempted_trials if attempted_trials else 0)
    round_s = {flag: statistics.fmean(sum(r) for r, t in zip(rounds, traced) if t == flag)
               for flag in (True, False)}
    metrics["trace.overhead_s"] = (traced_setup - plain_setup) + (round_s[True] - round_s[False])

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"traced_rounds": n, "metrics": metrics, "totals": total,
                   "spans": ["op span parent name start end".split()] + tracer.spans}, fh)
    return deterministic, sum(len(r) for r in rounds), failed, metrics


def result(deterministic, attempted, failed, values, units) -> dict:
    """The result line: correct only when no op failed and every round
    repeated the first round's results."""
    return {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--info", action="store_true", help="print machine info and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "greedycert", "__init__.py")):
        print(f"error: no greedycert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import greedycert

    import workloads
    import_s = time.perf_counter() - T_START

    if args.info:
        print(json.dumps(machine_info()))
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    seed = args.seed % 2 ** 63  # the package takes non-negative seeds
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        trace_path = os.path.join(workloads.OUT, f"trace-{args.workload}-{args.seed}.json")
        deterministic, attempted, failed, values = per_layer(
            workload, seed, args.seconds, greedycert, trace_path)
        units = PER_LAYER
    else:
        deterministic, attempted, failed, values = end_to_end(
            workload, seed, args.seconds, import_s)
        units = END_TO_END
    print(json.dumps(result(deterministic, attempted, failed, values, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
