"""Benchmark for fermigas: four workloads, oracle-checked, one command.

Usage, from the root of a checkout:

    python3 bench/run.py --workload phase_space --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli_reproduction --seed 1 --trace 1
    python3 bench/run.py --compare RESULTS_A RESULTS_B

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off. ``--trace 1`` runs an untraced, a traced and another
untraced pass and reports the per-layer metrics of the traced one. The last line of standard output is the
result object; the line before it is the environment. Every run also
appends its record to ``.bench_results/`` in the checkout, which is what
``--compare`` reads (see compare.py). See NOTES.md for the workloads,
the oracles and the known defects the counters surface.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_run")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

# setup_s: one discarded warm-up process, then the median of these
SETUP_REPEATS = 3

# counters that must repeat exactly between passes and between runs of one commit
DETERMINISTIC_COUNTS = (
    "oracle.basis_dim",
    "oracle.nnz",
    "husimi.gamma_from_measure.occupied_cols",
    "husimi.husimi_grid_table.modes",
    "vlasov.lift_table_mb",
    "cli.bytes_written",
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "FERMIGAS_THREADS")


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import fermigas from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fermigas", "__init__.py")):
        _fail(f"no fermigas sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import fermigas
    from fermigas import cli, df_measures, husimi, model, oracle, tf_solver, vlasov  # noqa: F401

    if os.path.dirname(os.path.abspath(fermigas.__file__)) != os.path.join(SRC, "fermigas"):
        _fail(f"fermigas imported from {fermigas.__file__}, not from {SRC}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fermigas", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _process_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def _warm_blas() -> int:
    """First BLAS and LAPACK calls of the process; returns the thread count after them."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(a + a.T)
    (a + 1j * a) @ (a - 1j * a)
    return _process_threads()


def _environment(seed: int, threads_after_blas: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "process_threads_after_first_blas_call": threads_after_blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# --- set-up time --------------------------------------------------------------


def _setup_probe(workload: str, seed: int):
    """Child side of the setup_s measurement: import, build inputs, report, exit."""
    _import_package()
    from spans import NullTracer
    from workloads import WORKLOADS

    workdir = os.path.join(WORK_DIR, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    WORKLOADS[workload](seed, workdir, NullTracer())
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start until the inputs are built, per probe process."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for idx in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            _fail(f"setup probe for {workload} exited {proc.returncode}")
        if idx > 0:  # the first process warms the file cache and is discarded
            times.append(ready)
    return times


# --- passes ---------------------------------------------------------------------


def _run_pass(workload, tracer):
    from workloads import Recorder

    rec = Recorder(tracer)
    start = time.perf_counter()
    workload.run_pass(rec)
    return rec, time.perf_counter() - start


def _counts_consistent(recs) -> bool:
    first = recs[0].counts
    for rec in recs[1:]:
        for key in DETERMINISTIC_COUNTS:
            if rec.counts.get(key) != first.get(key):
                print(f"bench: counter {key} differs between passes: {first.get(key)} vs {rec.counts.get(key)}", file=sys.stderr)
                return False
    return True


def _counts_repeat_across_runs(workload: str, seed: int, digest: str, counts: dict) -> bool:
    """Compare the deterministic counters with an earlier run of the same seed and sources."""
    path = os.path.join(RESULTS_DIR, "counts", f"{workload}-{seed}-{digest[:16]}.json")
    mine = {k: counts[k] for k in DETERMINISTIC_COUNTS if k in counts}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != mine:
            print(f"bench: counters differ from an earlier run: {earlier} vs {mine}", file=sys.stderr)
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(mine, fh, sort_keys=True)
    return True


def _peak_rss_mb(name: str, recs) -> float:
    if name == "cli_reproduction":
        return max(c["peak_rss_mb"] for rec in recs for c in rec.cli.values())
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seconds: float):
    """Untraced passes for ``seconds``: a pass starts only if it should fit."""
    from spans import NullTracer

    recs, times = [], []
    start = time.perf_counter()
    while True:
        rec, elapsed = _run_pass(workload, NullTracer())
        recs.append(rec)
        times.append(elapsed)
        used = time.perf_counter() - start
        if used + statistics.median(times) > seconds:
            break
    return recs, times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; 0 when the layer did not run."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        return 0.0
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def _per_layer(tracer, rec, traced_s, untraced_s, cpu_s, per_layer_spec) -> dict:
    from spans import HAMILTONIAN_BUILD, TRACED
    from workloads import CLI_COMMANDS, DensityFunctional, PhaseSpace, VariationalChain

    values = {}
    for layer, names in TRACED.items():
        for fn in names:
            values[f"{layer}.{fn}_s"] = tracer.total(f"{layer}.{fn}")
    values["oracle.hamiltonian_build_s"] = tracer.total(HAMILTONIAN_BUILD)
    values["model.config_build_s"] = tracer.total("model.config_build")
    values["bench.checks_s"] = tracer.total("bench.checks")

    for fn in ("gamma_from_measure", "husimi_grid_table", "frame_apply"):
        sizes = PhaseSpace.SIZES
        values[f"husimi.{fn}.slope"] = _slope(sizes, [tracer.total(f"husimi.{fn}", f"M={m}") for m in sizes])
    dims = [math.comb(VariationalChain.M, n) for n in VariationalChain.PARTICLES]
    values["oracle.ground_state.slope"] = _slope(
        dims, [tracer.total("oracle.ground_state", f"N={n}") for n in VariationalChain.PARTICLES]
    )
    ladder = DensityFunctional.LADDER
    values["tf_solver.minimize_1d_relaxed.slope"] = _slope(
        ladder, [tracer.total("tf_solver.minimize_1d_relaxed", f"ladder M={m}") for m in ladder]
    )

    for name, _ in CLI_COMMANDS:
        run = rec.cli.get(name, {})
        values[f"cli.{name}_s"] = run.get("s", 0.0)
        values[f"cli.{name}.peak_rss_mb"] = run.get("peak_rss_mb", 0.0)
    values["cli.import_s"] = rec.cli.get("import", {}).get("s", 0.0)

    for key, value in rec.counts.items():
        values[key] = value
    values["process.cpu_s"] = cpu_s
    values["process.tracing_overhead_s"] = traced_s - untraced_s
    values["failed_frac"] = rec.failed / rec.attempted
    return {m["name"]: _metric(values.get(m["name"], 0), m["unit"]) for m in per_layer_spec}


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        sys.path.insert(0, BENCH_DIR)
        from compare import compare

        return compare(args.compare[0], args.compare[1], _benchmark_spec())

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    spec = _benchmark_spec()
    _import_package()
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    setup_times = None if args.trace else _measure_setup(args.workload, args.seed)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else NullTracer()
        workload = workload_cls(args.seed, workdir, tracer)
        env = _environment(args.seed, _warm_blas())

        if args.trace:
            # untraced, traced, untraced: the overhead is taken against the
            # mean of the two untraced passes, so warm-up does not read as overhead
            before, before_s = _run_pass(workload, NullTracer())
            cpu0 = _cpu_seconds()
            with tracer.instrument():
                rec, traced_s = _run_pass(workload, tracer)
            cpu_s = _cpu_seconds() - cpu0
            after, after_s = _run_pass(workload, NullTracer())
            recs, times = [before, rec, after], [before_s, traced_s, after_s]
            metrics = _per_layer(tracer, rec, traced_s, 0.5 * (before_s + after_s), cpu_s, spec["per_layer"])
        else:
            recs, times = _measure(workload, args.seconds)
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(times),
                "peak_rss_mb": _peak_rss_mb(args.workload, recs),
            }
            metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    correct = (
        failed == 0
        and _counts_consistent(recs)
        and _counts_repeat_across_runs(args.workload, args.seed, env["source_sha256"], recs[-1].counts)
    )
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "pass_seconds": times,
        "setup_seconds": setup_times,
        "environment": env,
        "result": result,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    with open(os.path.join(RESULTS_DIR, f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
