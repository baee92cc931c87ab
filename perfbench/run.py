"""Closed-loop benchmark of the lglattice pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 35 --trace 0

One client runs jobs back to back in this process (a closed loop, no extra
threads).  Job i is a pure function of (seed, i); see workloads.py.  Each
output is checked, untimed, against the package's own oracles.  With
``--trace 0`` the run warms up on one block of jobs, then times whole blocks
and reports the end-to-end metrics; with ``--trace 1`` it
runs a fixed set of jobs untraced and then traced, and reports per-layer
metrics from the spans.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Replay helpers: ``--print-job I`` / ``--print-jobs N`` print job inputs as
JSON; ``--replay-job I`` runs and checks one job alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread unless the caller chose otherwise.  On a 2-vCPU VM the
# default (2 threads) made the same small many-body job take anywhere from 12
# to 125 ms and spread whole-run figures by 15-25 %; with one thread each
# stratum repeats within a few per cent and throughput is no lower, though
# dense eigh at dim 1001 is about 1.26x slower.  See README.md.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# stop adding blocks once the run (checks included) has lasted this long
WALL_GUARD_S = 120.0


def _checkout_or_exit() -> None:
    """Refuse to run without the package sources next to the benchmark."""
    needed = [ROOT / "src" / "lglattice" / "__init__.py", ROOT / "configs", ROOT / "tests" / "conftest.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a lglattice checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import lglattice

    if not Path(lglattice.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: lglattice imported from {lglattice.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)


def _blas_threads() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's BLAS before it is counted)

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (checkout has no .git)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


class Pass:
    """Outcome of running a list of jobs once."""

    def __init__(self):
        self.slots: list[int] = []
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def execute(workload, job: dict, result: Pass, tracer=None) -> None:
    """Run one job (timed), then check its outputs (untimed)."""
    out = failure = None
    if tracer is not None:
        tracer.begin_job(job["index"])
    start = time.perf_counter()
    try:
        out = workload.run(job)
    except Exception as exc:  # a failed operation is counted, not fatal
        failure = {"error": type(exc).__name__, "message": str(exc)}
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_job()
    result.slots.append(job["index"] % workload.block)
    result.latencies.append(elapsed)
    if out is not None and hasattr(workload, "failure"):
        failure = workload.failure(job, out)
    if failure is not None:
        result.failures.append({"job": job["index"], **failure})
    if out is not None:
        try:
            errors, stats = workload.check(job, out)
        except Exception as exc:
            errors, stats = [f"check raised {type(exc).__name__}: {exc}"], {}
        result.errors.extend(f"job {job['index']}: {e}" for e in errors)
        if tracer is not None:
            for key, value in stats.items():
                tracer.counts[key] += value


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to finishing job 0."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--first-job"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line != "done" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_block_rate(result: Pass) -> float:
    """Completed jobs per second of a block in which every stratum takes its
    median latency over the run.  Whole blocks run, so each stratum is
    present; the median keeps a job that met a slow spell of the host from
    moving the figure."""
    by_slot = defaultdict(list)
    for slot, latency in zip(result.slots, result.latencies):
        by_slot[slot].append(latency)
    ok_share = (result.attempted - len(result.failures)) / result.attempted
    return ok_share * len(by_slot) / sum(statistics.median(v) for v in by_slot.values())


def end_to_end(result: Pass, setup: list[float], peak_kb: int) -> dict:
    return {
        "jobs_per_s": {"value": median_block_rate(result), "unit": "jobs/s"},
        "job_p50_ms": {"value": 1e3 * statistics.median(result.latencies), "unit": "ms"},
        "job_p90_ms": {"value": _percentile_ms(result.latencies, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-job", type=int, metavar="I", help="print job I's inputs and exit")
    parser.add_argument("--print-jobs", type=int, metavar="N", help="print jobs 0..N-1 and exit")
    parser.add_argument("--replay-job", type=int, metavar="I", help="run and check job I alone")
    parser.add_argument("--first-job", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _checkout_or_exit()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, scratch)
        seed = args.seed

        if args.first_job:
            workload.run(workload.job(seed, 0))
            print("done", flush=True)
            return 0
        if args.print_job is not None or args.print_jobs is not None:
            indices = [args.print_job] if args.print_job is not None else range(args.print_jobs)
            for i in indices:
                print(json.dumps(workload.job(seed, i), sort_keys=True))
            return 0
        if args.replay_job is not None:
            job = workload.job(seed, args.replay_job)
            result = Pass()
            execute(workload, job, result)
            result.errors.extend(workload.finish())
            print(json.dumps({"job": job, "latency_ms": 1e3 * result.latencies[0],
                              "failures": result.failures, "errors": result.errors}, sort_keys=True))
            return 0 if not result.errors else 1

        env = environment(args.workload, seed)
        print("environment " + json.dumps(env, sort_keys=True), flush=True)
        wall_start = time.perf_counter()
        report = {"environment": env, "trace": args.trace}

        if args.trace == 0:
            setup = [setup_probe(args.workload, seed) for _ in range(SETUP_PROBES)]
            # one untimed block fills caches and finishes lazy imports; its
            # outputs are checked and its jobs count as attempted
            warmup = Pass()
            for index in range(workload.block):
                execute(workload, workload.job(seed, index), warmup)
            result = Pass()
            index = workload.block
            while True:
                for _ in range(workload.block):
                    execute(workload, workload.job(seed, index), result)
                    index += 1
                enough = result.busy >= args.seconds and result.attempted >= workloads.MIN_JOBS
                if enough or time.perf_counter() - wall_start > WALL_GUARD_S:
                    break
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result.errors.extend(workload.finish())
            metrics = end_to_end(result, setup, peak_kb)
            report["setup_probes_s"] = setup
            passes = [warmup, result]
        else:
            # each job runs twice, untraced and traced, alternating which goes
            # first so neither side always meets the warmer caches
            untraced, traced = Pass(), Pass()
            tracer = tracing.Tracer()
            for i in range(workload.trace_blocks * workload.block):
                job = workload.job(seed, i)
                for with_trace in (i % 2 == 1, i % 2 == 0):
                    if with_trace:
                        tracer.install(workloads.MODULES)
                        try:
                            execute(workload, job, traced, tracer)
                        finally:
                            tracer.uninstall()
                    else:
                        execute(workload, job, untraced)
            traced.errors.extend(workload.finish())
            values = tracing.layer_metrics(tracer, traced.busy, untraced.busy)
            metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in values.items()}
            trace_path = OUT / f"trace-{args.workload}-seed{seed}.json"
            tracer.write(trace_path)
            report["trace_file"] = str(trace_path.relative_to(ROOT))
            passes = [untraced, traced]

        attempted = sum(p.attempted for p in passes)
        failures = [f for p in passes for f in p.failures]
        errors = [e for p in passes for e in p.errors]
        correct = not errors
        report.update(attempted=attempted, failures=failures, errors=errors, metrics=metrics,
                      latencies_s=[p.latencies for p in passes], wall_s=time.perf_counter() - wall_start)
        (OUT / f"report-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )

        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(f"attempted {attempted}, failed {len(failures)}, correct {correct}")
        for failure in failures[:10]:
            print("failed " + json.dumps(failure, sort_keys=True))
        for error in errors[:20]:
            print("incorrect " + error)
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
