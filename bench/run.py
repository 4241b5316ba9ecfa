#!/usr/bin/env python3
"""agqc benchmark: time to a verdict on its three workloads.

Usage, from the repository root:

    python3 bench/run.py --workload chain-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One process is one closed-loop client running one job at a time.  A run
sets up (imports agqc from ``src/``, generates the seeded job list, runs a
warm-up job) five times and reports the median set-up time, then makes
whole passes over the job list until ``--seconds`` have elapsed.  Each job's
output is checked outside its timed region.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends the first half of the run on
untraced passes and the second half on traced passes, and reports the
per-layer metrics per pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw results
and spans go to ``bench/out/``.
"""

import os

# One BLAS thread: the matrices here are at most 256 x 256, where threads
# add contention and run-to-run spread but no speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("chain-verify", "reorder-spectra", "symbolic-compile")
AGQC_MODULES = ("cli", "compiler", "gflow", "graph", "logical", "pauli", "sim")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "largest_job_s": "s",
    "smallest_job_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
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
        pass
    return "unknown (not a git checkout)"


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def import_agqc() -> SimpleNamespace:
    """Fresh import of agqc from the checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "agqc" or k.startswith("agqc.")]:
        del sys.modules[key]
    mods = {name: importlib.import_module(f"agqc.{name}") for name in AGQC_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "agqc":
        raise ImportError(f"agqc imported from {mods['cli'].__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


class Runner:
    """Whole passes over a job list, with per-job timings and checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # checks that found a wrong output
        self.failures: list[str] = []  # jobs that raised
        self._first_output: dict[str, object] = {}

    def run_pass(self, tracer=None) -> list[tuple[str, float]]:
        times = []
        for job in self.workload.jobs:
            self.attempted += 1
            try:
                t0 = perf_counter()
                if tracer is None:
                    out = job.run()
                else:
                    with tracer.job(job.name):
                        out = job.run()
                t1 = perf_counter()
            except (Exception, SystemExit) as exc:
                self.failed += 1
                self.failures.append(f"{job.name}: {exc!r}")
                continue
            times.append((job.name, t1 - t0))
            found = job.check(out)
            if job.cli:
                first = self._first_output.setdefault(job.name, out[:2])
                if out[:2] != first:
                    found.append("output differs from the first pass")
            self.problems += [f"{job.name}: {p}" for p in found]
        return times

    def run_until(self, deadline: float, tracer=None) -> list[list[tuple[str, float]]]:
        passes = [self.run_pass(tracer)]
        while perf_counter() < deadline:
            passes.append(self.run_pass(tracer))
        return passes


def slow_tail(values: list[float]) -> float:
    """90th percentile.  The speed of the shared host this was built on
    drifts by up to 2x over minutes; a run's median follows the speed of
    the moment, while its slow tail sits near the host's loaded floor
    whenever the run touched it, which most runs do."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def job_times(passes, name: str) -> list[float]:
    """Every execution of the named job."""
    return [t for p in passes for job, t in p if job == name]


def pass_seconds(passes) -> float:
    return statistics.median(sum(t for _, t in p) for p in passes)


def end_to_end(workload, passes, setups) -> dict[str, float]:
    seconds_per_job = [sum(t for _, t in p) / len(p) for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": 1.0 / slow_tail(seconds_per_job),
        "largest_job_s": slow_tail(job_times(passes, workload.largest)),
        "smallest_job_ms": 1e3 * slow_tail(job_times(passes, workload.smallest)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced) -> dict[str, tuple[float, str]]:
    from tracing import LAYERS, WORK

    n = len(traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
        if layer in WORK:
            key = f"{layer}.{WORK[layer][0]}"
            metrics[key] = (tracer.work[key] / n, "count")
    metrics["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(untraced), "s")
    return metrics


def run_workload(args) -> int:
    import jobs as jobs_mod

    if not (SRC / "agqc" / "__init__.py").is_file():
        print(f"error: no agqc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    machine = machine_record()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            agqc = import_agqc()
            workload = jobs_mod.WORKLOADS[args.workload](agqc, args.seed, workdir)
            warm = next(j for j in workload.jobs if j.name == workload.smallest)
            warm.run()
            setups.append(perf_counter() - t0)

        runner = Runner(workload)
        start = perf_counter()
        if args.trace:
            from tracing import Tracer

            untraced = runner.run_until(start + args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                passes = runner.run_until(start + args.seconds, tracer)
            finally:
                tracer.uninstall()
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
            metrics = per_layer(tracer, passes, untraced)
        else:
            passes = runner.run_until(start + args.seconds)
            metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(workload, passes, setups).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "setup_s": setups,
        "passes": passes, "problems": runner.problems, "failures": runner.failures,
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1)
    )
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    for line in runner.problems:
        print(f"wrong output: {line}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.jobs)} jobs, largest {workload.largest}, smallest {workload.smallest}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that memory stays apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
            merged["metrics"][f"{name}.{key}"] = metric
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
