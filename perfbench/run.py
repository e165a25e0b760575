#!/usr/bin/env python3
"""Benchmark runner for qsl. See perfbench/README.md.

    python3 perfbench/run.py --workload sweep --seed 20260810 --seconds 30 --trace 0

Runs one workload for about --seconds seconds in a closed loop (one client,
one job at a time), checks every output, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line before
it is a JSON `detail` record: environment, sample counts, output digests and
failure causes. The program is taken from src/ of the checkout that holds
this file; the benchmark writes only under .perfbench_work/ there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Job

BENCH_VERSION = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "question_p50_s": "s",
    "question_tail_s": "s",
}

# Layers whose cost or call count an optimisation is most likely to move.
PER_LAYER = {
    "linalg.eig.calls": "count",
    "linalg.eig.self_s": "s",
    "linalg.variance.calls": "count",
    "linalg.occupied_extrema.calls": "count",
    "evolution.sample_trajectory.calls": "count",
    "evolution.sample_trajectory.self_s": "s",
    "evolution.sample_trajectory.samples": "count",
    "evolution.fidelity_evals": "count",
    "evolution.propagate_exact.calls": "count",
    "evolution.propagate_exact.self_s": "s",
    "evolution.propagate_numeric.calls": "count",
    "evolution.propagate_numeric.self_s": "s",
    "evolution.propagate_numeric.steps": "count",
    "bounds.first_passage.calls": "count",
    "bounds.first_passage.self_s": "s",
    "bounds.first_passage.not_reached": "count",
    "bounds.evaluate_bounds.calls": "count",
    "bounds.evaluate_bounds.self_s": "s",
    "bounds.alpha.calls": "count",
    "bounds.alpha.self_s": "s",
    "bounds.alpha.distinct": "count",
    "bounds.alpha.distinct_ratio": "ratio",
    "bounds.time_average.calls": "count",
    "counterexamples.run_ml_refutation.calls": "count",
    "counterexamples.run_ml_refutation.self_s": "s",
    "counterexamples.run_bd_nonsaturation.calls": "count",
    "counterexamples.run_bd_nonsaturation.self_s": "s",
    "counterexamples.build_coupling.calls": "count",
    "sweeps.random_coupled_system.calls": "count",
    "sweeps.random_coupled_system.self_s": "s",
    "sweeps.random_isolated_system.calls": "count",
    "sweeps.random_isolated_system.self_s": "s",
    "sweeps.validity_sweep.self_s": "s",
    "cli.cmd_refute_ml.self_s": "s",
    "cli.cmd_bd_gap.self_s": "s",
    "cli.cmd_trajectory.self_s": "s",
    "cli.cmd_alpha_table.self_s": "s",
    "cli.cmd_validity_sweep.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "trace.coverage": "ratio",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "share.setup": "ratio",
    "share.write": "ratio",
    "share.compute": "ratio",
}

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OMP_WAIT_POLICY",
    "OMP_PROC_BIND",
)

SETUP_PROBES_PER_ROUND = 2
REFERENCE_PROBES_PER_ROUND = 1
REFERENCE_NOMINAL_S = 0.15  # the reference probe's time at the speed setup_s is scaled to
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_NOMINAL_S = 0.1  # the loop's time at the speed every reported time is scaled to
SETUP_PROBE = "import json, sys\nimport qsl.cli\nwith open(sys.argv[1]) as fh:\n    json.load(fh)\n"
REFERENCE_PROBE = "import numpy\n"
ENV_PROBE = """
import json, platform
import numpy
import qsl
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):
    blas = {}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": {"name": blas.get("name"), "version": blas.get("version")},
                  "qsl": getattr(qsl, "__version__", None), "qsl_file": qsl.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --------------------------------------------------------------- child runs
class Child:
    """A finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, argv: list[str], stdout_path: Path, env: dict):
        with open(stdout_path, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.stdout = stdout_path.read_text(encoding="utf-8", errors="replace")


def child_env() -> dict:
    """The caller's environment, with src/ on the path and no seed override."""
    env = {k: v for k, v in os.environ.items() if k != "QSL_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(work: Path, env: dict, seed: int) -> dict:
    probe = Child([sys.executable, "-c", ENV_PROBE], work / "env.out", env)
    if probe.code != 0:
        raise BenchError(f"cannot import qsl from {SRC}: {probe.stdout.strip()[-500:]}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    if SRC.resolve() not in Path(info.pop("qsl_file")).resolve().parents:
        raise BenchError(f"qsl was not imported from {SRC}")
    info.update(
        threads={name: os.environ.get(name) for name in THREAD_VARIABLES},
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        cpu=cpu_model(),
        commit=git_commit(),
        seed=seed,
        qsl_seed_env_ignored=os.environ.get("QSL_SEED"),
        benchmark_version=BENCH_VERSION,
    )
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_times(work: Path, env: dict, count: int, code: str, *args: str) -> list[float]:
    """Wall times of `count` fresh interpreters that run `code` and exit."""
    times = []
    for _ in range(count):
        child = Child([sys.executable, "-c", code, *args], work / "probe.out", env)
        if child.code != 0:
            raise BenchError(f"probe failed: {child.stdout.strip()[-500:]}")
        times.append(child.wall)
    return times


def setup_times(jobs: list[Job], work: Path, env: dict, count: int) -> list[float]:
    """Fresh interpreters that import qsl.cli and load the workload's config."""
    return probe_times(work, env, count, SETUP_PROBE, str(jobs[0].config))


# ------------------------------------------------------------------ checks
class Ledger:
    """Items attempted and failed, failure causes, and digests across rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.causes: list[str] = []
        self.digests: dict[str, str] = {}
        self.extra: dict[str, list] = {}

    def record(self, job: Job, code: int, stdout: str) -> int:
        """Check one job's outputs; return the number of its items that failed."""
        outcome = job.check(code, stdout)
        failed = outcome.failed
        for name, digest in outcome.digests.items():
            first = self.digests.setdefault(name, digest)
            if first != digest:
                failed = job.items
                outcome.causes.append(f"{name}: rerun is not byte-identical ({digest} != {first})")
        self.attempted += job.items
        self.failed += failed
        self.causes.extend(outcome.causes[: max(0, 20 - len(self.causes))])
        for key, value in outcome.extra.items():
            self.extra.setdefault(key, []).append(value)
        for path in job.outputs:
            path.unlink(missing_ok=True)
        return failed


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it.

    The tail is never taken below the median: with twenty samples or fewer
    the median is returned, as percentile 50. The maximum of a handful of
    rounds would only measure the host's noise.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        value = ordered[math.ceil(p / 100.0 * n) - 1]
        if sum(1 for v in ordered if v > value) >= 10:
            return value, p
    return statistics.median(ordered), 50


def keep_going(deadline: float, iterations: list[float]) -> bool:
    """Start another iteration only if a median one still fits before the deadline."""
    return perf_counter() + statistics.median(iterations) <= deadline


# ------------------------------------------------------------ untraced runs
def calibrate() -> float:
    """Time a fixed pure-Python loop: the reference for the host's current speed."""
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def measure(jobs: list[Job], work: Path, env: dict, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics, every time scaled to the nominal host speed.

    Each iteration runs one round of jobs, then the set-up and reference
    probes, with a calibration before and after each of the two. A round's
    times are multiplied by CALIBRATION_NOMINAL_S / mean(c0, c1), c0 and c1
    being the calibrations around it. The speed of a shared host drifts by
    up to 2x within a minute; the scaling cancels that drift, which no change
    to qsl can cause. Children run only between calibrations, so the
    reference never shares the processor with them.

    Set-up is mostly loading numpy, whose cost on a shared host moves apart
    from the loop's: it was seen 35% slower for minutes at an unchanged loop
    time. So setup_s is scaled instead by a reference probe that imports
    numpy alone: median(set-up probes) * REFERENCE_NOMINAL_S /
    median(reference probes). Spreading both probes over the run samples the
    host as often as the rounds do. Raw medians stay in the detail record.
    """
    items = sum(job.items for job in jobs)
    calibrations = [calibrate()]

    def scaled(t: float) -> float:
        return t * CALIBRATION_NOMINAL_S / statistics.mean(calibrations[-2:])

    setup_raw, reference, walls_raw, walls, cpus, rates, latencies, rss, iterations = ([] for _ in range(9))
    deadline = perf_counter() + seconds
    while True:
        begin = perf_counter()
        children = [(job, Child([sys.executable, *job.argv], work / f"{job.label}.out", env)) for job in jobs]
        walls_raw.append(perf_counter() - begin)
        calibrations.append(calibrate())
        walls.append(scaled(walls_raw[-1]))
        cpus.append(scaled(sum(c.cpu for _, c in children)))
        latencies.extend(scaled(c.wall) for _, c in children)
        rss.extend(c.rss_mb for _, c in children)
        failed = sum(ledger.record(job, child.code, child.stdout) for job, child in children)
        rates.append((items - failed) / walls[-1])
        setup_raw.extend(setup_times(jobs, work, env, SETUP_PROBES_PER_ROUND))
        reference.extend(probe_times(work, env, REFERENCE_PROBES_PER_ROUND, REFERENCE_PROBE))
        calibrations.append(calibrate())
        iterations.append(perf_counter() - begin)
        if not keep_going(deadline, iterations):
            break
    tail_value, tail_p = tail(latencies)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_raw) * REFERENCE_NOMINAL_S / statistics.median(reference),
        "peak_rss_mb": max(rss),
        "items_per_s": statistics.median(rates),
        "question_p50_s": statistics.median(latencies),
        "question_tail_s": tail_value,
    }
    samples = {
        "wall_s": len(walls),
        "cpu_s": len(cpus),
        "setup_s": len(setup_raw),
        "peak_rss_mb": len(rss),
        "items_per_s": len(rates),
        "question_p50_s": len(latencies),
        "question_tail_s": len(latencies),
    }
    # A spawned child starts from the benchmark's own peak RSS, so this is
    # the floor under peak_rss_mb.
    runner_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"samples": samples, "question_tail_percentile": tail_p, "runner_rss_mb": runner_rss_mb,
                     "items_per_round": items, "reference_probes": len(reference),
                     "raw": {"wall_s": statistics.median(walls_raw), "setup_s": statistics.median(setup_raw),
                             "reference_s": statistics.median(reference)},
                     "calibration_s": calibrations, "rounds_wall_s": walls, "rounds_cpu_s": cpus,
                     "setup_runs_s": setup_raw, "reference_runs_s": reference}


# ------------------------------------------------------------- traced runs
def run_inprocess(jobs: list[Job]) -> tuple[float, list[tuple[Job, int, str]]]:
    """One round in this process: summed job wall time and each job's result."""
    wall = 0.0
    results = []
    for job in jobs:
        start = perf_counter()
        code, stdout = job.run_inprocess()
        wall += perf_counter() - start
        results.append((job, code, stdout))
    return wall, results


def written(jobs: list[Job]) -> tuple[int, int]:
    """Table rows and bytes of every file the jobs' CLI runs wrote."""
    rows = size = 0
    for job in jobs:
        for path in job.outputs:
            if job.is_cli and path.exists():
                size += path.stat().st_size
                if path.suffix == ".csv":
                    with open(path, "rb") as fh:
                        rows += sum(1 for _ in fh) - 1
    return rows, size


def measure_traced(jobs: list[Job], work: Path, env: dict, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    from layers import Tracer

    setup = statistics.median(setup_times(jobs, work, env, 3))
    os.environ.pop("QSL_SEED", None)
    sys.path.insert(0, str(SRC))
    import qsl.cli  # noqa: F401  (imported before timing, as a warm process would have it)

    untraced, traced, snapshots, coverage = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        wall, results = run_inprocess(jobs)
        untraced.append(wall)
        for result in results:
            ledger.record(*result)
        tracer = Tracer()
        with tracer.installed():
            wall, results = run_inprocess(jobs)
        traced.append(wall)
        coverage.append(tracer.top_s / wall)
        snapshots.append(tracer.snapshot())
        if len(snapshots) == 1:
            rows_written, bytes_written = written(jobs)
        for result in results:
            ledger.record(*result)
        if not keep_going(deadline, [u + t for u, t in zip(untraced, traced)]):
            break

    def counts(snapshot: dict) -> dict:
        return {k: v for k, v in snapshot.items() if not k.endswith("_s")}

    names = sorted(set().union(*snapshots))
    layers = {k: statistics.median(s.get(k, 0) for s in snapshots) for k in names}
    layer = {name: layers.get(name, 0) for name in PER_LAYER}
    calls = layer["bounds.alpha.calls"]
    layer["bounds.alpha.distinct_ratio"] = layer["bounds.alpha.distinct"] / calls if calls else 0.0
    layer["cli.rows_written"], layer["cli.bytes_written"] = rows_written, bytes_written

    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced)
    layer["trace.coverage"] = statistics.median(coverage)
    layer["trace.traced_wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall

    self_s = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    total = len(jobs) * setup + traced_wall
    layer["share.setup"] = len(jobs) * setup / total
    layer["share.write"] = sum(v for k, v in self_s.items() if k.startswith("cli.")) / total
    layer["share.compute"] = sum(v for k, v in self_s.items() if not k.startswith("cli.")) / total

    return layer, {"samples": {"traced_rounds": len(traced), "untraced_rounds": len(untraced)},
                   "counts_stable": all(counts(s) == counts(snapshots[0]) for s in snapshots),
                   "setup_s": setup, "layers": layers,
                   "traced_rounds_s": traced, "untraced_rounds_s": untraced}


# -------------------------------------------------------------------- main
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsl" / "cli.py").is_file():
        print(f"qsl sources not found under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        info = environment(work, env, args.seed)
        jobs = WORKLOADS[args.workload](args.seed, work)
        ledger = Ledger()
        if args.trace:
            values, detail = measure_traced(jobs, work, env, args.seconds, ledger)
            units = PER_LAYER
        else:
            values, detail = measure(jobs, work, env, args.seconds, ledger)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    correct = ledger.failed == 0
    detail.update(
        workload=args.workload,
        trace=args.trace,
        seconds=args.seconds,
        environment=info,
        failed_frac=ledger.failed / ledger.attempted,
        causes=ledger.causes,
        digests=ledger.digests,
        job_extra={k: v[:3] for k, v in ledger.extra.items()},
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
