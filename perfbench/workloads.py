"""The benchmark's workloads: seeded inputs, the jobs that run them, and checks.

A workload is a round of jobs run one after another by one client (a closed
loop). Each job is one invocation of a public entry point: a `qsl` CLI
subcommand, or the RK4 cross-check script in this directory. A job runs
either as a child process (untraced runs) or in the benchmark's process
(traced runs), and its outputs are checked the same way in both cases.
Inputs depend only on the seed, never on the time a run is given.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CLI_ARGV = ["-m", "qsl.cli"]

SWEEP_COLUMNS = [
    "system", "kind", "dim", "delta", "reached", "tau",
    "mt", "ml", "bd", "mt_closed", "bd_closed", "worst_margin",
]
TRAJECTORY_COLUMNS = [
    "t", "fidelity", "exp_energy", "energy_uncertainty", "eps_min", "eps_max",
    "norm_energy", "dual_norm_energy", "bloch_x", "bloch_y", "bloch_z",
]
ALPHA_COLUMNS = ["delta", "alpha", "arccos_sqrt_delta", "endpoint_value"]

# The README defaults of `qsl validity-sweep`, written out so the work stays
# fixed if a default ever moves.
SWEEP_SYSTEMS = 200
SWEEP_DELTAS = [round(0.1 * k, 1) for k in range(10)]
SWEEP_SLACK = 1e-9

# Twenty-five systems make a round of about two seconds: more rounds in a run
# give a steadier median round than fewer, longer ones.
CROSSCHECK_SYSTEMS = 25
CROSSCHECK_STEP = 1e-3

# One round of the questions workload. The count and size of each kind are
# fixed so that every seed asks for the same amount of work; the seed draws
# the parameters. The large trajectories are the slowest questions: from
# five rounds on they hold the ten samples above the tail percentile. The
# light questions (refute-ml, bd-gap) are two thirds of the mix, so the
# median falls inside their group, not in the gap between a light question
# and an alpha-table, where it would jump from round to round. A short round
# gives more rounds, and so a steadier median round, in a run.
QUESTION_MIX = (("alpha-table", 1), ("refute-ml", 3), ("bd-gap", 3), ("trajectory", 2))
QUESTION_SAMPLES = 2000
TRAJECTORY_SAMPLES = 15000
ALPHA_DELTAS = 400  # enough alpha evaluations that compute shows beside set-up and writing


@dataclass
class Outcome:
    """Result of checking one job's outputs."""

    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    causes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Job:
    """One invocation of a public entry point, with its checks."""

    label: str
    argv: list[str]  # arguments after the interpreter, for a child process
    config: Path
    items: int
    run_inprocess: Callable[[], tuple[int, str]]  # (exit code, stdout)
    check: Callable[[int, str], Outcome]
    outputs: list[Path]

    @property
    def is_cli(self) -> bool:
        return self.argv[:2] == CLI_ARGV


def _write_config(work: Path, label: str, cfg: dict) -> Path:
    path = work / f"{label}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def _guarded(fn: Callable[[], int]) -> tuple[int, str]:
    """Run an entry point in-process the way a child would: exit code, stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = fn()
    except SystemExit as exc:  # argparse errors exit a child this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error exits a child with code 1
        return 1, out.getvalue() + traceback.format_exc()
    return code, out.getvalue()


def _scan_table(path: Path, width: int, failing: Callable[[list[str]], bool] | None):
    """sha256, header, rows, malformed rows and failing rows, in streaming passes.

    Streaming keeps the benchmark's own resident set small: a child spawned
    later inherits it as the floor of its peak RSS.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    rows = malformed = failed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for row in reader:
            rows += 1
            if len(row) != width:
                malformed += 1
            elif failing is not None and failing(row):
                failed += 1
    return digest.hexdigest(), header, rows, malformed, failed


def _cli_job(
    work: Path,
    label: str,
    kind: str,
    cfg: dict,
    table: str,
    columns: list[str],
    rows: int,
    items: int,
    claim: bool = True,
    cell_fails: Callable[[list[str]], bool] | None = None,
    report_check: Callable[[dict], str | None] | None = None,
) -> Job:
    config = _write_config(work, label, {"kind": kind, **cfg})
    prefix = work / label
    args = [kind, "--config", str(config), "--out", str(prefix)]
    report_path = Path(f"{prefix}_report.json")
    table_path = Path(f"{prefix}_{table}.csv")

    def run_inprocess() -> tuple[int, str]:
        import qsl.cli

        return _guarded(lambda: qsl.cli.main(args))

    def check(code: int, stdout: str) -> Outcome:
        if code != 0:
            return Outcome(items, causes=[f"{label}: exit code {code}: {stdout.strip()[:300]}"])
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            digest, header, body_rows, malformed, failed = _scan_table(table_path, len(columns), cell_fails)
        except (OSError, ValueError) as exc:
            return Outcome(items, causes=[f"{label}: unreadable output: {exc}"])
        digests = {f"{label}_{table}.csv": digest}
        problems = []
        if claim and report.get("claim_verified") is not True:
            problems.append("claim_verified is not true")
        if header != columns:
            problems.append(f"header {header} != {columns}")
        if body_rows != rows or malformed:
            problems.append(f"table shape: {body_rows} rows ({malformed} malformed), expected {rows}")
        if report_check is not None:
            problem = report_check(report)
            if problem:
                problems.append(problem)
        if problems:
            return Outcome(items, digests, [f"{label}: {p}" for p in problems])
        causes = [f"{label}: {failed} cells fail their check"] if failed else []
        return Outcome(failed, digests, causes)

    return Job(label, [*CLI_ARGV, *args], config, items, run_inprocess, check, [report_path, table_path])


def sweep_jobs(seed: int, work: Path) -> list[Job]:
    """The paper's 200-system bound-validity sweep at the README defaults."""
    cells = SWEEP_SYSTEMS * len(SWEEP_DELTAS)
    cfg = {
        "seed": seed,
        "systems": SWEEP_SYSTEMS,
        "dim_min": 2,
        "dim_max": 6,
        "deltas": SWEEP_DELTAS,
        "samples": 1000,
        "isolated_fraction": 0.3,
    }

    def report_check(report: dict) -> str | None:
        if report.get("violations") != 0 or report.get("cells") != cells:
            return f"violations {report.get('violations')}, cells {report.get('cells')} (expected 0, {cells})"
        return None

    margin = SWEEP_COLUMNS.index("worst_margin")

    def cell_fails(row: list[str]) -> bool:
        return bool(row[margin]) and float(row[margin]) > SWEEP_SLACK

    return [
        _cli_job(work, "sweep", "validity-sweep", cfg, "sweep", SWEEP_COLUMNS, cells, cells,
                 cell_fails=cell_fails, report_check=report_check)
    ]


def _levels(rng: random.Random) -> list[float]:
    count = rng.randint(3, 12)
    value = rng.uniform(-1.0, 1.0)
    levels = []
    for _ in range(count):
        levels.append(value)
        value += rng.uniform(0.2, 1.0)
    return levels


def _question(rng: random.Random, kind: str, first: bool) -> tuple[dict, str, list[str], int]:
    """Config, table name, columns and row count of one seeded question."""
    delta = 0.0 if first else rng.uniform(0.05, 0.9)
    if kind == "refute-ml":
        cfg = {"delta": delta, "L": rng.uniform(0.2, 2.0), "E": rng.uniform(0.5, 3.0),
               "margin": rng.uniform(0.05, 1.0), "samples": QUESTION_SAMPLES}
        return cfg, "trajectory", TRAJECTORY_COLUMNS, QUESTION_SAMPLES + 1
    if kind == "bd-gap":
        levels = _levels(rng)
        cfg = {"delta": delta, "levels": levels, "amplitudes": [rng.uniform(0.3, 1.0) for _ in levels],
               "samples": QUESTION_SAMPLES}
        return cfg, "trajectory", TRAJECTORY_COLUMNS, QUESTION_SAMPLES + 1
    if kind == "trajectory":
        cfg = {"E": rng.uniform(0.5, 3.0), "theta_deg": rng.uniform(10.0, 170.0),
               "t_max": rng.uniform(0.5, 3.0), "samples": TRAJECTORY_SAMPLES,
               "frame": rng.choice(["schrodinger", "rotating"]),
               "initial": rng.choice(["equator", "off_equator"])}
        return cfg, "trajectory", TRAJECTORY_COLUMNS, TRAJECTORY_SAMPLES + 1
    deltas = [delta] + [rng.uniform(0.0, 1.0) for _ in range(ALPHA_DELTAS - 1)]
    return {"deltas": deltas}, "alpha", ALPHA_COLUMNS, ALPHA_DELTAS


def question_jobs(seed: int, work: Path) -> list[Job]:
    """Single-question CLI runs, one child each, in a seeded order."""
    rng = random.Random(seed)
    plan = [(kind, n) for kind, count in QUESTION_MIX for n in range(count)]
    rng.shuffle(plan)
    jobs = []
    for index, (kind, n) in enumerate(plan):
        cfg, table, columns, rows = _question(rng, kind, n == 0)
        jobs.append(_cli_job(work, f"q{index:02d}-{kind}", kind, cfg, table, columns, rows, 1,
                             claim=kind != "trajectory"))
    return jobs


def crosscheck_jobs(seed: int, work: Path) -> list[Job]:
    """RK4 integration against the exact propagator on seeded systems."""
    config = _write_config(work, "crosscheck", {"seed": seed, "systems": CROSSCHECK_SYSTEMS,
                                                "step": CROSSCHECK_STEP})
    out = work / "crosscheck_result.json"
    script = HERE / "crosscheck.py"

    def run_inprocess() -> tuple[int, str]:
        import crosscheck
        import qsl

        return _guarded(lambda: crosscheck.run(qsl, str(config), str(out)) or 0)

    def check(code: int, stdout: str) -> Outcome:
        if code != 0:
            return Outcome(CROSSCHECK_SYSTEMS, causes=[f"crosscheck: exit code {code}: {stdout.strip()[:300]}"])
        try:
            result = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return Outcome(CROSSCHECK_SYSTEMS, causes=[f"crosscheck: unreadable output: {exc}"])
        if result.get("systems") != CROSSCHECK_SYSTEMS:
            return Outcome(CROSSCHECK_SYSTEMS, causes=[f"crosscheck: {result.get('systems')} systems reported"])
        extra = {"compare_s": result["compare_s"], "max_distance": result["max_distance"]}
        return Outcome(result["failed"], {"crosscheck_states": result["digest"]}, result["causes"], extra)

    argv = [str(script), "--config", str(config), "--out", str(out)]
    return [Job("crosscheck", argv, config, CROSSCHECK_SYSTEMS, run_inprocess, check, [out])]


WORKLOADS = {
    "sweep": sweep_jobs,
    "questions": question_jobs,
    "cross-check": crosscheck_jobs,
}
