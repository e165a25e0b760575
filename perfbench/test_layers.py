"""Checks of the benchmark's tracer, workloads and result line.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qsl  # noqa: E402
import qsl.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import MODULES, Tracer  # noqa: E402

SEED = 20260810


def _bindings() -> dict:
    """Every function-valued attribute and dict entry of the qsl modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "qsl" and not name.startswith("qsl."):
            continue
        for attr, obj in vars(module).items():
            if isinstance(obj, types.FunctionType):
                out[(name, attr)] = obj
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if isinstance(value, types.FunctionType):
                        out[(name, attr, key)] = value
    out["eig"] = qsl.HermitianOperator.__dict__["eig"]
    return out


def test_sweep_counts_match_report(tmp_path):
    (job,) = workloads.sweep_jobs(SEED, tmp_path)
    tracer = Tracer()
    with tracer.installed():
        code, stdout = job.run_inprocess()
    assert code == 0, stdout
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    counts = tracer.snapshot()
    assert report["cells"] == workloads.SWEEP_SYSTEMS * len(workloads.SWEEP_DELTAS)
    assert counts["bounds.first_passage.calls"] == report["cells"]
    assert counts["bounds.evaluate_bounds.calls"] == report["reached_cells"]
    assert counts["bounds.first_passage.not_reached"] == report["cells"] - report["reached_cells"]
    assert counts["cli.cmd_validity_sweep.calls"] == 1
    assert job.check(code, stdout).failed == 0


def test_install_patches_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        # re-imported names and the CLI handler table point at the wrappers
        assert qsl.sweeps.first_passage is qsl.bounds.first_passage is qsl.first_passage
        assert qsl.counterexamples.evaluate_bounds is qsl.bounds.evaluate_bounds
        assert qsl.cli.alpha is qsl.bounds.alpha
        assert qsl.bounds.sample_trajectory is qsl.evolution.sample_trajectory
        assert qsl.cli.HANDLERS["alpha-table"] is qsl.cli.cmd_alpha_table
        assert qsl.cli.main is before[("qsl.cli", "main")]
        operator = qsl.HermitianOperator([[1.0, 0.5], [0.5, -1.0]])
        operator.eig
        operator.eig
    assert _bindings() == before
    wrapped = {key for key in before if during[key] is not before[key]}
    assert ("qsl.bounds", "first_passage") in wrapped
    assert ("qsl.cli", "HANDLERS", "validity-sweep") in wrapped
    assert "eig" in wrapped
    assert not any(key[0] == "qsl.errors" for key in wrapped if isinstance(key, tuple))
    assert {name.split(".")[0] for name in tracer.stats} <= set(MODULES)
    assert tracer.snapshot()["linalg.eig.calls"] == 1


def test_question_counts(tmp_path):
    jobs = {job.label.split("-", 1)[1]: job for job in workloads.question_jobs(SEED, tmp_path)}
    tracer = Tracer()
    with tracer.installed():
        results = {kind: job.run_inprocess() for kind, job in jobs.items()}
    counts = tracer.snapshot()
    assert all(code == 0 for code, _ in results.values()), results
    assert counts["cli.cmd_alpha_table.calls"] == 1
    assert counts["bounds.alpha.calls"] >= counts["bounds.alpha.distinct"] > 0
    assert counts["counterexamples.run_ml_refutation.calls"] == 1
    assert counts["counterexamples.run_bd_nonsaturation.calls"] == 1
    # bd-gap and refute-ml sample one trajectory of QUESTION_SAMPLES each,
    # plus bd-gap's second copy; trajectory samples TRAJECTORY_SAMPLES
    samples = 3 * (workloads.QUESTION_SAMPLES + 1) + workloads.TRAJECTORY_SAMPLES + 1
    assert counts["evolution.sample_trajectory.samples"] == samples
    for kind, job in jobs.items():
        assert job.check(*results[kind]).failed == 0, kind


def test_crosscheck_steps(tmp_path):
    import crosscheck

    (job,) = workloads.crosscheck_jobs(SEED, tmp_path)
    cases = crosscheck.build_systems(qsl, SEED, workloads.CROSSCHECK_SYSTEMS)
    expected = sum(int(t // workloads.CROSSCHECK_STEP) + 1 for _, t in cases)
    tracer = Tracer()
    with tracer.installed():
        code, stdout = job.run_inprocess()
    counts = tracer.snapshot()
    assert code == 0, stdout
    assert counts["evolution.propagate_numeric.calls"] == workloads.CROSSCHECK_SYSTEMS
    assert counts["evolution.propagate_numeric.steps"] == expected
    outcome = job.check(code, stdout)
    assert outcome.failed == 0 and outcome.extra["max_distance"] <= crosscheck.TOLERANCE


def test_tail_percentile():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cross-check", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.CROSSCHECK_SYSTEMS
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
