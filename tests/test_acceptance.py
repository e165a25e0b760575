"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` (or -rA) to see the lines.
"""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from qsl import (
    HermitianOperator,
    PureState,
    RotatedHamiltonianSystem,
    alpha,
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    evaluate_bounds,
    expectation,
    first_passage,
    propagate_exact,
    propagate_numeric,
    run_bd_nonsaturation,
    run_ml_refutation,
    sample_trajectory,
    trace_distance,
    variance,
)
from qsl.cli import main as cli_main
from qsl.sweeps import (
    random_coupled_system,
    random_isolated_system,
    random_pure_state,
    random_hermitian,
)

from oracles import alpha_grid_oracle, density, random_saturating_two_level

DELTAS = tuple(round(0.1 * k, 1) for k in range(10))
ENERGIES = (0.5, 1.0, 2.0)


def report_line(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def refutation_grid():
    reports = []
    for delta in DELTAS:
        numerators = [math.acos(math.sqrt(delta)), (1.0 - delta) / 2.0, 0.1, 1.0]
        for big_l in numerators:
            if big_l <= 0.0:
                continue
            for energy in ENERGIES:
                reports.append(run_ml_refutation(delta, big_l, energy))
    return reports


def test_criterion_1_ml_refutation_grid(refutation_grid):
    worst_violation_margin = math.inf
    worst_drift = 0.0
    for report in refutation_grid:
        assert report.violated
        assert report.tau < report.hypothetical_bound - 1e-9
        worst_violation_margin = min(worst_violation_margin, report.margins["violation"])
        worst_drift = max(worst_drift, report.max_energy_drift)
    assert worst_drift <= 1e-9

    spot = run_ml_refutation(0.0, math.pi / 2, 1.0, margin=math.sqrt(3.0) - 1.0)
    spot_err = abs(spot.tau - math.pi / (2.0 * math.sqrt(3.0)))
    ok = worst_drift <= 1e-9 and spot_err <= 1e-6
    report_line(
        ok,
        "criterion 1 (Margolus-Levitin refutation grid)",
        f"{len(refutation_grid)} cells all violated, min margin {worst_violation_margin:.3e}, "
        f"max energy drift {worst_drift:.3e}, spot |tau - pi/(2 sqrt 3)| = {spot_err:.3e}",
    )
    assert ok


def test_criterion_2_mt_saturation_on_refutations(refutation_grid):
    worst = max(report.margins["mt_saturation"] for report in refutation_grid)
    ok = worst <= 1e-8
    report_line(
        ok,
        "criterion 2 (Mandelstam-Tamm saturation on geodesics)",
        f"max |tau - arccos(sqrt delta)/avg uncertainty| = {worst:.3e} over {len(refutation_grid)} runs",
    )
    assert ok


def test_criterion_3_bd_nonsaturation_gap():
    hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
    state = PureState.normalized([1.0, 1.0, 1.0])
    report = run_bd_nonsaturation(hamiltonian, state, 0.0)
    gap = report.mt_closed - report.bd_closed
    expected = (math.pi / 2.0) * (math.sqrt(1.5) - 1.0)
    gap_err = abs(gap - expected)

    sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
    traj = sample_trajectory(sys_, report.tau_actual, 1000)
    margin = bd_pointwise_margin(traj)

    ok = gap_err <= 1e-6 and margin > 0.0
    report_line(
        ok,
        "criterion 3 (Bhatia-Davies nonsaturation)",
        f"gap {gap:.9f} vs (pi/2)(sqrt(3/2)-1) = {expected:.9f} (err {gap_err:.3e}), "
        f"min pointwise margin {margin:.3e}",
    )
    assert ok


def test_criterion_4_simultaneous_saturation_isolated():
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    worst_tau = 0.0
    for k in range(100):
        sys_ = random_saturating_two_level(rng)
        delta = DELTAS[k % len(DELTAS)]
        spread = math.sqrt(variance(sys_.H, sys_.initial))
        tau = first_passage(sys_, delta, 1.05 * math.pi / spread)
        report = evaluate_bounds(sys_, delta, tau=tau)
        mt, bd = report.mt, report.bd
        worst_pair = max(worst_pair, abs(mt - bd))
        worst_tau = max(worst_tau, abs(mt - tau), abs(bd - tau))
    ok = worst_pair <= 1e-10 and worst_tau <= 1e-8
    report_line(
        ok,
        "criterion 4 (simultaneous saturation, isolated two-level)",
        f"max |mt - bd| = {worst_pair:.3e}, max |bound - tau| = {worst_tau:.3e} over 100 systems",
    )
    assert ok


def test_criterion_5_alpha_oracle_equivalence():
    deltas = np.linspace(0.0, 1.0, 101)
    worst_oracle = 0.0
    worst_endpoint = -math.inf
    strict_ok = True
    for d in deltas:
        d = float(d)
        value = alpha(d)
        worst_oracle = max(worst_oracle, abs(value - alpha_grid_oracle(d, 10**6)))
        worst_endpoint = max(worst_endpoint, value - (1.0 - math.sqrt(d)) * math.pi / 2.0)
        if 1e-3 <= d <= 1.0 - 1e-3 and not value < math.acos(math.sqrt(d)) - 1e-12:
            strict_ok = False
    end0 = abs(alpha(0.0) - math.pi / 2.0)
    end1 = abs(alpha(1.0))
    ok = (
        worst_oracle <= 1e-9
        and end0 <= 1e-12
        and end1 <= 1e-12
        and strict_ok
        and worst_endpoint <= 1e-12
    )
    report_line(
        ok,
        "criterion 5 (alpha oracle equivalence)",
        f"max |golden - grid| = {worst_oracle:.3e} on 101 deltas, alpha(0) err {end0:.1e}, "
        f"alpha(1) err {end1:.1e}, strict interior inequality {strict_ok}, "
        f"max excess over endpoint bound {worst_endpoint:.3e}",
    )
    assert ok


def test_criterion_6_propagator_cross_check():
    rng = np.random.default_rng(606)
    worst_distance = 0.0
    worst_drift = 0.0
    for k in range(100):
        dim = int(rng.integers(2, 7))
        if k % 10 < 7:
            sys_ = random_coupled_system(rng, dim)
        else:
            sys_ = random_isolated_system(rng, dim)
        t = float(rng.uniform(0.5, 2.5))
        exact = propagate_exact(sys_, t)
        numeric = propagate_numeric(sys_, t, 1e-3)
        worst_distance = max(worst_distance, trace_distance(exact, numeric))
        traj = sample_trajectory(sys_, t, 400)
        worst_drift = max(worst_drift, float(np.abs(traj.stats.occupations - traj.stats.occupations[0]).max()))
    ok = worst_distance <= 1e-8 and worst_drift <= 1e-9
    report_line(
        ok,
        "criterion 6 (propagator cross-check)",
        f"max trace distance exact vs step-integrated {worst_distance:.3e}, "
        f"max occupation drift {worst_drift:.3e} over 100 systems",
    )
    assert ok


def test_criterion_7_coupling_construction():
    rng = np.random.default_rng(707)
    worst_anticomm = 0.0
    worst_comm = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        hamiltonian = random_hermitian(rng, dim, spectral_radius=rng.uniform(0.5, 5.0))
        state = random_pure_state(rng, dim)
        coupling = build_coupling(hamiltonian, state)
        rho = density(state)
        anticomm_residual = coupling.entries @ rho + rho @ coupling.entries - coupling.entries
        worst_anticomm = max(worst_anticomm, float(np.linalg.norm(anticomm_residual)))
        effective = hamiltonian.entries - coupling.entries
        worst_comm = max(worst_comm, float(np.linalg.norm(effective @ rho - rho @ effective)))
    ok = worst_anticomm <= 1e-10 and worst_comm <= 1e-10
    report_line(
        ok,
        "criterion 7 (coupling construction)",
        f"max ||A rho + rho A - A|| = {worst_anticomm:.3e}, "
        f"max ||[H - A, rho]|| = {worst_comm:.3e} over 500 pairs",
    )
    assert ok


def test_criterion_8_figure_reproduction(tmp_path):
    # uncertainty vs angle at fixed normalized energy
    thetas = np.linspace(0.15, math.pi - 0.15, 120)
    worst_uncertainty = 0.0
    worst_energy = 0.0
    for energy in ENERGIES:
        for theta in thetas:
            sys_ = build_ml_family(energy, float(theta))
            spread = math.sqrt(variance(sys_.H, sys_.initial))
            worst_uncertainty = max(
                worst_uncertainty, abs(spread - energy / math.tan(theta / 2.0))
            )
            eps_min = sys_.initial_statistics.eps_min
            worst_energy = max(
                worst_energy, abs(expectation(sys_.H, sys_.initial) - eps_min - energy)
            )

    # rotating-frame circle for the off-equator start, through the CLI table
    cfg = tmp_path / "fig3.json"
    cfg.write_text(
        json.dumps(
            {
                "kind": "trajectory",
                "E": 1.0,
                "theta_deg": 30.0,
                "frame": "rotating",
                "initial": "off_equator",
                "t_max": 1.0,
                "samples": 1000,
            }
        )
    )
    prefix = str(tmp_path / "fig3")
    assert cli_main(["trajectory", "--config", str(cfg), "--out", prefix]) == 0
    rows = (tmp_path / "fig3_trajectory.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    bloch_x = np.array([float(line.split(",")[header.index("bloch_x")]) for line in rows[1:]])
    circle_spread = float(np.ptp(bloch_x))

    ok = worst_uncertainty <= 1e-10 and worst_energy <= 1e-10 and circle_spread <= 1e-9
    report_line(
        ok,
        "criterion 8 (figure reproduction)",
        f"max |uncertainty - E cot(theta/2)| = {worst_uncertainty:.3e}, "
        f"max |norm energy - E| = {worst_energy:.3e} on the angle grid; "
        f"rotating-frame bloch_x spread {circle_spread:.3e}",
    )
    assert ok


# sha256 of the default sweep's outputs; tests/test_golden.py says how to regenerate them
SWEEP_DIGESTS = {
    "report.json": "078460af5d5f9ef695122411476e530c8ec32e42ec2bbde0ccb8e58424eee2d1",
    "sweep.csv": "5e92f242383a2418c18a4c046494f4e6a49f7306e2b2eeabec2bc0b5c66d4e93",
}


def test_criterion_9_global_validity_sweep(tmp_path, monkeypatch):
    monkeypatch.delenv("QSL_SEED", raising=False)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"seed": 20260810}))
    prefix = tmp_path / "sweep"
    code = cli_main(["validity-sweep", "--config", str(cfg), "--out", str(prefix)])
    report = json.loads((tmp_path / "sweep_report.json").read_text())
    with open(tmp_path / "sweep_sweep.csv", newline="") as fh:
        margins = [float(row["worst_margin"]) for row in csv.DictReader(fh) if row["worst_margin"]]
    digests = {name: hashlib.sha256((tmp_path / f"sweep_{name}").read_bytes()).hexdigest() for name in SWEEP_DIGESTS}
    violations, reached = report["violations"], report["reached_cells"]
    ok = code == 0 and violations == 0 and reached > 1000 and digests == SWEEP_DIGESTS
    report_line(
        ok,
        "criterion 9 (global validity sweep)",
        f"{violations} violations over {reached} reached cells "
        f"({report['cells']} total), worst bound margin {max(margins):.3e}, "
        f"output digests {'match' if digests == SWEEP_DIGESTS else f'differ: {digests}'}",
    )
    assert ok
