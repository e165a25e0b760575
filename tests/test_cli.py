import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsl
from qsl import cli
from qsl.cli import main

from oracles import write_csv_reference, write_json_reference

# The documented trajectory column order (README, "Command line").
TRAJECTORY_COLUMNS = [
    "t", "fidelity", "exp_energy", "energy_uncertainty", "eps_min", "eps_max",
    "norm_energy", "dual_norm_energy", "bloch_x", "bloch_y", "bloch_z",
]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def column(header, rows, name):
    idx = header.index(name)
    return np.array([float(row[idx]) for row in rows])


class TestRefuteMl:
    def test_canonical_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "refute.json",
            {
                "kind": "refute-ml",
                "delta": 0.0,
                "L": math.pi / 2,
                "E": 1.0,
                "margin": math.sqrt(3.0) - 1.0,
            },
        )
        prefix = str(tmp_path / "run")
        assert main(["refute-ml", "--config", cfg, "--out", prefix]) == 0

        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["violated"] is True
        assert report["claim_verified"] is True
        assert abs(report["tau"] - math.pi / (2 * math.sqrt(3.0))) <= 1e-6
        assert abs(report["hypothetical_bound"] - math.pi / 2) <= 1e-12

        header, rows = read_csv(tmp_path / "run_trajectory.csv")
        assert header == TRAJECTORY_COLUMNS
        norm_energy = column(header, rows, "norm_energy")
        np.testing.assert_allclose(norm_energy, 1.0, atol=1e-9)

    def test_small_numerator_run(self, tmp_path):
        cfg = write_config(
            tmp_path, "refute.json", {"delta": 0.0, "L": 0.1, "E": 1.0}
        )
        prefix = str(tmp_path / "small")
        assert main(["refute-ml", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "small_report.json").read_text())
        assert report["violated"] is True
        assert report["spec"]["theta"] < 0.2

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = write_config(
            tmp_path, "refute.json", {"delta": 0.25, "L": 1.0, "E": 2.0, "seed": 5}
        )
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        assert main(["refute-ml", "--config", cfg, "--out", first]) == 0
        assert main(["refute-ml", "--config", cfg, "--out", second]) == 0
        assert (tmp_path / "a_trajectory.csv").read_bytes() == (tmp_path / "b_trajectory.csv").read_bytes()
        assert (tmp_path / "a_report.json").read_bytes() == (tmp_path / "b_report.json").read_bytes()

    @pytest.mark.parametrize("energy", [1e5, 2e5])
    def test_large_energy_is_refuted(self, energy, tmp_path):
        cfg = write_config(tmp_path, "refute.json", {"delta": 0.0, "L": 1.0, "E": energy, "samples": 20})
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "big")]) == 0

    def test_small_hypothesis_is_refuted(self, tmp_path, capsys):
        # |<H>| is about 1.5e9 here, far above the normalized energy of 1 that energy_conserved checks
        cfg = write_config(tmp_path, "refute.json", {"delta": 0.0, "L": 1e-6, "E": 1.0})
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "small")]) == 0, capsys.readouterr().out

    def test_delta_one_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"delta": 1.0, "L": 1.0, "E": 1.0})
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainError"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad.json", {"delta": 0.0, "L": 1.0, "E": 1.0, "turbo": True}
        )
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ConfigError"
        assert "turbo" in err["error"]["message"]

    def test_kind_mismatch_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "bad.json", {"kind": "bd-gap", "delta": 0.0, "L": 1.0, "E": 1.0}
        )
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestBdGap:
    def test_canonical_gap(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "gap.json",
            {"kind": "bd-gap", "delta": 0.0, "levels": [0.0, 1.0, 2.0]},
        )
        prefix = str(tmp_path / "gap")
        assert main(["bd-gap", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "gap_report.json").read_text())
        assert abs(report["report"]["mt_closed"] - (math.pi / 2) * math.sqrt(1.5)) <= 1e-6
        assert abs(report["report"]["bd_closed"] - math.pi / 2) <= 1e-6
        assert report["gap"] > 0.35
        assert report["min_pointwise_bd_margin"] > 0.0
        assert report["claim_verified"] is True

    def test_two_levels_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gap.json", {"delta": 0.0, "levels": [0.0, 1.0]})
        assert main(["bd-gap", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "InsufficientLevels"

    def test_unreachable_window_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "gap.json",
            {"delta": 0.0, "levels": [0.0, 1.0, 2.0], "t_max": 0.05},
        )
        assert main(["bd-gap", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "NotReached"

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_energy_offset_keeps_the_passage(self, offset, tmp_path, capsys):
        # an offset on every level shifts <H>, but not the coupling, the geodesic or tau
        taus = []
        for c in (0.0, offset):
            cfg = write_config(tmp_path, "gap.json", {"delta": 0.0, "levels": [c, c + 1.0, c + 2.0]})
            assert main(["bd-gap", "--config", cfg, "--out", str(tmp_path / "gap")]) == 0, capsys.readouterr().out
            taus.append(json.loads((tmp_path / "gap_report.json").read_text())["report"]["tau_actual"])
        assert taus[1] == pytest.approx(taus[0], rel=1e-10, abs=0.0)

    def test_bhatia_davies_products_on_a_large_energy_scale(self, tmp_path):
        # (eps_max - <H>)(<H> - eps_min) is about 1e400 here: unscaled, bd_closed read 0 and the margin NaN;
        # only the absolute 1e-6 gap tolerance fails now, on a gap of about 1.8e-201
        cfg = write_config(tmp_path, "gap.json", {"delta": 0.5, "levels": [1e200, 0.0, 2e200], "samples": 200})
        assert main(["bd-gap", "--config", cfg, "--out", str(tmp_path / "gap")]) == 1
        report = json.loads((tmp_path / "gap_report.json").read_text())
        assert report["report"]["avg_bd_factor"] == pytest.approx(1e200, rel=1e-12, abs=0.0)
        assert report["report"]["bd_closed"] == pytest.approx(math.pi / 4 / 1e200, rel=1e-12, abs=0.0)
        assert 0.0 < report["gap"] < 1e-200
        assert report["min_pointwise_bd_margin"] == math.inf
        assert report["failed_rules"] == ["gap_open"]


class TestTrajectory:
    def test_rotating_frame_circle(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "traj.json",
            {
                "kind": "trajectory",
                "E": 1.0,
                "theta_deg": 30.0,
                "frame": "rotating",
                "initial": "off_equator",
                "t_max": 1.0,
                "samples": 800,
            },
        )
        prefix = str(tmp_path / "rf")
        assert main(["trajectory", "--config", cfg, "--out", prefix]) == 0
        header, rows = read_csv(tmp_path / "rf_trajectory.csv")
        bloch_x = column(header, rows, "bloch_x")
        assert np.ptp(bloch_x) <= 1e-9
        assert abs(bloch_x[0] - 0.5) <= 1e-12
        bloch_y = column(header, rows, "bloch_y")
        assert np.ptp(bloch_y) > 0.1

    def test_schrodinger_frame_equator(self, tmp_path):
        cfg = write_config(
            tmp_path, "traj.json", {"E": 1.0, "theta_deg": 60.0, "t_max": 0.9}
        )
        prefix = str(tmp_path / "sch")
        assert main(["trajectory", "--config", cfg, "--out", prefix]) == 0
        header, rows = read_csv(tmp_path / "sch_trajectory.csv")
        # the family initial state rides the equator: bloch_z stays 0
        fidelity = column(header, rows, "fidelity")
        times = column(header, rows, "t")
        rate = 1.0 / math.tan(math.radians(30.0))
        np.testing.assert_allclose(fidelity, np.cos(rate * times) ** 2, atol=1e-9)

    def test_json_format(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "traj.json",
            {"E": 1.0, "theta_deg": 45.0, "t_max": 0.5, "samples": 10, "format": "json"},
        )
        prefix = str(tmp_path / "js")
        assert main(["trajectory", "--config", cfg, "--out", prefix]) == 0
        payload = json.loads((tmp_path / "js_trajectory.json").read_text())
        assert payload["columns"] == TRAJECTORY_COLUMNS
        assert len(payload["rows"]) == 11

    def test_small_angle(self, tmp_path):
        # 1 - cos(theta) rounds to 0 at this angle, so the family's mu must not divide by it
        cfg = write_config(tmp_path, "traj.json", {"E": 1.0, "theta_deg": 5e-7, "samples": 10})
        prefix = str(tmp_path / "small")
        assert main(["trajectory", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "small_report.json").read_text())
        rate = 1.0 / math.tan(math.radians(5e-7) / 2.0)
        assert report["energy_uncertainty"] == pytest.approx(rate, rel=1e-12, abs=0.0)

    def test_large_energy_scale(self, tmp_path):
        # the centred energies square past the float range at this scale unless they are scaled first
        cfg = write_config(tmp_path, "traj.json", {"E": 1e160, "theta_deg": 45.0, "samples": 4})
        prefix = str(tmp_path / "large")
        assert main(["trajectory", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "large_report.json").read_text())
        assert report["energy_uncertainty"] == pytest.approx(1e160 / math.tan(math.pi / 8.0), rel=1e-12, abs=0.0)
        header, rows = read_csv(tmp_path / "large_trajectory.csv")
        assert np.isfinite(column(header, rows, "energy_uncertainty")).all()


class TestAlphaTable:
    def test_three_point_grid(self, tmp_path):
        cfg = write_config(tmp_path, "alpha.json", {"deltas": [0.0, 0.5, 1.0]})
        prefix = str(tmp_path / "al")
        assert main(["alpha-table", "--config", cfg, "--out", prefix]) == 0
        header, rows = read_csv(tmp_path / "al_alpha.csv")
        assert header == ["delta", "alpha", "arccos_sqrt_delta", "endpoint_value"]
        assert len(rows) == 3
        first = [float(x) for x in rows[0]]
        np.testing.assert_allclose(first, [0.0, math.pi / 2, math.pi / 2, math.pi / 2], atol=1e-12)
        mid = [float(x) for x in rows[1]]
        assert abs(mid[1] - 0.416252936011857) <= 1e-9
        assert abs(mid[3] - (1 - math.sqrt(0.5)) * math.pi / 2) <= 1e-12
        last = [float(x) for x in rows[2]]
        np.testing.assert_allclose(last, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_dense_grid_flags(self, tmp_path):
        cfg = write_config(tmp_path, "alpha.json", {"grid_points": 1001})
        prefix = str(tmp_path / "dense")
        assert main(["alpha-table", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "dense_report.json").read_text())
        assert report["alpha_nonincreasing"] is True
        assert report["strictly_below_arccos"] is True
        assert report["below_endpoint_bound"] is True
        header, rows = read_csv(tmp_path / "dense_alpha.csv")
        values = column(header, rows, "alpha")
        assert np.all(np.diff(values) <= 1e-12)

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "alpha.json", {"deltas": []})
        assert main(["alpha-table", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ConfigError"

    def test_missing_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "alpha.json", {})
        assert main(["alpha-table", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestValiditySweep:
    def test_small_sweep_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {"seed": 11, "systems": 8, "samples": 300, "deltas": [0.0, 0.3, 0.7]},
        )
        prefix = str(tmp_path / "sw")
        assert main(["validity-sweep", "--config", cfg, "--out", prefix]) == 0
        report = json.loads((tmp_path / "sw_report.json").read_text())
        assert report["violations"] == 0
        assert report["reached_cells"] > 0
        header, rows = read_csv(tmp_path / "sw_sweep.csv")
        assert header[:5] == ["system", "kind", "dim", "delta", "reached"]

    def test_one_violating_cell_exits_one(self, tmp_path, first_cell_violates):
        cfg = write_config(tmp_path, "sweep.json", {"seed": 1, "systems": 2, "deltas": [0.5], "samples": 20})
        assert main(["validity-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        report = json.loads((tmp_path / "x_report.json").read_text())
        assert report["violations"] == 1
        assert report["claim_verified"] is False

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path, "sweep.json", {"seed": 11, "systems": 3, "samples": 200, "deltas": [0.5]}
        )
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["validity-sweep", "--config", cfg, "--out", a]) == 0
        monkeypatch.setenv("QSL_SEED", "99")
        assert main(["validity-sweep", "--config", cfg, "--out", b]) == 0
        report_b = json.loads((tmp_path / "b_report.json").read_text())
        assert report_b["seed"] == 99
        assert (tmp_path / "a_sweep.csv").read_bytes() != (tmp_path / "b_sweep.csv").read_bytes()

    def test_deeply_nested_env_seed_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSL_SEED", "[" * 100_000)
        cfg = write_config(tmp_path, "sweep.json", {"seed": 11, "systems": 2, "samples": 20})
        assert main(["validity-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConfigError"

    def test_bad_delta_is_domain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.json", {"seed": 1, "systems": 2, "deltas": [0.5, 1.5]})
        assert main(["validity-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DomainError"
        assert not (tmp_path / "x_report.json").exists()

    def test_missing_seed_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {"systems": 2})
        assert main(["validity-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("seed, env_seed, shown", [(-1, None, -1), (11, "-3", -3)])
    def test_negative_seed_rejected(self, seed, env_seed, shown, tmp_path, capsys, monkeypatch):
        # numpy's default_rng refuses negative seeds; the config check must come first
        if env_seed is None:
            monkeypatch.delenv("QSL_SEED", raising=False)
        else:
            monkeypatch.setenv("QSL_SEED", env_seed)
        cfg = write_config(tmp_path, "sweep.json", {"seed": seed, "systems": 2, "samples": 20})
        assert main(["validity-sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err == {"error": {"type": "ConfigError", "message": f"'seed' must be >= 0, got {shown}"}}
        assert not list(tmp_path.glob("x_*"))

    def test_seed_is_free_where_unused(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "refute.json", {"delta": 0.0, "L": 1.0, "E": 1.0, "samples": 20, "seed": -1})
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("QSL_SEED", "-3")
        assert main(["refute-ml", "--config", cfg, "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("trajectory", {"E": 1.0, "theta_deg": 45.0, "t_max": math.inf}),
        ("refute-ml", {"delta": 0.0, "L": 1.0, "E": math.nan}),
        ("refute-ml", {"delta": 0.0, "L": 10**400, "E": 1.0}),
        ("bd-gap", {"delta": 0.0, "levels": [0.0, 1.0, -math.inf]}),
        ("alpha-table", {"deltas": [0.5, math.nan]}),
    ],
)
def test_non_finite_numbers_rejected(kind, payload, tmp_path, capsys):
    # json.dumps writes NaN and Infinity, which json.load accepts
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"
    assert not list(tmp_path.glob("x_*"))


REFUTE = {"delta": 0.0, "L": 1.0, "E": 1.0}
TRAJ = {"E": 1.0, "theta_deg": 45.0}
SWEEP = {"seed": 1, "systems": 2}
FRAMES = "('schrodinger', 'rotating')"


# Each bad config, its error type and the full message. Where a config has
# several faults, the order of the checks decides which one is reported.
@pytest.mark.parametrize(
    "kind, payload, env_seed, error, message",
    [
        # JSON null, one key of every kind
        ("refute-ml", {**REFUTE, "delta": None}, None, "ConfigError", "missing numeric value for 'delta'"),
        ("refute-ml", {**REFUTE, "margin": None}, None, "ConfigError", "missing numeric value for 'margin'"),
        ("refute-ml", {**REFUTE, "samples": None}, None, "ConfigError", "'samples' must be an integer, got None"),
        ("bd-gap", {"delta": 0.0, "levels": None}, None, "ConfigError",
         "'levels' must be a non-empty array of numbers"),
        ("bd-gap", {"delta": 0.0, "amplitudes": None}, None, "ConfigError",
         "'amplitudes' must be a non-empty array of numbers"),
        ("bd-gap", {"delta": 0.0, "t_max": None}, None, "ConfigError", "missing numeric value for 't_max'"),
        ("trajectory", {**TRAJ, "frame": None}, None, "ConfigError",
         f"'frame' must be one of {FRAMES}, got None"),
        ("trajectory", {**TRAJ, "initial": None}, None, "ConfigError",
         "'initial' must be one of ('equator', 'off_equator'), got None"),
        ("trajectory", {**TRAJ, "t_max": None}, None, "ConfigError", "missing numeric value for 't_max'"),
        ("alpha-table", {"deltas": None}, None, "ConfigError", "'deltas' must be a non-empty array of numbers"),
        ("alpha-table", {"grid_points": None}, None, "ConfigError", "'grid_points' must be an integer, got None"),
        ("validity-sweep", {**SWEEP, "seed": None}, None, "ConfigError", "'seed' must be an integer, got None"),
        ("validity-sweep", {**SWEEP, "isolated_fraction": None}, None, "ConfigError",
         "missing numeric value for 'isolated_fraction'"),
        # booleans and strings where numbers belong
        ("refute-ml", {**REFUTE, "L": True}, None, "ConfigError", "'L' must hold finite numbers only, got True"),
        ("refute-ml", {**REFUTE, "E": "1"}, None, "ConfigError", "'E' must hold finite numbers only, got '1'"),
        ("refute-ml", {**REFUTE, "samples": True}, None, "ConfigError", "'samples' must be an integer, got True"),
        ("refute-ml", {**REFUTE, "samples": 20.0}, None, "ConfigError", "'samples' must be an integer, got 20.0"),
        ("bd-gap", {"delta": 0.0, "levels": [0.0, True, 2.0]}, None, "ConfigError",
         "'levels' must hold finite numbers only, got True"),
        ("bd-gap", {"delta": 0.0, "levels": 1.0}, None, "ConfigError",
         "'levels' must be a non-empty array of numbers"),
        ("trajectory", {**TRAJ, "frame": True}, None, "ConfigError", f"'frame' must be one of {FRAMES}, got True"),
        ("alpha-table", {"grid_points": False}, None, "ConfigError", "'grid_points' must be an integer, got False"),
        ("validity-sweep", {**SWEEP, "seed": False}, None, "ConfigError", "'seed' must be an integer, got False"),
        ("validity-sweep", {**SWEEP, "isolated_fraction": True}, None, "ConfigError",
         "'isolated_fraction' must hold finite numbers only, got True"),
        ("validity-sweep", {**SWEEP, "deltas": [0.5, False]}, None, "ConfigError",
         "'deltas' must hold finite numbers only, got False"),
        # every bound
        ("refute-ml", {**REFUTE, "samples": 1}, None, "ConfigError", "'samples' must be >= 2, got 1"),
        ("bd-gap", {"delta": 0.0, "samples": 1}, None, "ConfigError", "'samples' must be >= 2, got 1"),
        ("trajectory", {**TRAJ, "samples": 1}, None, "ConfigError", "'samples' must be >= 2, got 1"),
        ("trajectory", {**TRAJ, "t_max": -1}, None, "ConfigError", "'t_max' must be >= 0.0, got -1.0"),
        ("trajectory", {**TRAJ, "t_max": 0}, None, "ConfigError", "'t_max' must be positive"),
        ("alpha-table", {"grid_points": 0}, None, "ConfigError", "'grid_points' must be >= 1, got 0"),
        ("validity-sweep", {**SWEEP, "systems": 0}, None, "ConfigError", "'systems' must be >= 1, got 0"),
        ("validity-sweep", {**SWEEP, "dim_min": 1}, None, "ConfigError", "'dim_min' must be >= 2, got 1"),
        ("validity-sweep", {**SWEEP, "dim_min": 4, "dim_max": 3}, None, "ConfigError",
         "'dim_max' must be >= 4, got 3"),
        ("validity-sweep", {**SWEEP, "dim_min": 7}, None, "ConfigError", "'dim_max' must be >= 7, got 6"),
        ("validity-sweep", {**SWEEP, "samples": 1}, None, "ConfigError", "'samples' must be >= 2, got 1"),
        ("validity-sweep", {**SWEEP, "isolated_fraction": -0.1}, None, "ConfigError",
         "'isolated_fraction' must be >= 0.0, got -0.1"),
        ("validity-sweep", {**SWEEP, "isolated_fraction": 1.5}, None, "ConfigError",
         "'isolated_fraction' must be <= 1.0, got 1.5"),
        # key sets, the config file and the environment
        ("refute-ml", {"delta": 0.0, "turbo": 1}, None, "ConfigError", "unknown config keys: ['turbo']"),
        ("refute-ml", {"delta": 0.0}, None, "ConfigError", "missing required config keys: ['E', 'L']"),
        ("refute-ml", {**REFUTE, "kind": "bd-gap", "turbo": 1}, None, "ConfigError",
         "config kind 'bd-gap' does not match subcommand 'refute-ml'"),
        ("refute-ml", [1.0], None, "ConfigError", "config must be a JSON object"),
        ("validity-sweep", {"systems": 2}, None, "ConfigError", "missing required config keys: ['seed']"),
        ("validity-sweep", SWEEP, "x", "ConfigError", "QSL_SEED must be an integer, got 'x'"),
        ("alpha-table", {}, None, "ConfigError", "alpha-table needs 'deltas' or 'grid_points'"),
        ("alpha-table", {"deltas": []}, None, "ConfigError", "'deltas' must be a non-empty array of numbers"),
        ("bd-gap", {"delta": 0.0, "amplitudes": [1.0, 1.0]}, None, "ConfigError",
         "'amplitudes' must have the same length as 'levels'"),
        # several faults: the first check in order wins
        ("bd-gap", {"delta": 0.0, "amplitudes": [1.0, 1.0], "samples": 1}, None, "ConfigError",
         "'amplitudes' must have the same length as 'levels'"),
        ("bd-gap", {"delta": None, "levels": []}, None, "ConfigError", "missing numeric value for 'delta'"),
        ("bd-gap", {"delta": 0.0, "samples": 1, "t_max": None}, None, "ConfigError",
         "'samples' must be >= 2, got 1"),
        ("alpha-table", {"deltas": [], "grid_points": 5}, None, "ConfigError",
         "give either 'deltas' or 'grid_points', not both"),
        ("alpha-table", {"deltas": None, "grid_points": None}, None, "ConfigError",
         "give either 'deltas' or 'grid_points', not both"),
        ("trajectory", {**TRAJ, "frame": "lab", "t_max": -1}, None, "ConfigError",
         f"'frame' must be one of {FRAMES}, got 'lab'"),
        ("trajectory", {**TRAJ, "samples": 1, "frame": "lab"}, None, "ConfigError", "'samples' must be >= 2, got 1"),
        ("trajectory", {"E": None, "theta_deg": None, "samples": 1}, None, "ConfigError",
         "missing numeric value for 'E'"),
        ("validity-sweep", {**SWEEP, "dim_min": 1, "dim_max": 0}, None, "ConfigError",
         "'dim_min' must be >= 2, got 1"),
        ("validity-sweep", {**SWEEP, "deltas": [0.5, 1.5], "samples": 1}, None, "ConfigError",
         "'samples' must be >= 2, got 1"),
        ("validity-sweep", {"seed": "1", "systems": 0}, None, "ConfigError", "'seed' must be an integer, got '1'"),
        ("refute-ml", {**REFUTE, "out": 5, "delta": None}, None, "ConfigError", "'out' must be a string, got 5"),
        ("refute-ml", {**REFUTE, "format": "xml", "samples": 1}, None, "ConfigError",
         "'format' must be csv or json, got 'xml'"),
        ("refute-ml", {"delta": 0.0, "L": 1.0}, "x", "ConfigError", "missing required config keys: ['E']"),
        # library checks after the config checks
        ("refute-ml", {**REFUTE, "delta": 1.0}, None, "DomainError", "delta must lie in [0, 1), got 1.0"),
        ("alpha-table", {"deltas": [0.5, 1.5]}, None, "DomainError", "delta must lie in [0, 1], got 1.5"),
        # a repeated key is refused, not resolved to its last value (raw JSON text)
        ("refute-ml", '{"delta": 0.9, "L": 1.0, "E": 1.0, "samples": 20, "delta": 0.0}', None, "ConfigError",
         "duplicate config keys: ['delta']"),
        # a config's out and format are checked whenever present, even where the --out flag is given
        ("refute-ml", {**REFUTE, "out": 0}, None, "ConfigError", "'out' must be a string, got 0"),
        ("refute-ml", {**REFUTE, "out": None}, None, "ConfigError", "'out' must be a string, got None"),
        ("refute-ml", {**REFUTE, "out": ""}, None, "ConfigError", "'out' must be a non-empty string, got ''"),
        ("refute-ml", {**REFUTE, "format": 0}, None, "ConfigError", "'format' must be csv or json, got 0"),
        ("refute-ml", {**REFUTE, "format": None}, None, "ConfigError", "'format' must be csv or json, got None"),
        ("refute-ml", {**REFUTE, "format": None, "out": ""}, None, "ConfigError",
         "'out' must be a non-empty string, got ''"),
        ("refute-ml", {**REFUTE, "format": "", "delta": None}, None, "ConfigError",
         "'format' must be csv or json, got ''"),
        # QSL_SEED must be a JSON integer, as a config's seed must be
        ("validity-sweep", SWEEP, "1_000", "ConfigError", "QSL_SEED must be an integer, got '1_000'"),
        ("validity-sweep", SWEEP, "+5", "ConfigError", "QSL_SEED must be an integer, got '+5'"),
        ("validity-sweep", SWEEP, "\u0663", "ConfigError", "QSL_SEED must be an integer, got '\u0663'"),
        ("validity-sweep", SWEEP, "5.0", "ConfigError", "QSL_SEED must be an integer, got '5.0'"),
        ("validity-sweep", SWEEP, "true", "ConfigError", "QSL_SEED must be an integer, got 'true'"),
        # mu = E/(2 sin^2(theta/2)) beyond the float range is a DomainError, not a traceback
        ("trajectory", {"E": 1.0, "theta_deg": 1e-170}, None, "DomainError",
         "mu must be positive and finite, got inf"),
        ("refute-ml", {"delta": 0.5, "L": 1e-300, "E": 1.0}, None, "DomainError",
         "mu must be positive and finite, got inf"),
        ("refute-ml", {"delta": 0.5, "L": 1.0, "E": 1.0, "margin": 1e200}, None, "DomainError",
         "mu must be positive and finite, got inf"),
    ],
)
def test_config_error_message(kind, payload, env_seed, error, message, tmp_path, capsys, monkeypatch):
    if env_seed is None:
        monkeypatch.delenv("QSL_SEED", raising=False)
    else:
        monkeypatch.setenv("QSL_SEED", env_seed)
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": {"type": error, "message": message}}
    assert not list(tmp_path.glob("x_*"))


def test_output_flags_win_over_valid_config_values(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"deltas": [0.5], "out": str(tmp_path / "cfg"), "format": "json"})
    assert main(["alpha-table", "--config", cfg]) == 0
    assert main(["alpha-table", "--config", cfg, "--out", str(tmp_path / "flag"), "--format", "csv"]) == 0
    assert sorted(path.name for path in tmp_path.glob("*_*")) == [
        "cfg_alpha.json", "cfg_report.json", "flag_alpha.csv", "flag_report.json",
    ]
    bad = write_config(tmp_path, "bad.json", {"deltas": [0.5], "format": 0})
    assert main(["alpha-table", "--config", bad, "--out", str(tmp_path / "y"), "--format", "csv"]) == 2
    assert main(["alpha-table", "--config", cfg, "--out", ""]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().out.splitlines()]
    assert errors == [
        {"type": "ConfigError", "message": "'format' must be csv or json, got 0"},
        {"type": "ConfigError", "message": "'out' must be a non-empty string, got ''"},
    ]
    assert not list(tmp_path.glob("y_*"))


@pytest.mark.parametrize(
    "argv",
    [[], ["fly", "--config", "cfg.json"], ["refute-ml"], ["refute-ml", "--config", "cfg.json", "--format", "xml"]],
    ids=["no-command", "unknown-command", "no-config", "format-xml"],
)
def test_bad_command_line_exits_two_and_writes_nothing(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default prefix qsl_out writes here
    write_config(tmp_path, "cfg.json", {**REFUTE, "samples": 20})
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_options_may_come_before_the_subcommand(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, "cfg.json", {**REFUTE, "samples": 20})
    for name, argv in [("before", ["--config", cfg, "refute-ml"]), ("after", ["refute-ml", "--config", cfg])]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
    outputs = ["qsl_out_report.json", "qsl_out_trajectory.csv"]
    assert sorted(path.name for path in (tmp_path / "before").iterdir()) == outputs
    for output in outputs:
        assert (tmp_path / "before" / output).read_bytes() == (tmp_path / "after" / output).read_bytes()


def test_csv_cells_are_formatted_by_the_column_rule(tmp_path):
    table = {
        "floats": np.array([0.1, -2.5, 1e-300]),
        "ints": np.array([1, -2, 3]),
        "unsigned": np.array([4, 5, 6], dtype=np.uint8),
        "bools": np.array([True, False, True]),
        "numbers": [1.5, 2, 0.1],
        "missing": [1.5, None, 2.0],
        "words": ["a", "b", "c"],
        "numpy_bools": [np.True_, np.False_, np.True_],
    }
    cli.write_outputs(str(tmp_path / "x"), "csv", {}, "t", table)
    assert (tmp_path / "x_t.csv").read_text().splitlines() == [
        "floats,ints,unsigned,bools,numbers,missing,words,numpy_bools",
        "0.10000000000000001,1,4,true,1.5,1.5,a,true",
        "-2.5,-2,5,false,2,,b,false",
        "1e-300,3,6,true,0.10000000000000001,2,c,true",
    ]


def _assert_csv_matches_reference(tmp_path, table):
    cli.write_outputs(str(tmp_path / "x"), "csv", {}, "t", table)
    write_csv_reference(tmp_path / "reference.csv", table)
    assert (tmp_path / "x_t.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 4, 100])
def test_csv_writer_matches_the_reference_bytes(block, tmp_path, monkeypatch):
    # repeating numeric columns go through their distinct values; each must still write the reference's bytes,
    # also where a block boundary splits repeated values, signed zeros and NaN payloads (100 is past the table)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    nan_payloads = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    special = np.array([-0.0, 0.0, nan_payloads[0], nan_payloads[1], np.inf, -np.inf, 0.0, -0.0, np.nan])
    grid = np.column_stack([[0.1, 0.1, 0.2, 0.1, 0.3, 0.2, 0.1, 0.3, 0.1], np.arange(9) / 7.0])  # rows of .T are strided
    table = {
        "repeating": np.array([0.1, 2.5, 0.1, 1e-300, 2.5, 0.1, 0.1, 2.5, 0.1]),
        "distinct": np.linspace(0.0, 1.0, 9),
        "special": special,
        "ints": np.array([3, -2, 3, 3, 2**62, -2, 0, 3, 2**62], dtype=np.int64),
        "unsigned": np.array([4, 5, 4, 255, 0, 4, 5, 0, 4], dtype=np.uint8),
        "strided": grid.T[0],
        "bools": np.array([True, False, True, True, False, False, True, False, True]),
        "missing": [1.5, None, 2.0, None, 0.1, 1.5, None, -0.0, 2],
        "words": ["a", "b", "a", "c", "a", "b", "c", "a", "b"],
    }
    assert not table["strided"].flags.contiguous
    _assert_csv_matches_reference(tmp_path, table)
    assert [row.split(",")[2] for row in (tmp_path / "x_t.csv").read_text().splitlines()[1:]] == [
        "-0", "0", "nan", "nan", "inf", "-inf", "0", "-0", "nan",
    ]


def test_csv_writer_writes_the_header_of_an_empty_table(tmp_path):
    cli.write_outputs(str(tmp_path / "x"), "csv", {}, "t", {"floats": np.array([]), "words": []})
    assert (tmp_path / "x_t.csv").read_bytes() == b"floats,words\n"


def test_csv_writer_refuses_a_ragged_table_before_opening_it(tmp_path, monkeypatch):
    # the lengths are checked once, up front, not when the short column runs out in a later block
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 2)
    with pytest.raises(ValueError, match="differ in length"):
        cli.write_outputs(str(tmp_path / "x"), "csv", {}, "t", {"a": np.arange(5.0), "b": [1.0] * 4})
    assert not (tmp_path / "x_t.csv").exists()


@pytest.mark.parametrize("kind, payload", [
    ("refute-ml", {"delta": 0.3, "L": 1.0, "E": 2.0, "samples": 500}),
    ("bd-gap", {"delta": 0.3, "levels": [0.0, 1.0, 2.5, 4.0], "samples": 500}),
    ("trajectory", {"E": 1.7, "theta_deg": 70.0, "t_max": 2.0, "samples": 500, "frame": "rotating"}),
    ("trajectory", {"E": 1.7, "theta_deg": 70.0, "t_max": 2.0, "samples": 500}),
    ("trajectory", {"E": 1.7, "theta_deg": 70.0, "t_max": 2.0, "samples": 500, "initial": "off_equator"}),
])
def test_csv_tables_match_the_reference_bytes(kind, payload, tmp_path):
    _, _, table = cli.HANDLERS[kind](cli._parse(kind, payload))
    _assert_csv_matches_reference(tmp_path, table)


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("frame", ["rotating", "schrodinger"])
def test_csv_writer_peaks_below_the_reference(frame, tmp_path):
    # each distinct value of a repeating column is held once per block, as one string, not once per row,
    # and only one block of cells exists at a time, so the writer's peak does not grow with the table
    peaks = {}
    for samples in (15000, 60000):
        config = {"E": 1.7, "theta_deg": 70.0, "t_max": 2.0, "samples": samples, "frame": frame}
        _, _, table = cli.cmd_trajectory(cli._parse("trajectory", config))
        peaks[samples] = _traced_peak(lambda: cli.write_outputs(str(tmp_path / "x"), "csv", {}, "t", table))
        if samples == 15000:
            reference = _traced_peak(lambda: write_csv_reference(tmp_path / "reference.csv", table))
            assert peaks[samples] < reference, (peaks, reference)
    assert peaks[60000] <= 1.1 * peaks[15000], peaks


def _assert_json_matches_reference(tmp_path, table):
    cli.write_outputs(str(tmp_path / "x"), "json", {}, "t", table)
    write_json_reference(tmp_path / "reference.json", table)
    assert (tmp_path / "x_t.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


@pytest.mark.parametrize("block", [1, 3, 4, 100])
def test_json_writer_matches_the_reference_bytes(block, tmp_path, monkeypatch):
    # blocks of rows, spliced into one document: the bytes of one json.dump, also across block boundaries
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
    table = {
        "special": np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 0.1, np.nan, 2.5]),
        "ints": np.array([3, -2, 3, 3, 2**62, -2, 0, 3, 2**62], dtype=np.int64),
        "bools": np.array([True, False, True, True, False, False, True, False, True]),
        "missing": [1.5, None, 2.0, None, np.nan, 1.5, None, -np.inf, 2],
        "words": ["a", "b", "a", "c", "a", "b", "c", "a", "b"],
    }
    _assert_json_matches_reference(tmp_path, table)
    rows = json.loads((tmp_path / "x_t.json").read_text())["rows"]
    assert [row[3] for row in rows][:5] == [1.5, None, 2.0, None, pytest.approx(math.nan, nan_ok=True)]


@pytest.mark.parametrize("table", [{"floats": np.array([]), "words": []}, {}], ids=["no rows", "no columns"])
def test_json_writer_writes_an_empty_table(table, tmp_path):
    _assert_json_matches_reference(tmp_path, table)


@pytest.mark.parametrize("name", ["alpha_table_json", "bd_gap_5level", "validity_sweep_json"])
def test_json_tables_of_the_goldens_match_the_reference_bytes(name, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)  # the golden tables span several blocks
    config = Path(__file__).resolve().parent / "golden" / f"{name}.json"
    kind = json.loads(config.read_text())["kind"]
    _, _, table = cli.HANDLERS[kind](cli._parse(kind, cli._load_config(str(config), kind)))
    assert len(next(iter(table.values()))) > 7
    _assert_json_matches_reference(tmp_path, table)


def test_json_writer_peak_does_not_grow_with_the_table(tmp_path):
    # only one block of rows exists as Python objects and text at a time (a writer that builds every row
    # first peaked at 3.41 MB at 15000 samples and 13.51 MB at 60000); three columns keep the traced run short
    peaks = {}
    for samples in (15000, 60000):
        config = {"E": 1.7, "theta_deg": 70.0, "t_max": 2.0, "samples": samples}
        _, _, table = cli.cmd_trajectory(cli._parse("trajectory", config))
        table = {name: table[name] for name in ("t", "fidelity", "bloch_x")}
        peaks[samples] = _traced_peak(lambda: cli.write_outputs(str(tmp_path / "x"), "json", {}, "t", table))
    assert peaks[60000] <= 1.1 * peaks[15000], peaks


# The README's exit codes: 2 for invalid input, 3 for a numerical failure.
EXIT_CODES = {
    "ConfigError": 2, "DimensionMismatch": 2, "DomainError": 2, "InsufficientLevels": 2, "NonHermitian": 2,
    "NotReached": 3, "StepTooLarge": 3,
}
ERROR_NAMES = [
    name for name in qsl.__all__
    if isinstance(getattr(qsl, name), type) and issubclass(getattr(qsl, name), qsl.QslError) and name != "QslError"
]


@pytest.mark.parametrize("name", sorted(set(ERROR_NAMES) | set(EXIT_CODES)))
def test_every_error_has_its_exit_code(name, tmp_path, capsys, monkeypatch):
    # an error class added or removed without an entry here fails
    assert name in ERROR_NAMES and name in EXIT_CODES

    def handler(params):
        raise getattr(qsl, name)("raised by the handler")

    monkeypatch.setitem(cli.HANDLERS, "alpha-table", handler)
    cfg = write_config(tmp_path, "cfg.json", {"deltas": [0.5]})
    assert main(["alpha-table", "--config", cfg, "--out", str(tmp_path / "x")]) == EXIT_CODES[name]
    assert json.loads(capsys.readouterr().out) == {"error": {"type": name, "message": "raised by the handler"}}
    assert not list(tmp_path.glob("x_*"))


def _readme_bullets():
    """The README "Command line" section's subcommand bullets, by subcommand, each on one line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for chunk in section.split("\n* `")[1:]:
        name, text = chunk.split("`:", 1)
        bullets[name] = " ".join(text.split("\n\n", 1)[0].split())
    return bullets


@pytest.mark.parametrize("kind", list(cli.CLAIMS))
def test_readme_lists_every_claim_rule(kind):
    text = _readme_bullets()[kind]
    for rule, _ in cli.CLAIMS[kind]:
        assert f"`{rule}`" in text, rule


@pytest.mark.parametrize("kind", list(cli.CONFIG))
def test_readme_lists_every_config_key(kind):
    text = _readme_bullets()[kind]
    for key, _, default, *bounds in (e for e in cli.CONFIG[kind] if not callable(e[0])):
        assert f"`{key}`" in text, key
        if isinstance(default, (int, float)):
            assert f"default {default}" in text, key
        for op, bound in zip((">=", "<="), bounds):
            assert (f"{op} `{bound}`" if isinstance(bound, str) else f"{op} {bound}") in text, key


def test_readme_bounds_table_names_the_report_margins():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Bounds", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
    # an isolated two-level superposition has all five bounds finite
    hamiltonian, zero = qsl.HermitianOperator.from_diagonal([0.0, 1.0]), qsl.HermitianOperator(np.zeros((2, 2)))
    sys_ = qsl.RotatedHamiltonianSystem(hamiltonian, zero, qsl.PureState.normalized([1.0, 2.0]))
    report = qsl.evaluate_bounds(sys_, 0.5, tau=qsl.first_passage(sys_, 0.5, 10.0))
    assert sorted(names) == sorted(report.margins()) == ["bd", "bd_closed", "ml", "mt", "mt_closed"]


def test_readme_entry_points_are_public():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = re.findall(r"\bqsl\.(\w+)", block)
    assert names
    assert set(names) <= set(qsl.__all__), sorted(set(names) - set(qsl.__all__))


# What the CLI and the documented entry points run; test-only references live in tests/oracles.py.
PUBLIC_NAMES = [
    "BoundReport", "ConfigError", "DimensionMismatch", "DomainError",
    "HermitianOperator", "InsufficientLevels", "NonHermitian", "NotReached", "PureState", "QslError",
    "RefutationReport", "RefutationSpec", "RotatedHamiltonianSystem", "StepTooLarge", "SweepRow",
    "Trajectory", "alpha", "bd_pointwise_margin", "bloch_operators", "build_coupling", "build_ml_family",
    "choose_theta", "evaluate_bounds", "expectation", "first_passage", "propagate_exact",
    "propagate_numeric", "random_coupled_system", "random_hermitian", "random_isolated_system",
    "random_pure_state", "run_bd_nonsaturation", "run_ml_refutation", "sample_trajectory",
    "time_average", "trace_distance", "validity_sweep", "variance",
]


def test_public_surface():
    assert qsl.__all__ == PUBLIC_NAMES


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Prints the number of threads numpy's bundled OpenBLAS runs, or "absent" without one.
OPENBLAS_THREADS = """
import ctypes, glob, os
import qsl
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs", "libscipy_openblas*"))
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
if get is not None:
    get.argtypes, get.restype = [], ctypes.c_int
print("absent" if get is None else get())
"""


def run_with_thread_variables(code, **variables):
    """stdout of `python -c code` with only the given thread variables set."""
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    result = subprocess.run(
        [sys.executable, "-c", code], env={**env, **variables}, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


class TestThreadDefault:
    READ_BACK = f"import json, os, qsl; print(json.dumps([os.environ.get(n) for n in {THREAD_VARIABLES!r}]))"

    @pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": ""}], ids=["unset", "empty"])
    def test_import_sets_one_thread(self, variables):
        assert json.loads(run_with_thread_variables(self.READ_BACK, **variables)) == ["1"] * 4

    def test_a_user_count_wins(self):
        assert json.loads(run_with_thread_variables(self.READ_BACK, OMP_NUM_THREADS="3")) == [None, None, "3", None]

    def test_openblas_runs_one_thread(self):
        threads = run_with_thread_variables(OPENBLAS_THREADS)
        if threads == "absent":
            pytest.skip("numpy bundles no scipy-openblas library with scipy_openblas_get_num_threads64_")
        assert threads == "1"


def _refutation_not_violated(*args, **kwargs):
    return dataclasses.replace(qsl.run_ml_refutation(*args, **kwargs), violated=False)


def _sweep_with_one_violation(**kwargs):
    rows, _ = qsl.validity_sweep(**kwargs)
    return rows, 1


@pytest.mark.parametrize(
    "kind, payload, name, replacement, table, failed",
    [
        ("refute-ml", {"delta": 0.0, "L": 1.0, "E": 1.0, "samples": 20},
         "run_ml_refutation", _refutation_not_violated, "trajectory", ["beats_hypothesis"]),
        ("bd-gap", {"delta": 0.0, "samples": 20}, "bd_pointwise_margin", lambda traj: -1.0, "trajectory",
         ["bd_strict"]),
        ("alpha-table", {"deltas": [0.0, 0.5, 1.0]}, "alpha", lambda delta: 2.0, "alpha",
         ["below_endpoint_bound", "strictly_below_arccos"]),
        ("validity-sweep", {"seed": 1, "systems": 2, "deltas": [0.5], "samples": 20},
         "validity_sweep", _sweep_with_one_violation, "sweep", ["no_violations"]),
    ],
)
def test_violated_claim_exits_one(kind, payload, name, replacement, table, failed, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, name, replacement)
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    report = json.loads((tmp_path / "x_report.json").read_text())
    assert list(report)[-2:] == ["claim_verified", "failed_rules"]
    assert report["claim_verified"] is False
    assert report["failed_rules"] == failed
    assert (tmp_path / f"x_{table}.csv").stat().st_size > 0
    # the same run unpatched passes, and names no failed rule
    monkeypatch.undo()
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "y")]) == 0
    report = json.loads((tmp_path / "y_report.json").read_text())
    assert list(report)[-1] == "claim_verified" and report["claim_verified"] is True
    assert "failed_rules" not in report


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, "alpha.json", {"deltas": [0.0, 1.0]})
        result = subprocess.run(
            [sys.executable, "-m", "qsl.cli", "alpha-table", "--config", cfg, "--out", str(tmp_path / "cli")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "cli_alpha.csv").exists()

    def test_bad_config_file(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "qsl.cli", "alpha-table", "--config", str(tmp_path / "nope.json")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize(
        "payload",
        [b'{"deltas": [0.0, 1.0], "out": "\xff"}', b'{"seed": ' + b"1" * 5000 + b"}", b"[" * 100000],
        ids=["not-utf8", "long-integer", "deep-nesting"],
    )
    def test_malformed_config_file(self, tmp_path, payload):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(payload)
        result = subprocess.run(
            [sys.executable, "-m", "qsl.cli", "alpha-table", "--config", str(cfg), "--out", str(tmp_path / "x")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"]["type"] == "ConfigError"
        assert result.stderr == ""
        assert not list(tmp_path.glob("x_*"))

    def test_unwritable_prefix(self, tmp_path):
        cfg = write_config(tmp_path, "alpha.json", {"deltas": [0.0, 1.0]})
        result = subprocess.run(
            [sys.executable, "-m", "qsl.cli", "alpha-table", "--config", cfg, "--out", str(tmp_path / "no" / "x")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("cannot write outputs: ")
        assert result.stderr == ""
