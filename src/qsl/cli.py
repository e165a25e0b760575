"""Command-line experiment runner.

    qsl <subcommand> --config <file> [--out <prefix>] [--format csv|json]

Subcommands: refute-ml, bd-gap, trajectory, alpha-table, validity-sweep.
Configs are flat JSON objects; the QSL_SEED environment variable overrides
the config seed. Exit codes: 0 success or claim verified, 1 claim violated
unexpectedly, 2 invalid input, 3 numerical failure.

Each `cmd_*` handler is a function of the config alone: it returns a report
(a JSON object), a table name and a table that maps each column name to its
column. `write_outputs` writes both, as `<prefix>_report.json` and
`<prefix>_<name>.csv` (or `.json`), and `main` turns the report's
`claim_verified` flag (true when absent) into exit code 0 or 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys as _sys
from dataclasses import asdict

import numpy as np

from .bounds import alpha
from .counterexamples import (
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    run_bd_nonsaturation,
    run_ml_refutation,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    InsufficientLevels,
    NonHermitian,
    QslError,
)
from .evolution import RotatedHamiltonianSystem, Trajectory, sample_trajectory
from .linalg import HermitianOperator, PureState
from .sweeps import DEFAULT_DELTAS, validity_sweep

EXIT_OK = 0
EXIT_CLAIM_VIOLATED = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

INVALID_INPUT_ERRORS = (ConfigError, DomainError, DimensionMismatch, NonHermitian, InsufficientLevels)

# Bloch vector (1/2, 0, sqrt(3)/2): polar angle 60 degrees from the x axis,
# in the x-z plane. Used when a config asks for the off-equator start.
OFF_EQUATOR_AMPLITUDES = (math.cos(math.pi / 6.0), math.sin(math.pi / 6.0))

SCHEMAS = {
    "refute-ml": {
        "required": {"delta", "L", "E"},
        "optional": {"margin", "samples"},
    },
    "bd-gap": {
        "required": {"delta"},
        "optional": {"levels", "amplitudes", "samples", "t_max"},
    },
    "trajectory": {
        "required": {"E", "theta_deg"},
        "optional": {"t_max", "samples", "frame", "initial"},
    },
    "alpha-table": {
        "required": set(),
        "optional": {"deltas", "grid_points"},
    },
    "validity-sweep": {
        "required": {"seed"},
        "optional": {"systems", "dim_min", "dim_max", "deltas", "samples", "isolated_fraction"},
    },
}

COMMON_KEYS = {"kind", "out", "format", "seed"}


def _fmt(value) -> str:
    """CSV cell serialization: strings as they are, 17 significant digits, empty for missing."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(float(value), ".17g")


def _json_cell(value):
    """JSON table cell: strings and missing as they are, every other value a float."""
    return value if value is None or isinstance(value, str) else float(value)


def _load_config(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" in cfg and cfg["kind"] != kind:
        raise ConfigError(f"config kind {cfg['kind']!r} does not match subcommand {kind!r}")
    schema = SCHEMAS[kind]
    allowed = schema["required"] | schema["optional"] | COMMON_KEYS
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = schema["required"] - set(cfg)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")
    env_seed = os.environ.get("QSL_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QSL_SEED must be an integer, got {env_seed!r}") from exc
    return cfg


def _finite(key: str, value) -> float:
    """JSON also parses NaN, Infinity and integers beyond the float range; none is valid here."""
    try:
        ok = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"{key!r} must hold finite numbers only, got {value!r}")
    return float(value)


def _number(cfg: dict, key: str, default=None, *, minimum=None, maximum=None) -> float:
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing numeric value for {key!r}")
    value = _finite(key, value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key!r} must be <= {maximum}, got {value}")
    return value


def _integer(cfg: dict, key: str, default=None, *, minimum=None) -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _number_list(cfg: dict, key: str, default=None) -> list[float]:
    values = cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{key!r} must be a non-empty array of numbers")
    return [_finite(key, v) for v in values]


def _choice(cfg: dict, key: str, options: tuple[str, ...], default: str) -> str:
    value = cfg.get(key, default)
    if value not in options:
        raise ConfigError(f"{key!r} must be one of {options}, got {value!r}")
    return value


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_outputs(prefix: str, fmt: str, report: dict, name: str, table: dict) -> None:
    """Write `<prefix>_report.json` and the table as `<prefix>_<name>.csv` or `.json`.

    `table` maps each column name, in output order, to its cells: a numpy
    array or a list of numbers, booleans, strings or None (missing). CSV
    rows are formatted one at a time as they are written.
    """
    _write_json(f"{prefix}_report.json", report)
    columns = [cells.tolist() if isinstance(cells, np.ndarray) else cells for cells in table.values()]
    rows = zip(*columns, strict=True)
    if fmt == "csv":
        with open(f"{prefix}_{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table)
            writer.writerows([_fmt(cell) for cell in row] for row in rows)
    else:
        cells = [list(map(_json_cell, row)) for row in rows]
        _write_json(f"{prefix}_{name}.json", {"columns": list(table), "rows": cells})


def _trajectory_table(traj: Trajectory) -> dict:
    bloch = traj.bloch.T if traj.bloch is not None else [[None] * traj.n_samples] * 3
    return {
        "t": traj.times,
        "fidelity": traj.fidelity,
        "exp_energy": traj.exp_energy,
        "energy_uncertainty": traj.energy_uncertainty,
        "eps_min": traj.eps_min,
        "eps_max": traj.eps_max,
        "norm_energy": traj.norm_energy,
        "dual_norm_energy": traj.dual_norm_energy,
        "bloch_x": bloch[0],
        "bloch_y": bloch[1],
        "bloch_z": bloch[2],
    }


def cmd_refute_ml(cfg: dict) -> tuple[dict, str, dict]:
    delta = _number(cfg, "delta")
    big_l = _number(cfg, "L")
    energy = _number(cfg, "E")
    margin = _number(cfg, "margin", 0.1)
    samples = _integer(cfg, "samples", 1000, minimum=2)

    report = run_ml_refutation(delta, big_l, energy, margin, samples=samples)
    payload = {"kind": "refute-ml", **asdict(report)}
    del payload["trajectory"]
    payload["claim_verified"] = (
        report.violated
        and report.margins["mt_saturation"] <= 1e-8
        and report.max_energy_drift <= 1e-9
    )
    return payload, "trajectory", _trajectory_table(report.trajectory)


def cmd_bd_gap(cfg: dict) -> tuple[dict, str, dict]:
    delta = _number(cfg, "delta")
    levels = _number_list(cfg, "levels", [0.0, 1.0, 2.0])
    amplitudes = _number_list(cfg, "amplitudes", [1.0] * len(levels))
    if len(amplitudes) != len(levels):
        raise ConfigError("'amplitudes' must have the same length as 'levels'")
    samples = _integer(cfg, "samples", 1000, minimum=2)
    t_max = _number(cfg, "t_max", None) if "t_max" in cfg else None

    hamiltonian = HermitianOperator.from_diagonal(levels)
    state = PureState.normalized(amplitudes)
    report = run_bd_nonsaturation(hamiltonian, state, delta, samples=samples, t_max=t_max)

    sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
    traj = sample_trajectory(sys_, report.tau_actual, samples)
    margin = bd_pointwise_margin(traj)
    gap = report.mt_closed - report.bd_closed
    payload = {
        "kind": "bd-gap",
        "levels": levels,
        "report": asdict(report),
        "gap": gap,
        "min_pointwise_bd_margin": margin,
        "claim_verified": (
            gap > 1e-6
            and margin > 0.0
            and abs(report.tau_actual - report.mt_closed) <= 1e-8
        ),
    }
    return payload, "trajectory", _trajectory_table(traj)


def cmd_trajectory(cfg: dict) -> tuple[dict, str, dict]:
    energy = _number(cfg, "E")
    theta = math.radians(_number(cfg, "theta_deg"))
    samples = _integer(cfg, "samples", 1000, minimum=2)
    frame = _choice(cfg, "frame", ("schrodinger", "rotating"), "schrodinger")
    initial = _choice(cfg, "initial", ("equator", "off_equator"), "equator")
    t_max = _number(cfg, "t_max", 1.0, minimum=0.0)
    if t_max <= 0:
        raise ConfigError("'t_max' must be positive")

    sys_ = build_ml_family(energy, theta)
    if initial == "off_equator":
        sys_ = RotatedHamiltonianSystem(sys_.H, sys_.A, PureState(OFF_EQUATOR_AMPLITUDES))
    traj = sample_trajectory(sys_, t_max, samples, frame=frame)
    payload = {
        "kind": "trajectory",
        "E": energy,
        "theta": theta,
        "frame": frame,
        "initial": initial,
        "t_max": t_max,
        "samples": samples,
        "energy_uncertainty": float(traj.energy_uncertainty[0]),
    }
    return payload, "trajectory", _trajectory_table(traj)


def cmd_alpha_table(cfg: dict) -> tuple[dict, str, dict]:
    if "deltas" in cfg and "grid_points" in cfg:
        raise ConfigError("give either 'deltas' or 'grid_points', not both")
    if "deltas" in cfg:
        deltas = _number_list(cfg, "deltas")
    elif "grid_points" in cfg:
        n = _integer(cfg, "grid_points", minimum=1)
        deltas = list(np.linspace(0.0, 1.0, n))
    else:
        raise ConfigError("alpha-table needs 'deltas' or 'grid_points'")

    alphas = [alpha(delta) for delta in deltas]  # validates every delta first
    arccos = [math.acos(math.sqrt(delta)) for delta in deltas]
    endpoint = [(1.0 - math.sqrt(delta)) * math.pi / 2.0 for delta in deltas]
    by_delta = [value for _, value in sorted(zip(deltas, alphas), key=lambda pair: pair[0])]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(by_delta, by_delta[1:]))
    below_endpoint = all(a <= e + 1e-12 for a, e in zip(alphas, endpoint))
    strictly_below_arccos = all(
        a < c - 1e-12 for d, a, c in zip(deltas, alphas, arccos) if 1e-3 <= d <= 1.0 - 1e-3
    )
    payload = {
        "kind": "alpha-table",
        "n_deltas": len(deltas),
        "alpha_nonincreasing": nonincreasing,
        "below_endpoint_bound": below_endpoint,
        "strictly_below_arccos": strictly_below_arccos,
        "claim_verified": nonincreasing and below_endpoint and strictly_below_arccos,
    }
    table = {"delta": deltas, "alpha": alphas, "arccos_sqrt_delta": arccos, "endpoint_value": endpoint}
    return payload, "alpha", table


def cmd_validity_sweep(cfg: dict) -> tuple[dict, str, dict]:
    seed = _integer(cfg, "seed")
    n_systems = _integer(cfg, "systems", 200, minimum=1)
    dim_min = _integer(cfg, "dim_min", 2, minimum=2)
    dim_max = _integer(cfg, "dim_max", 6, minimum=dim_min)
    deltas = tuple(_number_list(cfg, "deltas", list(DEFAULT_DELTAS)))
    samples = _integer(cfg, "samples", 1000, minimum=2)
    isolated_fraction = _number(cfg, "isolated_fraction", 0.3, minimum=0.0, maximum=1.0)

    rows, violations = validity_sweep(
        n_systems=n_systems,
        dim_range=(dim_min, dim_max),
        deltas=deltas,
        seed=seed,
        isolated_fraction=isolated_fraction,
        samples=samples,
    )

    def bound(name: str) -> list:
        return [getattr(row.report, name) if row.report else None for row in rows]

    payload = {
        "kind": "validity-sweep",
        "seed": seed,
        "systems": n_systems,
        "cells": len(rows),
        "reached_cells": sum(1 for row in rows if row.reached),
        "violations": violations,
        "claim_verified": violations == 0,
    }
    table = {
        "system": [row.system for row in rows],
        "kind": [row.kind for row in rows],
        "dim": [row.dim for row in rows],
        "delta": [row.delta for row in rows],
        "reached": [row.reached for row in rows],
        "tau": bound("tau_actual"),
        "mt": bound("mt"),
        "ml": bound("ml"),
        "bd": bound("bd"),
        "mt_closed": bound("mt_closed"),
        "bd_closed": bound("bd_closed"),
        "worst_margin": [row.worst_margin for row in rows],
    }
    return payload, "sweep", table


HANDLERS = {
    "refute-ml": cmd_refute_ml,
    "bd-gap": cmd_bd_gap,
    "trajectory": cmd_trajectory,
    "alpha-table": cmd_alpha_table,
    "validity-sweep": cmd_validity_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a flat JSON config")
        cmd.add_argument("--out", default=None, help="output path prefix")
        cmd.add_argument("--format", default=None, choices=["csv", "json"], help="table format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        prefix = args.out or cfg.get("out") or "qsl_out"
        if not isinstance(prefix, str):
            raise ConfigError(f"'out' must be a string, got {prefix!r}")
        fmt = args.format or cfg.get("format") or "csv"
        if fmt not in ("csv", "json"):
            raise ConfigError(f"'format' must be csv or json, got {fmt!r}")
        report, name, table = HANDLERS[args.command](cfg)
        write_outputs(prefix, fmt, report, name, table)
    except QslError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INVALID_INPUT if isinstance(exc, INVALID_INPUT_ERRORS) else EXIT_NUMERICAL
    return EXIT_OK if report.get("claim_verified", True) else EXIT_CLAIM_VIOLATED


if __name__ == "__main__":
    _sys.exit(main())
