"""Command-line experiment runner.

    qsl <subcommand> --config <file> [--out <prefix>] [--format csv|json]

Subcommands: refute-ml, bd-gap, trajectory, alpha-table, validity-sweep.
Configs are flat JSON objects; the QSL_SEED environment variable overrides
the config seed. Exit codes: 0 success or claim verified, 1 claim violated
unexpectedly, 2 invalid input, 3 numerical failure.

`CONFIG`, below, is the one table of every subcommand's config keys, with
their kinds, defaults and bounds; `_parse` checks a config against it. Each
`cmd_*` handler is a function of the parsed config alone: it returns a report
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

from .bounds import _angle, alpha
from .counterexamples import (
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    run_bd_nonsaturation,
    run_ml_refutation,
)
from .errors import ConfigError, DimensionMismatch, DomainError, InsufficientLevels, NonHermitian, QslError
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

COMMON_KEYS = {"kind", "out", "format", "seed"}

REQUIRED = ...  # the default of a key that every config must give

# Each subcommand's config keys, in parsing order, as (key, kind, default,
# minimum, maximum); the bounds are optional. A kind is float, int, list (a
# non-empty array of finite numbers) or a tuple of allowed strings. A None
# default leaves an absent key None; a string minimum names an earlier key.
# A (test, message) pair is a cross-key rule: it fails when test(cfg, params)
# holds on the raw config and the keys parsed so far.
CONFIG = {
    "refute-ml": (
        ("delta", float, REQUIRED),
        ("L", float, REQUIRED),
        ("E", float, REQUIRED),
        ("margin", float, 0.1),
        ("samples", int, 1000, 2),
    ),
    "bd-gap": (
        ("delta", float, REQUIRED),
        ("levels", list, [0.0, 1.0, 2.0]),
        ("amplitudes", list, None),  # uniform over the levels when absent
        (lambda cfg, p: p["amplitudes"] and len(p["amplitudes"]) != len(p["levels"]),
         "'amplitudes' must have the same length as 'levels'"),
        ("samples", int, 1000, 2),
        ("t_max", float, None),
    ),
    "trajectory": (
        ("E", float, REQUIRED),
        ("theta_deg", float, REQUIRED),
        ("samples", int, 1000, 2),
        ("frame", ("schrodinger", "rotating"), "schrodinger"),
        ("initial", ("equator", "off_equator"), "equator"),
        ("t_max", float, 1.0, 0.0),
        (lambda cfg, p: p["t_max"] <= 0, "'t_max' must be positive"),
    ),
    "alpha-table": (
        (lambda cfg, p: "deltas" in cfg and "grid_points" in cfg,
         "give either 'deltas' or 'grid_points', not both"),
        (lambda cfg, p: "deltas" not in cfg and "grid_points" not in cfg,
         "alpha-table needs 'deltas' or 'grid_points'"),
        ("deltas", list, None),
        ("grid_points", int, None, 1),
    ),
    "validity-sweep": (
        ("seed", int, REQUIRED, 0),
        ("systems", int, 200, 1),
        ("dim_min", int, 2, 2),
        ("dim_max", int, 6, "dim_min"),
        ("deltas", list, list(DEFAULT_DELTAS)),
        ("samples", int, 1000, 2),
        ("isolated_fraction", float, 0.3, 0.0, 1.0),
    ),
}


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ConfigError if it names a key twice, where json would keep the last."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ConfigError(f"duplicate config keys: {repeated}")
    return dict(pairs)


def _load_config(path: str, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "kind" in cfg and cfg["kind"] != kind:
        raise ConfigError(f"config kind {cfg['kind']!r} does not match subcommand {kind!r}")
    specs = [entry for entry in CONFIG[kind] if not callable(entry[0])]
    unknown = set(cfg) - {spec[0] for spec in specs} - COMMON_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {spec[0] for spec in specs if spec[2] is REQUIRED} - set(cfg)
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


def _checked(key: str, kind, value):
    """`value` as `kind` asks: a float, an int, a list of floats or one of the allowed strings."""
    if kind is float and value is None:
        raise ConfigError(f"missing numeric value for {key!r}")
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    if kind is list and not (isinstance(value, list) and value):
        raise ConfigError(f"{key!r} must be a non-empty array of numbers")
    if isinstance(kind, tuple) and value not in kind:
        raise ConfigError(f"{key!r} must be one of {kind}, got {value!r}")
    if kind is list:
        return [_finite(key, v) for v in value]
    return _finite(key, value) if kind is float else value


def _parse(command: str, cfg: dict) -> dict:
    """Check `cfg` against `CONFIG[command]`, in order; return every key's value, defaults filled in."""
    params = {}
    for entry in CONFIG[command]:
        if callable(entry[0]):
            test, message = entry
            if test(cfg, params):
                raise ConfigError(message)
            continue
        key, kind, default, minimum, maximum = (*entry, None, None)[:5]
        if key not in cfg and default is None:
            params[key] = None
            continue
        value = params[key] = _checked(key, kind, cfg.get(key, default))
        minimum = params[minimum] if isinstance(minimum, str) else minimum
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key!r} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{key!r} must be <= {maximum}, got {value}")
    return params


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
        "exp_energy": traj.stats.exp_energy,
        "energy_uncertainty": traj.stats.energy_uncertainty,
        "eps_min": traj.stats.eps_min,
        "eps_max": traj.stats.eps_max,
        "norm_energy": traj.stats.norm_energy,
        "dual_norm_energy": traj.stats.dual_norm_energy,
        "bloch_x": bloch[0],
        "bloch_y": bloch[1],
        "bloch_z": bloch[2],
    }


def cmd_refute_ml(p: dict) -> tuple[dict, str, dict]:
    report = run_ml_refutation(p["delta"], p["L"], p["E"], p["margin"], samples=p["samples"])
    payload = {"kind": "refute-ml", **asdict(report)}
    del payload["trajectory"]
    payload["claim_verified"] = (
        report.violated
        and report.margins["mt_saturation"] <= 1e-8
        and report.max_energy_drift <= 1e-9
    )
    return payload, "trajectory", _trajectory_table(report.trajectory)


def cmd_bd_gap(p: dict) -> tuple[dict, str, dict]:
    levels, samples = p["levels"], p["samples"]
    hamiltonian = HermitianOperator.from_diagonal(levels)
    state = PureState.normalized(p["amplitudes"] or [1.0] * len(levels))
    report = run_bd_nonsaturation(hamiltonian, state, p["delta"], samples=samples, t_max=p["t_max"])

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


def cmd_trajectory(p: dict) -> tuple[dict, str, dict]:
    theta = math.radians(p["theta_deg"])
    sys_ = build_ml_family(p["E"], theta)
    if p["initial"] == "off_equator":
        sys_ = RotatedHamiltonianSystem(sys_.H, sys_.A, PureState(OFF_EQUATOR_AMPLITUDES))
    traj = sample_trajectory(sys_, p["t_max"], p["samples"], frame=p["frame"])
    payload = {
        "kind": "trajectory",
        "E": p["E"],
        "theta": theta,
        "frame": p["frame"],
        "initial": p["initial"],
        "t_max": p["t_max"],
        "samples": p["samples"],
        "energy_uncertainty": float(traj.stats.energy_uncertainty[0]),
    }
    return payload, "trajectory", _trajectory_table(traj)


def cmd_alpha_table(p: dict) -> tuple[dict, str, dict]:
    deltas = p["deltas"] or list(np.linspace(0.0, 1.0, p["grid_points"]))
    alphas = [alpha(delta) for delta in deltas]  # validates every delta first
    arccos = [_angle(delta) for delta in deltas]
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


def cmd_validity_sweep(p: dict) -> tuple[dict, str, dict]:
    rows, violations = validity_sweep(
        n_systems=p["systems"], dim_range=(p["dim_min"], p["dim_max"]), deltas=tuple(p["deltas"]),
        seed=p["seed"], isolated_fraction=p["isolated_fraction"], samples=p["samples"],
    )

    def bound(name: str) -> list:
        return [getattr(row.report, name) if row.report else None for row in rows]

    payload = {
        "kind": "validity-sweep",
        "seed": p["seed"],
        "systems": p["systems"],
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
        report, name, table = HANDLERS[args.command](_parse(args.command, cfg))
        write_outputs(prefix, fmt, report, name, table)
    except QslError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INVALID_INPUT if isinstance(exc, INVALID_INPUT_ERRORS) else EXIT_NUMERICAL
    return EXIT_OK if report.get("claim_verified", True) else EXIT_CLAIM_VIOLATED


if __name__ == "__main__":
    _sys.exit(main())
