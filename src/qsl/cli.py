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
column. `main` puts the subcommand first in the report, as `kind`. `CLAIMS`
is the one table of each claim's named rules: `main` judges the report and
table by them once and appends `claim_verified`, and any failed rules as
`failed_rules`, to the report. `write_outputs` writes both,
as `<prefix>_report.json` and `<prefix>_<name>.csv` (or `.json`); a CSV
table is written in blocks of rows, and a numeric column that repeats a value
within a block has each of the block's distinct values formatted once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
from dataclasses import asdict, replace
from itertools import pairwise

import numpy as np

from .bounds import _angle, alpha
from .counterexamples import (
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    run_bd_nonsaturation,
    run_ml_refutation,
)
from .errors import _FINITE, ConfigError, DimensionMismatch, DomainError, InsufficientLevels, NonHermitian, QslError
from .errors import _check_real
from .evolution import RotatedHamiltonianSystem, Trajectory, sample_trajectory
from .linalg import HermitianOperator, PureState
from .sweeps import DEFAULT_DELTAS, validity_sweep

EXIT_OK = 0
EXIT_CLAIM_VIOLATED = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL = 3

INVALID_INPUT_ERRORS = (ConfigError, DomainError, DimensionMismatch, NonHermitian, InsufficientLevels)

CSV_BLOCK_ROWS = 2048  # table rows, CSV or JSON, formatted and written at a time

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

# Each claim's rules, in order; test(report, table) reads the handler's output and holds when the rule does.
CLAIMS = {
    "refute-ml": (
        ("beats_hypothesis", lambda r, t: r["violated"]),
        ("mt_saturated", lambda r, t: r["margins"]["mt_saturation"] <= 1e-8),
        ("energy_conserved", lambda r, t: r["max_energy_drift"] <= 1e-9),
    ),
    "bd-gap": (
        ("gap_open", lambda r, t: r["gap"] > 1e-6),
        ("bd_strict", lambda r, t: r["min_pointwise_bd_margin"] > 0.0),
        ("mt_saturated", lambda r, t: abs(r["report"]["tau_actual"] - r["report"]["mt_closed"]) <= 1e-8),
    ),
    "alpha-table": (
        ("alpha_nonincreasing", lambda r, t: all(
            b <= a + 1e-12 for (_, a), (_, b) in pairwise(sorted(zip(t["delta"], t["alpha"]), key=lambda p: p[0]))
        )),
        ("below_endpoint_bound", lambda r, t: all(a <= e + 1e-12 for a, e in zip(t["alpha"], t["endpoint_value"]))),
        ("strictly_below_arccos", lambda r, t: all(
            a < c - 1e-12 for d, a, c in zip(t["delta"], t["alpha"], t["arccos_sqrt_delta"]) if 1e-3 <= d <= 1.0 - 1e-3
        )),
    ),
    "validity-sweep": (("no_violations", lambda r, t: r["violations"] == 0),),
}


def _fmt(value) -> str:
    """CSV cell serialization: strings as they are, 17 significant digits, empty for missing."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return format(float(value), ".17g")


def _json_column(cells) -> list:
    """JSON table cells: strings and missing as they are, every other value a float (a numeric array's at once)."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "biuf":
        return cells.astype(float).tolist()
    values = cells.tolist() if isinstance(cells, np.ndarray) else cells
    return [value if value is None or isinstance(value, str) else float(value) for value in values]


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
    except (ValueError, RecursionError) as exc:  # also not UTF-8, an over-long integer or deep nesting
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
    if (env_seed := os.environ.get("QSL_SEED")) is not None:
        try:  # a JSON integer, as a config's seed must be; deep nesting exhausts the decoder's recursion
            cfg["seed"] = _checked("seed", int, json.loads(env_seed))
        except (ValueError, RecursionError, ConfigError):
            raise ConfigError(f"QSL_SEED must be an integer, got {env_seed!r}") from None
    return cfg


def _finite(key: str, value) -> float:
    """JSON also parses NaN, Infinity and integers beyond the float range; none is valid here."""
    try:
        return _check_real(value, key, _FINITE)
    except DomainError:
        raise ConfigError(f"{key!r} must hold finite numbers only, got {value!r}") from None


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


def _csv_column(cells) -> tuple[str, list]:
    """A CSV column's row template and its cells, by the rule `write_outputs` states."""
    if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "iuf"):
        return "%s", list(map(_fmt, cells.tolist() if isinstance(cells, np.ndarray) else cells))
    # grouped by bits, not by value: -0.0 and 0.0 are written apart
    bits, inverse = np.unique(cells.view(f"u{cells.itemsize}"), return_inverse=True)
    if len(bits) == len(cells):  # one string per row would outweigh one float per row
        return "%.17g", cells.tolist()
    return "%s", np.array(["%.17g" % v for v in bits.view(cells.dtype).tolist()], dtype=object)[inverse].tolist()


def write_outputs(prefix: str, fmt: str, report: dict, name: str, table: dict) -> None:
    """Write `<prefix>_report.json` and the table as `<prefix>_<name>.csv` or `.json`.

    `table` maps each column name, in output order, to its cells: a numpy
    array or a list of numbers, booleans, strings or None (missing); a
    ValueError is raised before the table's file is opened if the columns
    differ in length. CSV rows are formatted and written one block of
    `CSV_BLOCK_ROWS` rows at a time, so writing a table takes memory for one
    block, not the whole table; a cell's text depends on that cell alone,
    so the bytes are those of one pass. A block's rows are written by one
    template. A float or integer array is formatted by "%.17g": row by row
    when the block's values are all distinct, else each of the block's
    distinct values once, with the same bytes. A boolean array or a list is
    formatted cell by cell by `_fmt`, which gives numbers the same 17
    significant digits. Cells are not quoted; the tables' strings are fixed
    words. A JSON table is written in the same blocks, with the bytes of one
    `json.dump(..., indent=2)` of {"columns": names, "rows": rows}, every
    cell but a string or None a float.
    """
    _write_json(f"{prefix}_report.json", report)
    lengths = {len(cells) for cells in table.values()}
    if len(lengths) > 1:
        raise ValueError(f"table columns differ in length: {sorted(lengths)}")
    blocks = [(start, start + CSV_BLOCK_ROWS) for start in range(0, max(lengths, default=0), CSV_BLOCK_ROWS)]
    if fmt == "csv":
        with open(f"{prefix}_{name}.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(table) + "\n")
            for start, stop in blocks:
                pairs = [_csv_column(cells[start:stop]) for cells in table.values()]
                template = ",".join(rule for rule, _ in pairs) + "\n"
                fh.writelines(template % row for row in zip(*(cells for _, cells in pairs)))
    else:
        with open(f"{prefix}_{name}.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": list(table), "rows": []}, indent=2)[:-3])  # up to '"rows": ['
            for start, stop in blocks:
                rows = list(zip(*(_json_column(cells[start:stop]) for cells in table.values())))
                # json.dump's indented text for these rows, from the compact one: no encoded string holds a NUL
                cells = json.dumps(rows, separators=("\0", ":"))[2:-2].replace("]\0[", "\n    ],\n    [\n      ")
                fh.write("," * (start > 0) + "\n    [\n      " + cells.replace("\0", ",\n      ") + "\n    ]")
            fh.write("\n  ]\n}\n" if blocks else "]\n}\n")


def _trajectory_table(traj: Trajectory) -> dict:
    bloch = traj.bloch.T if traj.bloch is not None else [[None] * len(traj.times)] * 3
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
    # asdict would deep-copy the trajectory, and the system it holds, only to drop them
    payload = asdict(replace(report, trajectory=None))
    del payload["trajectory"]
    return payload, "trajectory", _trajectory_table(report.trajectory)


def cmd_bd_gap(p: dict) -> tuple[dict, str, dict]:
    levels, samples = p["levels"], p["samples"]
    hamiltonian = HermitianOperator.from_diagonal(levels)
    state = PureState.normalized(p["amplitudes"] or [1.0] * len(levels))
    report = run_bd_nonsaturation(hamiltonian, state, p["delta"], samples=samples, t_max=p["t_max"])

    sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
    traj = sample_trajectory(sys_, report.tau_actual, samples)
    payload = {
        "levels": levels,
        "report": asdict(report),
        "gap": report.mt_closed - report.bd_closed,
        "min_pointwise_bd_margin": bd_pointwise_margin(traj),
    }
    return payload, "trajectory", _trajectory_table(traj)


def cmd_trajectory(p: dict) -> tuple[dict, str, dict]:
    theta = math.radians(p["theta_deg"])
    sys_ = build_ml_family(p["E"], theta)
    if p["initial"] == "off_equator":
        sys_ = RotatedHamiltonianSystem(sys_.H, sys_.A, PureState(OFF_EQUATOR_AMPLITUDES))
    traj = sample_trajectory(sys_, p["t_max"], p["samples"], frame=p["frame"])
    payload = {
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
    table = {"delta": deltas, "alpha": alphas, "arccos_sqrt_delta": arccos, "endpoint_value": endpoint}
    payload = {"n_deltas": len(deltas)}
    payload.update((rule, test(payload, table)) for rule, test in CLAIMS["alpha-table"])  # the three flags
    return payload, "alpha", table


def cmd_validity_sweep(p: dict) -> tuple[dict, str, dict]:
    rows, violations = validity_sweep(
        n_systems=p["systems"], dim_range=(p["dim_min"], p["dim_max"]), deltas=tuple(p["deltas"]),
        seed=p["seed"], isolated_fraction=p["isolated_fraction"], samples=p["samples"],
    )

    def bound(name: str) -> list:
        return [getattr(row.report, name) if row.report else None for row in rows]

    payload = {
        "seed": p["seed"],
        "systems": p["systems"],
        "cells": len(rows),
        "reached_cells": sum(1 for row in rows if row.reached),
        "violations": violations,
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
    parser.add_argument("command", choices=HANDLERS, help="the subcommand to run")
    parser.add_argument("--config", required=True, help="path to a flat JSON config")
    parser.add_argument("--out", default=None, help="output path prefix")
    parser.add_argument("--format", default=None, choices=["csv", "json"], help="table format")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        # a config's out and format are checked whenever present; a flag wins over them
        prefix, fmt = cfg.get("out", "qsl_out"), cfg.get("format", "csv")
        if not isinstance(prefix, str):
            raise ConfigError(f"'out' must be a string, got {prefix!r}")
        if "" in (prefix, args.out):
            raise ConfigError("'out' must be a non-empty string, got ''")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"'format' must be csv or json, got {fmt!r}")
        prefix, fmt = args.out or prefix, args.format or fmt
        report, name, table = HANDLERS[args.command](_parse(args.command, cfg))
        report = {"kind": args.command, **report}
        failed = [rule for rule, test in CLAIMS.get(args.command, ()) if not test(report, table)]
        if args.command in CLAIMS:  # claim_verified last, then failed_rules only when a rule fails
            report.update(claim_verified=not failed, **({"failed_rules": failed} if failed else {}))
        try:
            write_outputs(prefix, fmt, report, name, table)
        except OSError as exc:
            raise ConfigError(f"cannot write outputs: {exc}") from exc
    except QslError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_INVALID_INPUT if isinstance(exc, INVALID_INPUT_ERRORS) else EXIT_NUMERICAL
    return EXIT_CLAIM_VIOLATED if failed else EXIT_OK


if __name__ == "__main__":
    _sys.exit(main())
