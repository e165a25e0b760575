"""Rewrite the golden outputs under tests/golden and report what moved.

Run from the repository root, with QSL_SEED unset:

    PYTHONPATH=src python3 tests/regenerate_goldens.py

Every config of `test_golden.CASES` runs through the CLI into a scratch
directory. Each output whose bytes differ from its golden copy is rewritten,
and every changed CSV column or JSON key is printed with its number of changed
cells and the largest relative and absolute change; `worst_margin`, a bound
minus tau, is measured against that row's tau instead of its own value (`git
diff` shows the rest). A statistics column (`STATISTICS`) also gets its largest
change against the table's spectral scale, the largest finite
max(|eps_min|, |eps_max|) of the new output: the golden criterion for these
columns is 1e-15 of it, absolute, since a relative change means little where
<H> is near 0. Last, the default sweep of criterion 9 (seed 20260810) is run,
its reached cells and violations are printed, so a moved digest says whether
a verdict moved, and its sha256 digests are printed beside `SWEEP_DIGESTS` of
tests/test_acceptance.py, which is edited by hand. The script exits 1 when any
golden or digest moved, 0 when none did. Pytest does not collect this file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from test_acceptance import SWEEP_DIGESTS
from test_golden import CASES, GOLDEN

from qsl.cli import main

STATISTICS = ("exp_energy", "energy_uncertainty", "eps_min", "eps_max", "norm_energy", "dual_norm_energy")


def columns(path: Path, data: bytes) -> dict[str, list]:
    """The cells of one output by column: CSV columns, a JSON table's columns, or a JSON report's keys."""
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        return {name: [row[name] for row in rows] for name in (rows[0] if rows else {})}
    doc = json.loads(data)
    if isinstance(doc, dict) and set(doc) == {"columns", "rows"}:
        return {name: [row[k] for row in doc["rows"]] for k, name in enumerate(doc["columns"])}
    out: dict[str, list] = defaultdict(list)

    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(item, f"{key}.{name}" if key else name)
        elif isinstance(value, list):
            for item in value:
                walk(item, key)
        else:
            out[key].append(value)

    walk(doc, "")
    return out


def number(cell) -> float | None:
    """A cell as a float, or None for an empty, boolean or text cell."""
    if isinstance(cell, bool) or cell in ("", None):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def spectral_scale(cells: dict[str, list]) -> float | None:
    """The largest finite max(|eps_min|, |eps_max|) of an output, or None without those columns."""
    values = (number(cell) for name in ("eps_min", "eps_max") for cell in cells.get(name, ()))
    return max((abs(x) for x in values if x is not None and math.isfinite(x)), default=None)


def changes(path: Path, old: bytes, new: bytes) -> list[str]:
    """One line per changed column: its changed cells and the largest relative and absolute change."""
    before, after = columns(path, old), columns(path, new)
    if before.keys() != after.keys() or any(len(before[k]) != len(after[k]) for k in before):
        return ["  the columns or the row count changed"]
    taus, spectral = after.get("tau"), spectral_scale(after)
    lines = []
    for name in before:
        moved, worst, largest = 0, 0.0, 0.0
        for row, (a, b) in enumerate(zip(before[name], after[name])):
            if a == b:
                continue
            moved += 1
            x, y = number(a), number(b)
            scale = number(taus[row]) if name == "worst_margin" and taus else x
            if x is None or y is None or not scale:
                worst = largest = math.inf
            else:
                worst, largest = max(worst, abs(y - x) / abs(scale)), max(largest, abs(y - x))
        if moved:
            against = "of that row's tau" if name == "worst_margin" else "relative"
            line = f"  {name}: {moved} cells, largest change {worst:.3g} {against} ({largest:.3g} absolute)"
            if name in STATISTICS and spectral:
                line += f", {largest / spectral:.3g} of the spectral scale {spectral:.17g}"
            lines.append(line)
    return lines


def regenerate(scratch: Path) -> bool:
    """Rewrite every golden whose bytes moved; True when any did."""
    moved = False
    for name in sorted(CASES):
        config = GOLDEN / f"{name}.json"
        cfg = json.loads(config.read_text())
        prefix = scratch / name
        main([cfg["kind"], "--config", str(config), "--out", str(prefix)])
        for suffix in ("report.json", f"{CASES[name]}.{cfg.get('format', 'csv')}"):
            produced, golden = Path(f"{prefix}_{suffix}"), GOLDEN / f"{name}_{suffix}"
            old, new = golden.read_bytes(), produced.read_bytes()
            if old == new:
                print(f"{golden.name}: unchanged")
                continue
            print(f"{golden.name}: changed")
            print("\n".join(changes(golden, old, new)))
            shutil.copyfile(produced, golden)
            moved = True
    return moved


def sweep_digests(scratch: Path) -> bool:
    """Print criterion 9's digests; True when any differs from its pinned value."""
    moved = False
    config = scratch / "sweep.json"
    config.write_text(json.dumps({"seed": 20260810}))
    main(["validity-sweep", "--config", str(config), "--out", str(scratch / "sweep")])
    report = json.loads((scratch / "sweep_report.json").read_text())
    print(f"criterion 9 sweep: {report['reached_cells']} reached cells, {report['violations']} violations")
    print("criterion 9 digests (SWEEP_DIGESTS in tests/test_acceptance.py):")
    for name, pinned in SWEEP_DIGESTS.items():
        digest = hashlib.sha256((scratch / f"sweep_{name}").read_bytes()).hexdigest()
        print(f'  "{name}": "{digest}",  # {"unchanged" if digest == pinned else f"was {pinned}"}')
        moved |= digest != pinned
    return moved


if __name__ == "__main__":
    os.environ.pop("QSL_SEED", None)  # the goldens are written at their configs' own seeds
    with tempfile.TemporaryDirectory() as tmp:
        moved = regenerate(Path(tmp))
        moved |= sweep_digests(Path(tmp))
    sys.exit(1 if moved else 0)
