"""Golden-output tests: fixed CLI configs must reproduce their files byte for byte.

Each `tests/golden/<name>.json` config names its subcommand in `kind`; its
expected outputs sit beside it as `<name>_report.json` and
`<name>_<table>.csv` (or `.json` for `"format": "json"`). The files were
written with numpy 2.4.6 on scipy-openblas 0.3.31 (OpenBLAS 0.3.31.188.0,
DYNAMIC_ARCH), on an x86-64 CPU where numpy's SIMD dispatch found X86_V3,
X86_V4 (AVX-512), AVX512_ICL and AVX512_SPR over its X86_V2 baseline;
`python -c "import numpy; numpy.show_runtime(); numpy.show_config()"` lists
the SIMD targets and the OpenBLAS build. Another numpy
or BLAS build, or a CPU without AVX-512, may change the low bits of the
tables; regenerate from the repository root with

    PYTHONPATH=src python3 -m qsl.cli <kind> --config tests/golden/<name>.json --out tests/golden/<name>

(`qsl <kind> --config tests/golden/<name>.json --out tests/golden/<name>`
once the package is installed), with QSL_SEED unset, and record the
regeneration and its reason in CHANGES.md.

The default 200-system sweep is pinned by the sha256 digests in
`SWEEP_DIGESTS` of tests/test_acceptance.py (criterion 9) rather than by
files here. Regenerate them the same way, from a config holding only
`{"seed": 20260810}`:

    PYTHONPATH=src python3 -m qsl.cli validity-sweep --config sweep.json --out sweep
    sha256sum sweep_report.json sweep_sweep.csv
"""

import json
from pathlib import Path

import pytest

from qsl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "refute_ml": "trajectory",
    "bd_gap_csv": "trajectory",
    "bd_gap_5level": "trajectory",
    "bd_gap_t_max": "trajectory",
    "bd_gap_10level": "trajectory",
    "bd_gap_degenerate": "trajectory",
    "trajectory_rotating": "trajectory",
    "trajectory_schrodinger": "trajectory",
    "alpha_table": "alpha",
    "alpha_table_json": "alpha",
    "alpha_table_grid": "alpha",
    "alpha_table_dense": "alpha",
    "validity_sweep": "sweep",
    "validity_sweep_full": "sweep",
    "validity_sweep_json": "sweep",
    "validity_sweep_wide": "sweep",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.delenv("QSL_SEED", raising=False)
    config = GOLDEN / f"{name}.json"
    cfg = json.loads(config.read_text())
    ext = cfg.get("format", "csv")
    prefix = tmp_path / name
    assert main([cfg["kind"], "--config", str(config), "--out", str(prefix)]) == 0
    for suffix in ("report.json", f"{CASES[name]}.{ext}"):
        produced = Path(f"{prefix}_{suffix}").read_bytes()
        expected = (GOLDEN / f"{name}_{suffix}").read_bytes()
        assert produced == expected, f"{name}_{suffix} differs from its golden copy"


def test_every_config_has_a_case():
    configs = {p.stem for p in GOLDEN.glob("*.json") if not p.stem.endswith("_report")}
    configs -= {f"{name}_{table}" for name, table in CASES.items()}
    assert configs == set(CASES)
