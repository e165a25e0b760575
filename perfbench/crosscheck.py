"""Cross-check of the RK4 integrator against the exact propagator.

    python3 perfbench/crosscheck.py --config <cfg.json> --out <result.json>

The config holds `seed`, `systems` and `step`. Seeded coupled and isolated
systems of dimension 2-6 are built first; then, for each, the state at a time
t in [0.5, 2.5] from `propagate_numeric` is compared with `propagate_exact`.
Dimensions and times are stratified, so every seed asks for nearly the same
number of integration steps. The result JSON holds the number of systems, the
failures (trace distance above 1e-8, or StepTooLarge), the largest distance,
a sha256 of every computed state and the time of the comparison loop.
qsl is reached through the package attributes, so a tracer that patches them
sees every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from time import perf_counter

TOLERANCE = 1e-8
COUPLED_PER_TEN = 7


def build_systems(qsl, seed: int, systems: int):
    """Seeded (system, t) pairs: dims cycle through 2-6, t is stratified."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dims = rng.permutation([2 + k % 5 for k in range(systems)])
    strata = rng.permutation(systems)
    cases = []
    for k in range(systems):
        dim = int(dims[k])
        if k % 10 < COUPLED_PER_TEN:
            system = qsl.random_coupled_system(rng, dim)
        else:
            system = qsl.random_isolated_system(rng, dim)
        t = 0.5 + 2.0 * (strata[k] + rng.uniform()) / systems
        cases.append((system, float(t)))
    return cases


def compare(qsl, cases, step: float) -> dict:
    digest = hashlib.sha256()
    failed = 0
    worst = 0.0
    causes: list[str] = []
    start = perf_counter()
    for index, (system, t) in enumerate(cases):
        exact = qsl.propagate_exact(system, t)
        digest.update(exact.amplitudes.tobytes())
        try:
            numeric = qsl.propagate_numeric(system, t, step)
        except qsl.StepTooLarge as exc:
            failed += 1
            causes.append(f"system {index}: StepTooLarge: {exc}")
            continue
        digest.update(numeric.amplitudes.tobytes())
        distance = qsl.trace_distance(exact, numeric)
        worst = max(worst, distance)
        if not distance <= TOLERANCE:
            failed += 1
            causes.append(f"system {index}: trace distance {distance:.3e} > {TOLERANCE:g}")
    return {
        "systems": len(cases),
        "failed": failed,
        "causes": causes,
        "max_distance": worst,
        "digest": digest.hexdigest(),
        "compare_s": perf_counter() - start,
    }


def run(qsl, config_path: str, out_path: str) -> None:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cases = build_systems(qsl, int(cfg["seed"]), int(cfg["systems"]))
    result = compare(qsl, cases, float(cfg["step"]))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    import qsl

    run(qsl, args.config, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
