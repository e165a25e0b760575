"""Seeded random system generation and the bound-validity sweep.

Random systems come in two kinds that both conserve level occupations:
"coupled" systems pair a random Hamiltonian with the geodesic-generating
coupling operator, "isolated" systems set A = 0. All randomness flows from a
single numpy Generator so sweeps reproduce bit for bit from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, _check_delta, evaluate_bounds, first_passage
from .counterexamples import build_coupling
from .errors import DomainError, NotReached
from .evolution import RotatedHamiltonianSystem
from .linalg import HermitianOperator, PureState, variance

DEFAULT_DELTAS = tuple(round(0.1 * k, 1) for k in range(10))


def random_hermitian(rng: np.random.Generator, dim: int, spectral_radius: float = 1.0) -> HermitianOperator:
    """Random dense Hermitian matrix rescaled to the given spectral radius."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = (g + g.conj().T) / 2.0
    radius = float(np.abs(np.linalg.eigvalsh(mat)).max())
    return HermitianOperator(mat * (spectral_radius / radius))


def random_pure_state(rng: np.random.Generator, dim: int) -> PureState:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.normalized(vec)


def random_coupled_system(rng: np.random.Generator, dim: int) -> RotatedHamiltonianSystem:
    """Random Hamiltonian and state with the geodesic coupling operator.

    The Hamiltonian is rescaled so the initial energy uncertainty hits a
    target drawn from [0.5, 2.5], which keeps first-passage times O(1) and
    tangential crossings well conditioned; draws are rejected if the
    rescaled spectral radius would exceed 5. A single level has no energy
    uncertainty to rescale, so dim must be at least 2.
    """
    if dim < 2:
        raise DomainError(f"a coupled system needs dim >= 2, got {dim!r}")
    state = random_pure_state(rng, dim)
    target = rng.uniform(0.5, 2.5)
    while True:
        radius = rng.uniform(1.0, 5.0)
        hamiltonian = random_hermitian(rng, dim, spectral_radius=radius)
        spread = math.sqrt(variance(hamiltonian, state))
        if spread > 1e-3 and radius * target / spread <= 5.0:
            break
    hamiltonian = HermitianOperator(hamiltonian.entries * (target / spread))
    return RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)


def random_isolated_system(rng: np.random.Generator, dim: int) -> RotatedHamiltonianSystem:
    """Random Hamiltonian of spectral radius drawn from [1, 5] and random state, with A = 0."""
    hamiltonian = random_hermitian(rng, dim, spectral_radius=rng.uniform(1.0, 5.0))
    state = random_pure_state(rng, dim)
    zero = HermitianOperator(np.zeros((dim, dim)))
    return RotatedHamiltonianSystem(hamiltonian, zero, state)


@dataclass
class SweepRow:
    """One (system, delta) cell of a validity sweep."""

    system: int
    kind: str
    dim: int
    delta: float
    reached: bool
    report: BoundReport | None

    @property
    def worst_margin(self) -> float | None:
        """Largest (bound - tau) among finite bounds; negative means all valid."""
        return None if self.report is None else max(self.report.margins().values(), default=None)


def validity_sweep(
    *,
    n_systems: int = 200,
    dim_range: tuple[int, int] = (2, 6),
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
    seed: int = 0,
    isolated_fraction: float = 0.3,
    samples: int = 1000,
) -> tuple[list[SweepRow], int]:
    """Check every bound against the measured time on seeded random systems.

    Returns the evaluated rows and the number of violations (cells where a
    finite bound exceeds the measured first-passage time by more than the
    validity slack). Cells whose target fidelity is never reached are
    recorded with reached=False and do not count as violations. Every
    delta, 2 <= dim_range[0] <= dim_range[1] and 0 <= isolated_fraction <= 1
    are checked before the first system is built.
    """
    deltas = tuple(map(_check_delta, deltas))
    if not 2 <= dim_range[0] <= dim_range[1]:
        raise DomainError(f"dim_range must satisfy 2 <= low <= high, got {dim_range!r}")
    if not 0.0 <= isolated_fraction <= 1.0:
        raise DomainError(f"isolated_fraction must lie in [0, 1], got {isolated_fraction!r}")
    rng = np.random.default_rng(seed)
    rows: list[SweepRow] = []
    violations = 0
    for index in range(n_systems):
        dim = int(rng.integers(dim_range[0], dim_range[1] + 1))
        isolated = rng.uniform() < isolated_fraction
        if isolated:
            sys = random_isolated_system(rng, dim)
            kind = "isolated"
        else:
            sys = random_coupled_system(rng, dim)
            kind = "coupled"
        spread = math.sqrt(variance(sys.H, sys.initial))
        t_max = (1.05 * math.pi if kind == "coupled" else 40.0) / max(spread, 1e-6)
        for delta in deltas:
            try:
                tau = first_passage(sys, delta, t_max)
            except NotReached:
                rows.append(SweepRow(index, kind, dim, delta, False, None))
                continue
            report = evaluate_bounds(sys, delta, samples=samples, tau=tau)
            rows.append(SweepRow(index, kind, dim, delta, True, report))
            if report.violations():
                violations += 1
    return rows, violations
