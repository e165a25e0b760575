"""Reference implementations and fixtures that only the tests use.

The tests check qsl against the references and build systems with a known
answer from the fixtures. Nothing under src/qsl imports this module, so no
product path can come to depend on them.
"""

import json
import math

import numpy as np
from mpmath import mp

from qsl import DimensionMismatch, HermitianOperator, PureState, RotatedHamiltonianSystem
from qsl.bounds import GOLDEN_TOL, INV_PHI, INV_PHI_SQ, _ml_objective
from qsl.cli import _fmt
from qsl.linalg import (
    EnergyStatistics,
    _as_complex_matrix,
    _energy_statistics,
    _ensure_operator,
    _ensure_state,
    _operator_and_state,
)
from qsl.sweeps import random_hermitian


def unitary_exp(op, t: float) -> np.ndarray:
    """exp(-i * op * t) via the eigendecomposition."""
    operator = _ensure_operator(op)
    values, vectors = operator.eig
    phases = np.exp(-1j * values * float(t))
    return (vectors * phases) @ vectors.conj().T


def dense_fidelities(sys: RotatedHamiltonianSystem, times) -> np.ndarray:
    """|<u0|psi_t>|^2 with psi_t = exp(-iAt) exp(-i(H - A)t) u0, from numpy's own eigh of H - A and of A."""
    u0 = sys.initial.amplitudes
    mu, w = np.linalg.eigh(sys.H.entries - sys.A.entries)
    a, v = np.linalg.eigh(sys.A.entries)
    times = np.asarray(times, dtype=float)[:, None]
    rotating = (np.exp(-1j * mu * times) * (w.conj().T @ u0)) @ w.T
    overlaps = (np.exp(-1j * a * times) * (rotating @ v.conj())) @ (v.T @ u0.conj())
    return np.abs(overlaps) ** 2


def mp_first_passage(sys: RotatedHamiltonianSystem, delta: float, t_max: float, points: int = 1000, dps: int = 30):
    """The first passage of F through delta on [0, t_max] in mpmath at dps digits, or None if the scan sees none.

    F(t) = |<u0|exp(-iAt) exp(-i(H - A)t) u0|^2 comes from mpmath's own
    eigendecompositions of H - A and of A, taken of the exact float entries.
    F is scanned at `points` uniform intervals, and `findroot` refines the
    first interval whose right end has F <= delta. A scan can step over a
    touch, so the root must be a crossing, with F' < 0 there.
    """
    with mp.workdps(dps):
        u0 = mp.matrix(sys.initial.amplitudes.tolist())
        u0 /= mp.norm(u0)
        mu, w = mp.eighe(mp.matrix(sys.H.entries.tolist()) - mp.matrix(sys.A.entries.tolist()))
        a, v = mp.eighe(mp.matrix(sys.A.entries.tolist()))
        c, probe, mix = w.H * u0, v.H * u0, v.H * w
        levels = range(sys.dim)

        def fidelity_at(t):
            rotating = [mp.expj(-mu[k] * t) * c[k] for k in levels]
            overlap = mp.fsum(
                mp.conj(probe[j]) * mp.expj(-a[j] * t) * mp.fsum(mix[j, k] * rotating[k] for k in levels)
                for j in levels
            )
            return overlap.real**2 + overlap.imag**2

        step = mp.mpf(t_max) / points
        for i in range(1, points + 1):
            if fidelity_at(i * step) <= delta:
                root = mp.findroot(lambda t: fidelity_at(t) - delta, ((i - 1) * step, i * step), solver="anderson")
                slope = mp.diff(fidelity_at, root)
                assert slope < 0, f"F' = {slope} at the root: a touch, not a crossing"
                return float(root)
    return None


def density(state: PureState) -> np.ndarray:
    """The rank-1 density operator |u><u|."""
    return np.outer(state.amplitudes, state.amplitudes.conj())


def hamiltonian_at(sys: RotatedHamiltonianSystem, t: float) -> HermitianOperator:
    """The instantaneous Hamiltonian exp(-iAt) H exp(+iAt)."""
    rot = unitary_exp(sys.A, t)
    return HermitianOperator(rot @ sys.H.entries @ rot.conj().T)


def rotating_frame(sys: RotatedHamiltonianSystem, t: float, state_at_t: PureState) -> PureState:
    """Apply exp(+iAt); the result evolves under the time-independent H - A."""
    if state_at_t.dim != sys.dim:
        raise DimensionMismatch(f"state dim {state_at_t.dim} != system dim {sys.dim}")
    return PureState.normalized(unitary_exp(sys.A, -t) @ state_at_t.amplitudes)


def fidelity(state1, state2) -> float:
    """|<u1|u2>|^2 for pure states; 1 for equal states up to a global phase."""
    s1, s2 = _ensure_state(state1), _ensure_state(state2)
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"state dims differ: {s1.dim} != {s2.dim}")
    overlap = np.vdot(s1.amplitudes, s2.amplitudes)
    return float(overlap.real**2 + overlap.imag**2)


def state_statistics(op, state) -> EnergyStatistics:
    """The statistics of op in one state, from op's eigenbasis; raw arrays are coerced as the operator and state would be."""
    operator, s = _operator_and_state(op, state)
    return _energy_statistics(operator, np.abs(s.amplitudes @ operator.eig[1].conj()) ** 2)


def grouped(weights, starts):
    """The rows of weights summed per level: a level's first row, then its other rows added in order.

    `np.add.reduceat` is not a reference for this: it does not add a group of 3 or more rows in order.
    """
    ends = list(starts[1:]) + [len(weights)]
    out = []
    for start, end in zip(starts, ends):
        total = weights[start]
        for k in range(start + 1, end):
            total = total + weights[k]
        out.append(total)
    return np.array(out)


def sample_major_statistics(values, weights):
    """The energy statistics with every reduction over the last axis of weights, one row per state."""
    mean = weights @ values
    centered = values - mean[..., None]
    spread = np.sqrt(np.maximum((weights * centered**2).sum(axis=-1), 0.0))
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > 1e-9 * float(np.abs(values).max()))
    levels = np.add.reduceat(values, starts) / np.diff(starts, append=len(values))
    occupations = grouped(weights.T, starts).T
    occupied = occupations > 1e-12
    eps_min = np.where(occupied, levels, np.inf).min(axis=-1)
    eps_max = np.where(occupied, levels, -np.inf).max(axis=-1)
    # the normalized energies subtract the extreme levels before weighting, not eps_min from the mean
    norm_energy = weights @ (values - levels[0]) - (eps_min - levels[0])
    dual_norm_energy = weights @ (levels[-1] - values) - (levels[-1] - eps_max)
    return EnergyStatistics(
        mean, spread, levels, occupations, eps_min, eps_max, occupied, norm_energy, dual_norm_energy
    )


def phase_tolerance(mu, t_max):
    """8 ulps per unit of the largest phase: block powers and a direct exp round the phases differently."""
    return 8 * np.finfo(float).eps * (1.0 + np.abs(mu).max() * t_max)


def level_occupations(op, state) -> tuple[np.ndarray, np.ndarray]:
    """Distinct level values (degeneracy-grouped) and their occupation weights."""
    stats = state_statistics(op, state)
    return stats.levels, stats.occupations


def _coerce_matrix(obj) -> np.ndarray:
    if isinstance(obj, HermitianOperator):
        return obj.entries
    if isinstance(obj, PureState):
        return density(obj)
    return _as_complex_matrix(obj)


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator ab - ba; zero iff the operands commute."""
    ma, mb = _coerce_matrix(a), _coerce_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"shapes differ: {ma.shape} != {mb.shape}")
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def alpha_grid_oracle(delta: float, points: int = 10**6) -> float:
    """Independent dense-grid scan of the same objective (no refinement)."""
    delta = float(delta)
    if delta == 0.0:
        return math.pi / 2.0
    if delta == 1.0:
        return 0.0
    z_max = math.sqrt(delta)
    grid = np.linspace(-z_max, z_max, points + 1)
    return float(_ml_objective(grid, delta).min())


def golden_section_min(f, a: float, b: float) -> tuple[float, float]:
    """Shrink [a, b] to GOLDEN_TOL around a local minimum of f; returns (x, f(x)) at the midpoint."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h > GOLDEN_TOL:
        c = a + INV_PHI_SQ * h
        d = a + INV_PHI * h
        yc, yd = f(c), f(d)
        n = int(math.ceil(math.log(GOLDEN_TOL / h) / math.log(INV_PHI)))
        for _ in range(n - 1):
            h *= INV_PHI
            if yc < yd:
                b, d, yd = d, c, yc
                c = a + INV_PHI_SQ * h
                yc = f(c)
            else:
                a, c, yc = c, d, yd
                d = a + INV_PHI * h
                yd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def alpha_array_search(delta: float) -> float:
    """alpha(delta) as a golden section over the array objective, every step a 0-d `_ml_objective`.

    The search is this module's own copy, so the reference shares no search code with `alpha`.
    """
    delta = float(delta)
    z_max = math.sqrt(delta)
    grid = np.linspace(-z_max, z_max, 2048)
    i = int(np.argmin(_ml_objective(grid, delta)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    _, interior = golden_section_min(lambda z: float(_ml_objective(z, delta)), lo, hi)
    return min(interior, (1.0 - z_max) * math.pi / 2.0)


def write_csv_reference(path, table: dict) -> None:
    """The CSV table one row at a time: every cell of a float or integer array through "%.17g", every other cell through `_fmt`."""
    numeric = [isinstance(cells, np.ndarray) and cells.dtype.kind in "iuf" for cells in table.values()]
    columns = [cells.tolist() if isinstance(cells, np.ndarray) else cells for cells in table.values()]
    columns = [cells if number else list(map(_fmt, cells)) for cells, number in zip(columns, numeric)]
    template = ",".join("%.17g" if number else "%s" for number in numeric) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table) + "\n")
        fh.writelines(template % row for row in zip(*columns, strict=True))


def write_json_reference(path, table: dict) -> None:
    """The JSON table in one `json.dump(..., indent=2)` of every row: strings and None as they are, other cells floats."""
    columns = [cells.tolist() if isinstance(cells, np.ndarray) else cells for cells in table.values()]
    rows = [[cell if cell is None or isinstance(cell, str) else float(cell) for cell in row]
            for row in zip(*columns, strict=True)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": list(table), "rows": rows}, fh, indent=2)
        fh.write("\n")


def random_saturating_two_level(rng: np.random.Generator) -> RotatedHamiltonianSystem:
    """Isolated two-level system whose evolution saturates both bounds.

    Saturation of the Mandelstam-Tamm bound for an isolated system requires
    an equal-weight superposition of two energy eigenstates, so the initial
    state is built that way with a random relative phase. The level gap is
    drawn from [1, 5] directly (random basis and offset) so the evolution
    speed never degenerates.
    """
    _, vectors = random_hermitian(rng, 2).eig
    gap = rng.uniform(1.0, 5.0)
    offset = rng.uniform(-2.0, 2.0)
    values = np.array([offset - gap / 2.0, offset + gap / 2.0])
    hamiltonian = HermitianOperator((vectors * values) @ vectors.conj().T)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    state = PureState.normalized(vectors[:, 0] + phase * vectors[:, 1])
    zero = HermitianOperator(np.zeros((2, 2)))
    return RotatedHamiltonianSystem(hamiltonian, zero, state)
