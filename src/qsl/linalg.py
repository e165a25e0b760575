"""Dense complex linear algebra for small Hermitian systems.

Everything here works on explicit matrices (target dimensions <= 16) and is
deterministic: eigenvalues ascending, eigenvector phases fixed so the first
significant component of each column is real positive.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NonHermitian

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
OCCUPATION_THRESHOLD = 1e-12


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or DomainError if any entry is NaN or infinite (NaN fails every later comparison)."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} has non-finite entries")
    return values


def _as_complex_matrix(entries) -> np.ndarray:
    mat = np.array(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    return _finite(mat, "matrix")


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    mags = np.abs(vectors)
    pivots = vectors[np.argmax(mags > 1e-9 * mags.max(axis=0), axis=0), np.arange(vectors.shape[1])]
    # np.hypot, not np.abs: numpy's vectorised complex abs can differ from hypot in the last bit
    return vectors * (pivots.conjugate() / np.hypot(pivots.real, pivots.imag))


class HermitianOperator:
    """A dense complex Hermitian matrix with a cached eigendecomposition."""

    def __init__(self, entries):
        mat = _as_complex_matrix(entries)
        # relative to the largest entry, so the rounding of a matrix on a large energy scale passes
        deviation, size = np.abs(mat - mat.conj().T).max(), np.abs(mat).max()
        if deviation > HERMITICITY_TOL * size:
            raise NonHermitian(
                f"matrix deviates from its conjugate transpose by {deviation:.3e} "
                f"(> {HERMITICITY_TOL} times its largest entry, {size:.3e})"
            )
        # Exact symmetrization kills the sub-tolerance asymmetry.
        mat = (mat + mat.conj().T) / 2
        mat.flags.writeable = False
        self._entries = mat

    @classmethod
    def from_diagonal(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and phase-fixed unitary of eigenvectors."""
        values, vectors = np.linalg.eigh(self._entries)
        return values, _fix_phases(vectors)

    @cached_property
    def _spectrum(self) -> "_Spectrum":
        """The spectral radius and the degeneracy grouping of the eigenvalues, read by `_energy_statistics`.

        A level starts wherever the gap to the eigenvalue below exceeds 1e-9
        times the radius, max|eigenvalue|; its energy is the mean of its
        eigenvalues. Kept with the operator, so it is freed with it.
        """
        values = self.eig[0]
        radius = float(np.abs(values).max())
        starts = np.flatnonzero(new := np.diff(values, prepend=-np.inf) > 1e-9 * radius)
        levels = np.add.reduceat(values, starts) / np.diff(starts, append=len(values))
        levels.flags.writeable = False  # every statistics record of this operator shares it
        merged = tuple(zip((np.cumsum(new) - 1)[~new].tolist(), np.flatnonzero(~new).tolist()))
        return _Spectrum(radius, starts, levels, merged)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class PureState:
    """A unit-norm complex vector."""

    def __init__(self, amplitudes):
        vec = _finite(np.array(amplitudes, dtype=np.complex128).reshape(-1), "state")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state norm {norm!r} is not 1 within {NORM_TOL}")
        vec /= norm
        vec.flags.writeable = False
        self._amplitudes = vec

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from an unnormalized vector.

        Dividing first by the power of two of the largest real or imaginary part
        is exact, and keeps the norm's squares from underflowing or overflowing.
        """
        parts = _finite(np.array(amplitudes, dtype=np.complex128).reshape(-1), "state").view(np.float64)
        peak = np.abs(parts).max(initial=0.0)
        if peak == 0.0:
            raise DomainError("cannot normalize the zero vector")
        vec = np.ldexp(parts, -np.frexp(peak)[1]).view(np.complex128)
        return cls(vec / np.linalg.norm(vec))

    @property
    def dim(self) -> int:
        return self._amplitudes.shape[0]

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def _centred(mat: np.ndarray) -> np.ndarray:
    """mat - (tr mat / d) I: the Hermitian mat about its mean eigenvalue, so an energy offset costs no precision."""
    return mat - np.trace(mat).real / len(mat) * np.eye(len(mat))


def _ensure_operator(op) -> HermitianOperator:
    return op if isinstance(op, HermitianOperator) else HermitianOperator(op)


def _ensure_state(state) -> PureState:
    return state if isinstance(state, PureState) else PureState(state)


def _operator_and_state(op, state) -> tuple[HermitianOperator, PureState]:
    """op and state as a HermitianOperator and a PureState of the same dimension."""
    operator, s = _ensure_operator(op), _ensure_state(state)
    if operator.dim != s.dim:
        raise DimensionMismatch(f"operator dim {operator.dim} != state dim {s.dim}")
    return operator, s


def expectation(op, state) -> float:
    operator, s = _operator_and_state(op, state)
    vec = s.amplitudes
    return float(np.real(np.vdot(vec, operator.entries @ vec)))


def variance(op, state) -> float:
    """Variance of op in state, computed as ||(op - <op>) psi||^2 (never negative)."""
    operator, s = _operator_and_state(op, state)
    vec = s.amplitudes
    mean = np.vdot(vec, operator.entries @ vec).real
    residual = operator.entries @ vec - mean * vec
    return float(np.real(np.vdot(residual, residual)))


def trace_distance(state1, state2) -> float:
    """Pure-state trace distance sqrt(1 - fidelity), computed without cancellation.

    Uses the norm of the component of one state perpendicular to the other,
    which stays accurate for nearly identical states where 1 - fidelity
    underflows.
    """
    s1, s2 = _ensure_state(state1), _ensure_state(state2)
    if s1.dim != s2.dim:
        raise DimensionMismatch(f"state dims differ: {s1.dim} != {s2.dim}")
    overlap = np.vdot(s1.amplitudes, s2.amplitudes)
    residual = s2.amplitudes - overlap * s1.amplitudes
    return float(np.linalg.norm(residual))


class _Spectrum(NamedTuple):
    """`HermitianOperator._spectrum`: radius, each level's first index and energy, (level, index) of the others."""

    radius: float
    starts: np.ndarray
    levels: np.ndarray
    merged: tuple


class EnergyStatistics(NamedTuple):
    """An operator's statistics in a batch of states (see `_energy_statistics`), one entry per state."""

    exp_energy: np.ndarray
    energy_uncertainty: np.ndarray
    levels: np.ndarray
    occupations: np.ndarray
    eps_min: np.ndarray
    eps_max: np.ndarray
    occupied: np.ndarray
    norm_energy: np.ndarray
    dual_norm_energy: np.ndarray


def _energy_statistics(operator: HermitianOperator, weights) -> EnergyStatistics:
    """Mean, spread, level occupations and occupied extrema of one state or of a batch.

    A 1-d `weights[k]` is one state's weight on the k-th eigenvector of
    `operator`; a batch is levels x states, `weights[k, i]` for the i-th
    state. Every state shares `levels`, the degeneracy-grouped eigenvalues,
    which the operator groups once (`HermitianOperator._spectrum`). A level
    is occupied when its weight exceeds OCCUPATION_THRESHOLD, as `occupied`
    marks, and eps_min/eps_max are the extreme ones (inf/-inf when none is).
    `occupations` and `occupied` are indexed [state, level].

    Every reduction runs down the level rows: numpy reduces a short last
    axis slowly. One state keeps the bits of the sample-major formulas (a
    dot product per weighted sum, a blocked sum for the spread). A batch
    adds its rows in order, which moves <H> and dH by ulps from those
    formulas and, with the block-power phases of `sample_trajectory`, took
    the seed-4242 sweep from 2.08 to 1.68 s wall. The grouping (a level's
    first row, then its other rows in order: no loop without degeneracy)
    and the extrema give the bits of either layout.

    The normalized energies subtract before they weight: <H> - eps_min is
    the weighted sum of `values - levels[0]` less `eps_min - levels[0]`
    (eps_max - <H> mirrors it), so both round on the scale of the spectral
    width, not on that of |<H>|, which an energy offset inflates.
    """
    values = operator.eig[0]
    radius, starts, levels, merged = operator._spectrum
    lift = (1,) * (np.ndim(weights) - 1)  # a level's entry spans its row of a batch
    def down(column):  # sum_k column[k] weights[k]: a dot product, or a batch's rows added in order
        return column @ weights if not lift else (column[:, None] * weights).sum(axis=0)
    mean = down(values)
    # centered second moment: no cancellation noise for near-stationary states; scaled by the exact
    # power of two of the spectral radius, so the squares do not overflow on a large energy scale
    exponent = np.frexp(radius)[1]
    centered = np.ldexp(values.reshape(-1, *lift) - mean, -exponent)
    spread = np.ldexp(np.sqrt((weights * centered**2).sum(axis=0)), exponent)
    occupations = weights[starts]  # each level's first row, then its other rows added in order
    for level, k in merged:
        occupations[level] += weights[k]
    occupied = occupations > OCCUPATION_THRESHOLD
    if lift and occupied.all():  # the extrema are the end levels, so the normalized energies' corrections are 0
        eps_min, eps_max = np.full(weights.shape[1:], levels[0]), np.full(weights.shape[1:], levels[-1])
        norm_energy, dual_norm_energy = down(values - levels[0]), down(levels[-1] - values)
    else:
        column = levels.reshape(-1, *lift)
        eps_min = np.where(occupied, column, np.inf).min(axis=0)
        eps_max = np.where(occupied, column, -np.inf).max(axis=0)
        norm_energy = down(values - levels[0]) - (eps_min - levels[0])
        dual_norm_energy = down(levels[-1] - values) - (levels[-1] - eps_max)
    return EnergyStatistics(
        mean, spread, levels, occupations.T, eps_min, eps_max, occupied.T, norm_energy, dual_norm_energy
    )
