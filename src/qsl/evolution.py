"""State propagation under rotated time-dependent Hamiltonians.

The systems handled here have an instantaneous Hamiltonian obtained by
conjugating a fixed Hermitian operator H with the unitary group generated by
a second Hermitian operator A:

    H(t) = exp(-iAt) H exp(+iAt)

The Schroedinger-picture propagator factors exactly as
exp(-iAt) exp(-i(H-A)t). It lives in one place: the cached evaluator
`RotatedHamiltonianSystem.evaluator`, which every exact evolution goes
through. It has two batched maps: `states(times)` for trajectories and
single states, and `fidelities(times)` for the first-passage scan and its
refinement (`fidelity_function` hands out the latter). The evaluator keeps
its last fidelity scan, so the first-passage searches for several target
fidelities on one window share one scan, and when A is exactly zero it
skips the exp(-iAt) factor, which is then exactly the identity.

The independent cross-check, `propagate_numeric`, is a classical fixed-step
4th-order (RK4) integrator that builds H(t) on its own. For the linear
equation psi' = -iH(t) psi one RK4 step is a matrix. In the eigenbasis
(a, V) of A, M(t) = -iV^dagger H(t) V has the entries
-i(V^dagger H V)_jk exp(-i(a_j - a_k)t), and the step of length h from time
s is

    K1 = M(s),  K2 = M(s + h/2)(I + h/2 K1),  K3 = M(s + h/2)(I + h/2 K2),
    K4 = M(s + h)(I + h K3),  P = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

The step matrices of a block of `_BLOCK_STEPS` steps are built at once, and
their prefix products P_k ... P_0 come from Hillis-Steele doubling (Hillis
and Steele, CACM 29, 1986); the normalized state is carried from block to
block. Renormalizing is a scalar, so the drift of each step is the ratio of
consecutive un-normalized norms, as in a step-by-step loop. Step times are
sequential sums of the step sizes, so they match such a loop bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, DomainError, StepTooLarge
from .linalg import (
    EnergyStatistics,
    HermitianOperator,
    PureState,
    _energy_statistics,
    _state_statistics,
)

NORM_DRIFT_TOL = 1e-6
# RK4 steps per block: longer blocks gain no time and cost peak memory
_BLOCK_STEPS = 64


def _check_count(value, minimum: int, message: str) -> int:
    """value as an int, or DomainError(message.format(value)) unless an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise DomainError(message.format(value))
    return int(value)


def bloch_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axis operators for two-level Bloch coordinates.

    The first basis vector sits on the positive x axis: X = diag(1, -1),
    Y = i(|e1><e2| - |e2><e1|), Z = |e1><e2| + |e2><e1|.
    """
    x = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
    z = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return x, y, z


@dataclass(frozen=True, eq=False, repr=False)
class RotatedHamiltonianSystem:
    """A fixed Hermitian pair (H, A) plus an initial pure state; frozen, as derived values are cached."""

    H: HermitianOperator
    A: HermitianOperator
    initial: PureState

    def __post_init__(self):
        if not (self.H.dim == self.A.dim == self.initial.dim):
            raise DimensionMismatch(
                f"dims differ: H {self.H.dim}, A {self.A.dim}, state {self.initial.dim}"
            )

    @property
    def dim(self) -> int:
        return self.H.dim

    @cached_property
    def effective(self) -> HermitianOperator:
        """The rotating-frame generator H - A."""
        return HermitianOperator(self.H.entries - self.A.entries)

    @cached_property
    def is_isolated(self) -> bool:
        """A is exactly zero: the one test of isolation, for ML, the certificate and the propagator."""
        return not np.any(self.A.entries)

    @cached_property
    def initial_statistics(self) -> EnergyStatistics:
        """<H>, Delta H, the level occupations and the occupied extrema of H in the initial state."""
        return _state_statistics(self.H, self.initial)

    @cached_property
    def evaluator(self) -> "_SpectralEvaluator":
        """The cached exact propagator of this system."""
        return _SpectralEvaluator(self)

    def __repr__(self) -> str:
        return f"RotatedHamiltonianSystem(dim={self.dim})"


def _centred_eig(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of op - (tr op / d) I: a constant offset then costs the eigenvectors no precision."""
    shift = np.trace(op.entries).real / op.dim
    return HermitianOperator(op.entries - shift * np.eye(op.dim)).eig


class _SpectralEvaluator:
    """exp(-iAt) exp(-i(H-A)t) u0 from the eigenpairs (mu, W) of H - A and (a, V) of A.

    Both operators are centred on tr/d first: the states carry a global phase.
    Rotating frame: phi_t = W exp(-i mu t) c0 with c0 = W^dagger u0.
    Schroedinger picture: psi_t = V exp(-i a t) V^dagger phi_t. Fidelities
    take <u0|psi_t> in the eigenbasis of A, as the product of (V^dagger u0)^dagger,
    exp(-i a t), V^dagger W and exp(-i mu t) c0, without forming psi_t. For an
    isolated system, a = 0 and V = I: both maps skip exp(-i a t), and the
    general formula would reproduce their numbers bit for bit. The skip is for
    speed: isolated systems are 30% of the default sweep, and a 100-system
    all-isolated `validity_sweep` on one BLAS thread took 1.10-1.41 s with it
    and 1.43-1.67 s without it (10 alternating runs a side, 2 CPUs).
    """

    def __init__(self, sys: RotatedHamiltonianSystem):
        self.mu, self.W = _centred_eig(sys.effective)
        self.a, self.V = _centred_eig(sys.A)
        self.u0 = sys.initial.amplitudes
        self.c0 = self.W.conj().T @ self.u0
        self._isolated = sys.is_isolated
        self._mix = self.W.T @ self.V.conj()
        self._probe = self.V.T @ self.u0.conj()
        # A global phase of either factor drops out of fidelities: phases about the
        # mean energies of u0 keep a constant energy offset from costing precision.
        self._rate_mu = -1j * (self.mu - self.mu @ np.abs(self.c0) ** 2)
        self._rate_a = -1j * (self.a - self.a @ np.abs(self._probe) ** 2)
        self._scan: tuple | None = None

    def states(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Rotating-frame and Schroedinger states at the given times, one per row."""
        times = np.asarray(times, dtype=float)
        phi = (np.exp(np.outer(times, -1j * self.mu)) * self.c0) @ self.W.T
        if self._isolated:
            return phi, phi
        d = phi @ self.V.conj()
        psi = (np.exp(np.outer(times, -1j * self.a)) * d) @ self.V.T
        return phi, psi

    def fidelities(self, times) -> np.ndarray:
        """|<u0|psi_t>|^2 at each of the given times, without forming the states."""
        times = np.asarray(times, dtype=float)
        mixed = (np.exp(times[:, None] * self._rate_mu) * self.c0) @ self._mix
        if not self._isolated:
            mixed *= np.exp(times[:, None] * self._rate_a)
        overlaps = mixed @ self._probe
        return overlaps.real**2 + overlaps.imag**2

    def scan(self, t_max: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only times and fidelities at samples + 1 uniform times on [0, t_max].

        The last scan is kept, so repeating the window costs nothing.
        """
        key = (t_max, samples)
        if self._scan is None or self._scan[0] != key:
            times = np.linspace(0.0, float(t_max), samples + 1)
            fids = self.fidelities(times)
            times.flags.writeable = False
            fids.flags.writeable = False
            self._scan = key, times, fids
        return self._scan[1:]


def propagate_exact(sys: RotatedHamiltonianSystem, t: float) -> PureState:
    """State at time t via the factored propagator exp(-iAt) exp(-i(H-A)t)."""
    return PureState.normalized(sys.evaluator.states([float(t)])[1][0])


def fidelity_function(sys: RotatedHamiltonianSystem):
    """Batched map times -> fidelities between the evolved and initial states."""
    return sys.evaluator.fidelities


def propagate_numeric(sys: RotatedHamiltonianSystem, t: float, step: float) -> PureState:
    """Integrate the Schroedinger equation with the instantaneous H(t).

    Classical fixed-step 4th-order scheme, renormalized after every step, as
    batched step matrices (see the module docstring). Raises StepTooLarge at
    the first step whose norm drift before renormalizing is not <= 1e-6.
    """
    if not 0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")

    n_full = int(t // step)
    tail = t - n_full * step
    n_steps = n_full + (tail > 1e-15)
    if not n_steps:
        return sys.initial
    a, V = sys.A.eig
    rate, freq = -1j * (V.conj().T @ sys.H.entries @ V), -1j * np.subtract.outer(a, a)
    eye, psi, edges = np.eye(sys.dim), V.conj().T @ sys.initial.amplitudes, np.zeros(1)
    with np.errstate(all="ignore"):  # an overflow shows up as a non-finite drift
        for lo in range(0, n_steps, _BLOCK_STEPS):
            block = np.full(min(_BLOCK_STEPS, n_steps - lo), step)
            block[-1] = tail if lo + block.size > n_full else step
            edges = np.cumsum(np.concatenate((edges[-1:], block)))  # sequential, as `time += h`
            h, mids = block[:, None, None], edges[:-1] + block / 2
            m_edge, m_mid = (rate * np.exp(np.multiply.outer(x, freq)) for x in (edges, mids))  # M(t)
            k2 = m_mid @ (eye + h / 2 * m_edge[:-1])
            k3 = m_mid @ (eye + h / 2 * k2)
            k4 = m_edge[1:] @ (eye + h * k3)
            prod = eye + h / 6 * (m_edge[:-1] + 2 * k2 + 2 * k3 + k4)
            for shift in (2**j for j in range((block.size - 1).bit_length())):  # prod[k] = P_k ... P_0
                prod[shift:] = prod[shift:] @ prod[:-shift]
            states = prod @ psi
            norms = np.linalg.norm(states, axis=1)
            drift = np.abs(norms / np.concatenate(([1.0], norms[:-1])) - 1.0)
            k = np.argmin(drift <= NORM_DRIFT_TOL)  # the first step out of tolerance, if any
            if not drift[k] <= NORM_DRIFT_TOL:
                raise StepTooLarge(
                    f"norm drift {drift[k]:.3e} at t={edges[k + 1]:.6g} "
                    f"exceeds {NORM_DRIFT_TOL}; reduce the step"
                )
            psi = states[-1] / norms[-1]
    return PureState(V @ psi)


@dataclass
class Trajectory:
    """Uniformly sampled evolution record with per-sample observables.

    `stats` holds the energy statistics of the instantaneous Hamiltonian
    H(t), one entry per sample, which are the same in both pictures;
    `stats.occupations[i, k]` is the weight at `times[i]` on the k-th lowest
    level of H (degeneracies grouped). `states`, `fidelity` and `bloch` (for
    two levels, the expectations of the `bloch_operators` axes) describe
    the curve drawn by the states of the requested frame.
    """

    times: np.ndarray
    states: np.ndarray
    fidelity: np.ndarray
    stats: EnergyStatistics
    bloch: np.ndarray | None

    @property
    def n_samples(self) -> int:
        return len(self.times)


def sample_trajectory(
    sys: RotatedHamiltonianSystem,
    t_max: float,
    n: int,
    *,
    frame: str = "schrodinger",
) -> Trajectory:
    """Evaluate the evolution at n+1 uniform times from 0 to t_max inclusive."""
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    n = _check_count(n, 2, "need at least 2 sampling intervals")
    if frame not in ("schrodinger", "rotating"):
        raise DomainError(f"unknown frame {frame!r}")

    times = np.linspace(0.0, float(t_max), n + 1)
    phi, psi = sys.evaluator.states(times)

    # Spectral observables of H(t) in psi_t equal those of H in the
    # rotating-frame state phi_t, since both pictures differ by exp(-iAt).
    lam, U = sys.H.eig
    stats = _energy_statistics(lam, np.abs(phi @ U.conj()) ** 2)

    frame_states = psi if frame == "schrodinger" else phi
    overlaps = frame_states @ sys.initial.amplitudes.conj()
    fid = overlaps.real**2 + overlaps.imag**2

    bloch = None
    if sys.dim == 2:
        axes = np.stack(bloch_operators())
        bloch = np.einsum("ti,kij,tj->tk", frame_states.conj(), axes, frame_states).real.copy()

    return Trajectory(times, frame_states, fid, stats, bloch)
