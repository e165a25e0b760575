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
skips the exp(-iAt) factor, which is then exactly the identity. A classical
fixed-step 4th-order integrator that builds H(t) on its own,
`propagate_numeric`, is the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, DomainError, StepTooLarge
from .linalg import (
    DEFAULT_OCCUPATION_TOL,
    HermitianOperator,
    PureState,
    _level_groups,
    unitary_exp,
)

NORM_DRIFT_TOL = 1e-6


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
        return float(np.linalg.norm(self.A.entries)) <= 1e-14 * (
            1.0 + float(np.linalg.norm(self.H.entries))
        )

    @cached_property
    def evaluator(self) -> "_SpectralEvaluator":
        """The cached exact propagator of this system."""
        return _SpectralEvaluator(self)

    def hamiltonian_at(self, t: float) -> HermitianOperator:
        """The instantaneous Hamiltonian exp(-iAt) H exp(+iAt)."""
        rot = unitary_exp(self.A, t)
        return HermitianOperator(rot @ self.H.entries @ rot.conj().T)

    def __repr__(self) -> str:
        return f"RotatedHamiltonianSystem(dim={self.dim})"


class _SpectralEvaluator:
    """exp(-iAt) exp(-i(H-A)t) u0 from the eigenpairs (mu, W) of H - A and (a, V) of A.

    Rotating frame: phi_t = W exp(-i mu t) c0 with c0 = W^dagger u0.
    Schroedinger picture: psi_t = V exp(-i a t) V^dagger phi_t. Fidelities
    take <u0|psi_t> in the eigenbasis of A, as the product of (V^dagger u0)^dagger,
    exp(-i a t), V^dagger W and exp(-i mu t) c0, without forming psi_t. When A
    is exactly zero, a = 0 and V = I: both maps skip exp(-i a t), and the
    general formula would reproduce their numbers bit for bit.
    """

    def __init__(self, sys: RotatedHamiltonianSystem):
        self.mu, self.W = sys.effective.eig
        self.a, self.V = sys.A.eig
        self.u0 = sys.initial.amplitudes
        self.c0 = self.W.conj().T @ self.u0
        self.a_is_zero = not np.any(sys.A.entries)
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
        if self.a_is_zero:
            return phi, phi
        d = phi @ self.V.conj()
        psi = (np.exp(np.outer(times, -1j * self.a)) * d) @ self.V.T
        return phi, psi

    def fidelities(self, times) -> np.ndarray:
        """|<u0|psi_t>|^2 at each of the given times, without forming the states."""
        times = np.asarray(times, dtype=float)
        mixed = (np.exp(times[:, None] * self._rate_mu) * self.c0) @ self._mix
        if not self.a_is_zero:
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


def rotating_frame(sys: RotatedHamiltonianSystem, t: float, state_at_t: PureState) -> PureState:
    """Apply exp(+iAt); the result evolves under the time-independent H - A."""
    if state_at_t.dim != sys.dim:
        raise DimensionMismatch(f"state dim {state_at_t.dim} != system dim {sys.dim}")
    return PureState.normalized(unitary_exp(sys.A, -t) @ state_at_t.amplitudes)


def propagate_numeric(sys: RotatedHamiltonianSystem, t: float, step: float) -> PureState:
    """Integrate the Schroedinger equation with the instantaneous H(t).

    Classical fixed-step 4th-order scheme with renormalization after every
    step. Raises StepTooLarge if the pre-renormalization norm drift of any
    step exceeds 1e-6, which signals an unreliable step size.
    """
    if not 0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if not 0 <= t < math.inf:
        raise DomainError(f"t must be nonnegative and finite, got {t!r}")

    a, V = sys.A.eig
    h_tilde = V.conj().T @ sys.H.entries @ V
    freq = np.subtract.outer(a, a)  # freq[j,k] = a_j - a_k

    def h_at(time: float) -> np.ndarray:
        return V @ (h_tilde * np.exp(-1j * freq * time)) @ V.conj().T

    psi = sys.initial.amplitudes.copy()
    n_full = int(t // step)
    tail = t - n_full * step
    sizes = [step] * n_full + ([tail] if tail > 1e-15 else [])

    time = 0.0
    h_here = h_at(0.0)
    for h in sizes:
        h_mid = h_at(time + h / 2)
        h_next = h_at(time + h)
        k1 = -1j * (h_here @ psi)
        k2 = -1j * (h_mid @ (psi + (h / 2) * k1))
        k3 = -1j * (h_mid @ (psi + (h / 2) * k2))
        k4 = -1j * (h_next @ (psi + h * k3))
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > NORM_DRIFT_TOL:
            raise StepTooLarge(
                f"norm drift {abs(norm - 1.0):.3e} at t={time + h:.6g} "
                f"exceeds {NORM_DRIFT_TOL}; reduce the step"
            )
        psi = psi / norm
        time += h
        h_here = h_next
    return PureState(psi)


@dataclass
class Trajectory:
    """Uniformly sampled evolution record with per-sample observables.

    The energy observables refer to the instantaneous Hamiltonian H(t) and
    are identical in both pictures; `fidelity` and `bloch` describe the curve
    drawn by the states of the requested frame. `occupations[i, k]` is the
    weight at `times[i]` on the k-th lowest level of H (degeneracies grouped).
    """

    times: np.ndarray
    states: np.ndarray
    fidelity: np.ndarray
    exp_energy: np.ndarray
    energy_uncertainty: np.ndarray
    eps_min: np.ndarray
    eps_max: np.ndarray
    norm_energy: np.ndarray
    dual_norm_energy: np.ndarray
    occupations: np.ndarray
    bloch: np.ndarray | None
    frame: str = "schrodinger"

    @property
    def n_samples(self) -> int:
        return len(self.times)


def sample_trajectory(
    sys: RotatedHamiltonianSystem,
    t_max: float,
    n: int,
    *,
    occupation_tol: float = DEFAULT_OCCUPATION_TOL,
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
    weights = np.abs(phi @ U.conj()) ** 2
    exp_energy = weights @ lam
    # centered second moment: no cancellation noise for near-stationary states
    centered = lam[None, :] - exp_energy[:, None]
    energy_uncertainty = np.sqrt(np.maximum((weights * centered**2).sum(axis=1), 0.0))

    groups = _level_groups(lam)
    levels = np.array([lam[g].mean() for g in groups])
    occupations = np.column_stack([weights[:, g].sum(axis=1) for g in groups])

    occupied = occupations > occupation_tol
    eps_min = np.where(occupied, levels, np.inf).min(axis=1)
    eps_max = np.where(occupied, levels, -np.inf).max(axis=1)
    norm_energy = exp_energy - eps_min
    dual_norm_energy = eps_max - exp_energy

    frame_states = psi if frame == "schrodinger" else phi
    u0 = sys.initial.amplitudes
    overlaps = frame_states @ u0.conj()
    fid = overlaps.real**2 + overlaps.imag**2

    bloch = None
    if sys.dim == 2:
        cross = frame_states[:, 0].conj() * frame_states[:, 1]
        bloch = np.column_stack(
            [
                np.abs(frame_states[:, 0]) ** 2 - np.abs(frame_states[:, 1]) ** 2,
                -2.0 * cross.imag,
                2.0 * cross.real,
            ]
        )

    return Trajectory(
        times=times,
        states=frame_states,
        fidelity=fid,
        exp_energy=exp_energy,
        energy_uncertainty=energy_uncertainty,
        eps_min=eps_min,
        eps_max=eps_max,
        norm_energy=norm_energy,
        dual_norm_energy=dual_norm_energy,
        occupations=occupations,
        bloch=bloch,
        frame=frame,
    )
