"""State propagation under rotated time-dependent Hamiltonians.

The systems handled here have an instantaneous Hamiltonian obtained by
conjugating a fixed Hermitian operator H with the unitary group generated by
a second Hermitian operator A:

    H(t) = exp(-iAt) H exp(+iAt)

The Schroedinger-picture propagator factors exactly as exp(-iAt) exp(-i(H-A)t).
It lives in one place: the cached evaluator `RotatedHamiltonianSystem.evaluator`,
which every exact evolution goes through. It has four batched maps:
`rotating(times)` gives the rotating-frame states phi_t = exp(-i(H-A)t) u0,
`schrodinger(times, phi)` turns them into the Schroedinger states
psi_t = exp(-iAt) phi_t, `uniform_fidelities(times)` serves the first-passage
scan and `fidelities(times)` its refinement (`fidelity_function` hands it out).
`propagate_exact` chains the first two for one time. A `Trajectory` computes
the energy statistics when it is sampled, from the phases and a modal matrix,
and the states, fidelities and Bloch data only when first read, so the bounds
never form a state.

The independent cross-check, `propagate_numeric`, is a classical fixed-step
4th-order (RK4) integrator that builds H(t) on its own. For the linear
equation psi' = -iH(t) psi one RK4 step is a matrix. In the eigenbasis
(a, V) of A, M(t) = -iV^dagger H(t) V = D(t) M(0) D(t)^dagger with
D(t) = diag(exp(-iat)), and the step of length h from time s is

    K1 = M(s),  K2 = M(s + h/2)(I + h/2 K1),  K3 = M(s + h/2)(I + h/2 K2),
    K4 = M(s + h)(I + h K3),  P_s(h) = I + h/6 (K1 + 2 K2 + 2 K3 + K4).

Every M(t) in it is the conjugation by D(s) of the same matrix at s = 0, so
P_s(h) = D(s) P_0(h) D(s)^dagger. In chi = D(s)^dagger psi every step of
length h is then the one matrix F(h) = D(h)^dagger P_0(h), the same RK4
scheme step for step. D is unitary, so chi has the norm of psi. F is linear
and renormalizing only rescales chi, so a block of up to 64 steps is one
product of chi with the finite powers F, ..., F^64 (`_finite_powers`), and
its step j drifts by |F^j chi| / |F^(j-1) chi| - 1, with |F^0 chi| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _NONNEGATIVE, _POSITIVE, DimensionMismatch, DomainError, StepTooLarge, _check_count, _check_real
from .linalg import EnergyStatistics, HermitianOperator, PureState, _centred, _energy_statistics

NORM_DRIFT_TOL = 1e-6
_BLOCK = 64  # RK4 steps per batched product: 32 took 1.4x as long, 128 or 256 saved ~5 ms a cross-check run


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
    def is_isolated(self) -> bool:
        """A is exactly zero: the one test of isolation, for ML, the passage certificate and the sweep's window."""
        return not np.any(self.A.entries)

    @cached_property
    def initial_statistics(self) -> EnergyStatistics:
        """<H>, Delta H, the level occupations and the occupied extrema of H in the initial state."""
        return _energy_statistics(self.H, np.abs(self.initial.amplitudes @ self.H.eig[1].conj()) ** 2)

    @cached_property
    def evaluator(self) -> "_SpectralEvaluator":
        """The cached exact propagator of this system."""
        return _SpectralEvaluator(self)

    def __repr__(self) -> str:
        return f"RotatedHamiltonianSystem(dim={self.dim})"


class _SpectralEvaluator:
    """exp(-iAt) exp(-i(H-A)t) u0 from the eigenpairs (mu, W) of H - A and (a, V) of A.

    Both operators are centred on tr/d first: the states carry a global phase.
    Rotating frame: phi_t = W exp(-i mu t) c0 with c0 = W^dagger u0.
    Schroedinger picture: psi_t = V exp(-i a t) V^dagger phi_t. Fidelities
    take <u0|psi_t> in the eigenbasis of A, as the product of (V^dagger u0)^dagger,
    exp(-i a t), V^dagger W and exp(-i mu t) c0, without forming psi_t.
    """

    def __init__(self, sys: RotatedHamiltonianSystem):
        self.mu, self.W = HermitianOperator(_centred(sys.H.entries - sys.A.entries)).eig
        self.a, self.V = HermitianOperator(_centred(sys.A.entries)).eig
        self.u0 = sys.initial.amplitudes
        self.c0 = self.W.conj().T @ self.u0
        self._H = sys.H
        self._mix = self.W.T @ self.V.conj()
        self._probe = self.V.T @ self.u0.conj()
        # A global phase of either factor drops out of fidelities: phases about the
        # mean energies of u0 keep a constant energy offset from costing precision.
        self._rate_mu = -1j * (self.mu - self.mu @ np.abs(self.c0) ** 2)
        self._rate_a = -1j * (self.a - self.a @ np.abs(self._probe) ** 2)

    def rotating(self, times) -> np.ndarray:
        """Rotating-frame states phi_t at the given times, one per row."""
        times = np.asarray(times, dtype=float)
        return (np.exp(np.outer(times, -1j * self.mu)) * self.c0) @ self.W.T

    @cached_property
    def modal(self) -> np.ndarray:
        """M = U_H^dagger W diag(c0), U_H the eigenvectors of H: M exp(-i mu t) is phi_t on U_H.

        The statistics read phi_t's weights through it, without phi_t; `rotating` does not
        use it and keeps its bits.
        """
        return (self._H.eig[1].conj().T @ self.W) * self.c0

    def uniform_weights(self, times: np.ndarray) -> np.ndarray:
        """|M exp(-i mu t)|^2, levels x samples, at uniform times t_j = j h from 0, from `_uniform_phases`."""
        amplitudes = self.modal @ _uniform_phases(-1j * self.mu, times)
        return amplitudes.real**2 + amplitudes.imag**2

    def uniform_fidelities(self, times: np.ndarray) -> np.ndarray:
        """`fidelities` at uniform times t_j = j h from 0, level-major on `_uniform_phases`: the passage scan."""
        mixed = self._mix.T @ (self.c0[:, None] * _uniform_phases(self._rate_mu, times))
        mixed *= _uniform_phases(self._rate_a, times)
        overlaps = self._probe @ mixed
        return overlaps.real**2 + overlaps.imag**2

    def schrodinger(self, times, phi: np.ndarray) -> np.ndarray:
        """Schroedinger states psi_t from the rotating-frame states phi_t at the same times."""
        times = np.asarray(times, dtype=float)
        return (np.exp(np.outer(times, -1j * self.a)) * (phi @ self.V.conj())) @ self.V.T

    def fidelities(self, times) -> np.ndarray:
        """|<u0|psi_t>|^2 at each of the given times, without forming the states."""
        times = np.asarray(times, dtype=float)
        mixed = (np.exp(times[:, None] * self._rate_mu) * self.c0) @ self._mix
        mixed *= np.exp(times[:, None] * self._rate_a)
        overlaps = mixed @ self._probe
        return overlaps.real**2 + overlaps.imag**2


def _uniform_phases(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(rate t_j), rates x samples, at uniform times t_j = j h from 0, from block powers.

    With m = ceil(sqrt(n + 1)) and j = q m + r, exp(rate t_j) is taken as exp(rate t_qm)
    exp(rate t_r): about 2 sqrt(n) direct exps per rate, so the error does not grow with j.
    """
    n, m = len(times) - 1, math.isqrt(len(times) - 1) + 1
    outer, inner = (np.exp(np.multiply.outer(rates, t)) for t in (times[::m], times[:m]))
    return (outer[:, :, None] * inner[:, None, :]).reshape(len(rates), -1)[:, : n + 1]


def propagate_exact(sys: RotatedHamiltonianSystem, t: float) -> PureState:
    """State at time t via the factored propagator exp(-iAt) exp(-i(H-A)t)."""
    ev, times = sys.evaluator, [float(t)]
    return PureState.normalized(ev.schrodinger(times, ev.rotating(times))[0])


def fidelity_function(sys: RotatedHamiltonianSystem):
    """Batched map times -> fidelities between the evolved and initial states."""
    return sys.evaluator.fidelities


def _finite_powers(f: np.ndarray, k: int) -> np.ndarray:
    """F, ..., F^k stacked, cut before the first non-finite power but keeping F: an empty level's inf * 0 is NaN."""
    powers = f[None]
    while len(powers) < k:
        powers = np.concatenate((powers, powers[: k - len(powers)] @ powers[-1]))
    leading = np.logical_and.accumulate(np.isfinite(powers).all(axis=(1, 2))).sum()
    return powers[: max(leading, 1)]


def propagate_numeric(sys: RotatedHamiltonianSystem, t: float, step: float) -> PureState:
    """Integrate the Schroedinger equation with the instantaneous H(t).

    Classical fixed-step 4th-order scheme, renormalized after every step. In
    A's eigenbasis (a, V) each step of length h is the one matrix
    F(h) = D(h)^dagger P_0(h) on chi = D(s)^dagger psi, with
    D(s) = diag(exp(-ias)) (see the module docstring); a block of up to 64 steps
    is one product of chi with F's finite powers, and psi = V D(t) chi. Raises
    StepTooLarge at the first step whose |F^j chi| / |F^(j-1) chi| - 1 is not <= 1e-6.
    """
    step = _check_real(step, "step", _POSITIVE)
    t = _check_real(t, "t", _NONNEGATIVE)

    n_full = int(t // step)
    tail = t - n_full * step
    runs = [(h, n) for h, n in ((step, n_full), (tail, int(tail > 1e-15 * t))) if n]
    if not runs:
        return sys.initial
    a, V = sys.A.eig
    m0, freq = -1j * (V.conj().T @ sys.H.entries @ V), -1j * np.subtract.outer(a, a)
    eye, chi, time = np.eye(sys.dim), V.conj().T @ sys.initial.amplitudes, 0.0
    with np.errstate(all="ignore"):  # an overflow shows up as a non-finite drift
        for h, n in runs:
            m_mid, m_end = (m0 * np.exp(freq * x) for x in (h / 2, h))  # M(h/2), M(h)
            k2 = m_mid @ (eye + h / 2 * m0)
            k3 = m_mid @ (eye + h / 2 * k2)
            k4 = m_end @ (eye + h * k3)
            f = np.exp(1j * a * h)[:, None] * (eye + h / 6 * (m0 + 2 * k2 + 2 * k3 + k4))
            powers = _finite_powers(f, min(n, _BLOCK))
            while n:
                k = min(n, len(powers))
                orbit = powers[:k] @ chi  # F^j chi for j = 1..k, in one batched product
                norms = np.linalg.norm(orbit, axis=1)
                drifts = np.abs(norms / np.concatenate(([1.0], norms[:-1])) - 1.0)
                if not (ok := drifts <= NORM_DRIFT_TOL).all():
                    j = np.argmin(ok)  # the block's first offending step
                    raise StepTooLarge(
                        f"norm drift {drifts[j]:.3e} at t={time + (j + 1) * h:.6g} exceeds {NORM_DRIFT_TOL}; reduce the step"
                    )
                chi, time, n = orbit[-1] / norms[-1], time + k * h, n - k
    return PureState(V @ (np.exp(-1j * a * time) * chi))


class Trajectory:
    """Uniformly sampled evolution record with per-sample observables.

    `times` and `stats` are computed when the trajectory is sampled. `stats`
    holds the energy statistics of H(t), those of H in phi_t, one entry per
    sample, from `uniform_weights`;
    `stats.occupations[i, k]` is the weight at `times[i]` on the k-th lowest
    level of H (degeneracies grouped). `states`, `fidelity` and `bloch` (for
    two levels, the `bloch_operators` expectations, else None) follow the
    requested frame and are computed on first read and kept, the states from
    `rotating(times)`, so they keep their bits. The bounds read only `times`
    and `stats`, so they never form these.
    """

    def __init__(self, sys: RotatedHamiltonianSystem, frame: str, times: np.ndarray):
        self.times = times
        self.stats = _energy_statistics(sys.H, sys.evaluator.uniform_weights(times))
        self._sys, self._frame = sys, frame

    @cached_property
    def states(self) -> np.ndarray:
        """The states of the frame at `times`, one per row."""
        phi = self._sys.evaluator.rotating(self.times)
        return phi if self._frame == "rotating" else self._sys.evaluator.schrodinger(self.times, phi)

    @cached_property
    def fidelity(self) -> np.ndarray:
        """|<u0|state>|^2 at each sample."""
        overlaps = self.states @ self._sys.initial.amplitudes.conj()
        return overlaps.real**2 + overlaps.imag**2

    @cached_property
    def bloch(self) -> np.ndarray | None:
        """Expectations of the `bloch_operators` axes at each sample, one column per axis; None unless d = 2."""
        if self._sys.dim != 2:
            return None
        axes = np.stack(bloch_operators())
        return np.einsum("ti,kij,tj->tk", self.states.conj(), axes, self.states).real.copy()


def sample_trajectory(
    sys: RotatedHamiltonianSystem,
    t_max: float,
    n: int,
    *,
    frame: str = "schrodinger",
) -> Trajectory:
    """Evaluate the evolution at n+1 uniform times from 0 to t_max inclusive.

    The statistics take one level-major pass over block-power phases, within 8 eps (1 +
    max|mu| t_max) of phi_t's weights; `times` and the states keep their bits, as they never
    see the phases.
    """
    t_max = _check_real(t_max, "t_max", _POSITIVE)
    n = _check_count(n, 2, "need at least 2 sampling intervals")
    if frame not in ("schrodinger", "rotating"):
        raise DomainError(f"unknown frame {frame!r}")

    times = np.linspace(0.0, t_max, n + 1)
    return Trajectory(sys, frame, times)
