"""Speed-limit bounds, time averages, and first-passage times.

Five bounds are evaluated: the Mandelstam-Tamm and Bhatia-Davies bounds in
their instantaneous (isolated) and time-averaged (closed) forms, and the
Margolus-Levitin bound for isolated systems. Infinite bounds (stationary or
single-level states) are returned as math.inf rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInterval, DomainError, NotReached
from .evolution import (
    RotatedHamiltonianSystem,
    Trajectory,
    _check_count,
    fidelity_function,
    sample_trajectory,
)
from .linalg import (
    DEFAULT_OCCUPATION_TOL,
    expectation,
    occupied_extrema,
    variance,
)

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

ZERO_DENOMINATOR = 1e-14
PASSAGE_FID_TOL = 1e-10
VALIDITY_SLACK = 1e-9


def _check_delta(delta: float, below_one: bool = False) -> float:
    """delta as a float, or DomainError outside [0, 1] ([0, 1) if below_one)."""
    if not (0.0 <= delta < 1.0 if below_one else 0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, {'1)' if below_one else '1]'}, got {delta!r}")
    return float(delta)


def _ml_objective(z, delta: float):
    """Objective of the fidelity-dependent Margolus-Levitin minimization.

    (1+z)/2 * arccos((2*delta - 1 - z^2) / (1 - z^2)), with the removable
    endpoint singularity at z^2 -> 1 resolved by its limit and the arccos
    argument clamped against rounding excursions.
    """
    z = np.asarray(z, dtype=float)
    num = 2.0 * delta - 1.0 - z**2
    den = 1.0 - z**2
    arg = np.divide(num, den, out=np.full_like(z, -1.0), where=den != 0.0)
    return (1.0 + z) / 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))


def golden_section_min(f, a: float, b: float, tol: float = 1e-12) -> tuple[float, float]:
    """Shrink [a, b] around a local minimum of f; returns (x, f(x)) at the midpoint."""
    a, b = min(a, b), max(a, b)
    h = b - a
    if h > tol:
        c = a + INV_PHI_SQ * h
        d = a + INV_PHI * h
        yc, yd = f(c), f(d)
        n = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
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


def alpha(delta: float) -> float:
    """Minimum of the Margolus-Levitin objective over z in [-sqrt(delta), sqrt(delta)].

    Bracketing grid of 2048 points, golden-section refinement of the best
    bracket, then comparison against both endpoint values.
    """
    delta = _check_delta(delta)
    if delta == 0.0:
        return math.pi / 2.0
    if delta == 1.0:
        return 0.0
    z_max = math.sqrt(delta)
    grid = np.linspace(-z_max, z_max, 2048)
    values = _ml_objective(grid, delta)
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    _, interior = golden_section_min(lambda z: float(_ml_objective(z, delta)), lo, hi)
    left = (1.0 - z_max) * math.pi / 2.0   # arccos evaluates to pi at z = -sqrt(delta)
    right = (1.0 + z_max) * math.pi / 2.0
    return min(interior, left, right)


def alpha_grid_oracle(delta: float, points: int = 10**6) -> float:
    """Independent dense-grid scan of the same objective (no refinement)."""
    delta = _check_delta(delta)
    if delta == 0.0:
        return math.pi / 2.0
    if delta == 1.0:
        return 0.0
    z_max = math.sqrt(delta)
    grid = np.linspace(-z_max, z_max, points + 1)
    return float(_ml_objective(grid, delta).min())


def time_average(times, values) -> float:
    """Trapezoidal quadrature divided by the window length."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise DomainError("need matching 1-d arrays with at least 2 samples")
    if np.any(np.diff(t) < 0):
        raise DomainError("times must be ascending")
    span = float(t[-1] - t[0])
    if span == 0.0:
        raise DegenerateInterval("time window has zero length")
    integral = float(np.sum((v[1:] + v[:-1]) / 2.0 * np.diff(t)))
    return integral / span


def _over(delta: float, rate: float) -> float:
    """Fubini-Study distance arccos(sqrt(delta)) over rate; inf when the rate vanishes."""
    if rate <= ZERO_DENOMINATOR:
        return math.inf
    return math.acos(math.sqrt(delta)) / rate


@lru_cache(maxsize=64)
def _alpha_of(delta: float) -> float:
    """alpha(delta), computed once per delta."""
    return alpha(delta)


def _ml(delta: float, norm_energy: float) -> float:
    """alpha(delta) over the normalized expected energy; inf when it vanishes."""
    if norm_energy <= ZERO_DENOMINATOR:
        return math.inf
    return _alpha_of(delta) / norm_energy


@lru_cache(maxsize=16)
def _initial_rates(H, state, tol: float) -> tuple[float, float, float]:
    """Energy uncertainty, sqrt((eps_max - <H>)(<H> - eps_min)) and <H> - eps_min.

    Operators and states are immutable and hash by identity, so the values
    of one system are computed once however many deltas ask for them.
    """
    eps_min, eps_max, _ = occupied_extrema(H, state, tol)
    mean = expectation(H, state)
    factor = math.sqrt(max((eps_max - mean) * (mean - eps_min), 0.0))
    return math.sqrt(variance(H, state)), factor, mean - eps_min


def _bd_factor(traj: Trajectory) -> np.ndarray:
    """Per-sample geometric mean of the two distances to the occupied extrema."""
    return np.sqrt(np.maximum(traj.dual_norm_energy * traj.norm_energy, 0.0))


def mt_isolated(H, state, delta: float) -> float:
    """arccos(sqrt(delta)) / energy uncertainty; inf for a stationary state."""
    return _over(_check_delta(delta), math.sqrt(variance(H, state)))


def mt_closed(traj: Trajectory, delta: float) -> float:
    """arccos(sqrt(delta)) over the time-averaged energy uncertainty."""
    return _over(_check_delta(delta), time_average(traj.times, traj.energy_uncertainty))


def ml_isolated(H, state, delta: float, tol: float = DEFAULT_OCCUPATION_TOL) -> float:
    """alpha(delta) over the normalized expected energy; inf on a bottom eigenstate."""
    return _ml(_check_delta(delta), _initial_rates(H, state, tol)[2])


def bd_isolated(H, state, delta: float, tol: float = DEFAULT_OCCUPATION_TOL) -> float:
    """arccos(sqrt(delta)) over the geometric mean of the two energy distances."""
    return _over(_check_delta(delta), _initial_rates(H, state, tol)[1])


def bd_closed(traj: Trajectory, delta: float) -> float:
    """arccos(sqrt(delta)) over the time-averaged per-sample geometric mean."""
    return _over(_check_delta(delta), time_average(traj.times, _bd_factor(traj)))


def _bisect_crossing(f, t_lo: float, t_hi: float, delta: float) -> float:
    """Root of f(t) - delta on [t_lo, t_hi] with f(t_lo) > delta >= f(t_hi)."""
    for _ in range(200):
        mid = (t_lo + t_hi) / 2.0
        if f(mid) > delta:
            t_lo = mid
        else:
            t_hi = mid
        if t_hi - t_lo <= 1e-13 * max(1.0, t_hi):
            break
    return (t_lo + t_hi) / 2.0


def _parabolic_vertex(f, center: float, h: float) -> tuple[float, float]:
    f_minus, f_center, f_plus = f(center - h), f(center), f(center + h)
    curvature = f_plus - 2.0 * f_center + f_minus
    if curvature <= 0.0:
        return center, f_center
    shift = 0.5 * h * (f_minus - f_plus) / curvature
    x = center + min(max(shift, -h), h)
    return x, f(x)


def _refine_minimum(f, a: float, b: float) -> tuple[float, float]:
    """Locate a local minimum of f to high accuracy (for tangential crossings)."""
    scale = max(1.0, abs(b))
    x, fx = golden_section_min(f, a, b, tol=1e-6 * scale)
    for h in (1e-4 * scale, 1e-5 * scale):
        x, fx = _parabolic_vertex(f, x, h)
    x = min(max(x, a), b)
    return x, f(x)


def first_passage(
    sys: RotatedHamiltonianSystem,
    delta: float,
    t_max: float,
    *,
    samples: int = 2048,
) -> float:
    """Earliest t in [0, t_max] at which the fidelity to the initial state is delta.

    Coarse uniform scan, then bisection on transversal crossings. A dip that
    only touches the target level (the generic situation for delta = 0) is
    located by golden-section plus parabolic refinement of the local minimum.
    """
    delta = _check_delta(delta)
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    samples = _check_count(samples, 1, "samples must be an integer >= 1, got {!r}")
    if delta == 1.0:
        return 0.0
    fid = fidelity_function(sys)
    times, fids = sys.evaluator.scan(t_max, samples)
    return _passage_from_scan(fid, times, fids, delta)


def _passage_from_scan(fid, times: np.ndarray, fids: np.ndarray, delta: float) -> float:
    tangent_window = 1e-3
    n = len(times)
    # both branches below need fids[i] <= delta + tangent_window
    candidates = np.flatnonzero(fids[1:] <= delta + tangent_window) + 1
    for i in candidates.tolist():
        if fids[i] <= delta:
            if fids[i] == delta:
                return float(times[i])
            return float(_bisect_crossing(fid, float(times[i - 1]), float(times[i]), delta))
        if (
            i + 1 < n
            and fids[i] <= delta + tangent_window
            and fids[i] <= fids[i - 1]
            and fids[i] <= fids[i + 1]
        ):
            t_star, f_star = _refine_minimum(fid, float(times[i - 1]), float(times[i + 1]))
            if f_star < delta - PASSAGE_FID_TOL:
                return float(_bisect_crossing(fid, float(times[i - 1]), float(t_star), delta))
            if f_star <= delta + PASSAGE_FID_TOL:
                return float(t_star)
    raise NotReached(
        f"fidelity never reached {delta} within t_max={times[-1]:.6g}"
    )


@dataclass
class BoundReport:
    """All bound values and time averages for one evolution to fidelity delta."""

    delta: float
    tau_actual: float
    mt: float
    ml: float | None
    bd: float
    mt_closed: float
    bd_closed: float
    avg_uncertainty: float
    avg_bd_factor: float
    avg_norm_energy: float

    def present_bounds(self) -> dict[str, float]:
        bounds = {
            "mt": self.mt,
            "bd": self.bd,
            "mt_closed": self.mt_closed,
            "bd_closed": self.bd_closed,
        }
        if self.ml is not None:
            bounds["ml"] = self.ml
        return bounds

    def violations(self, slack: float = VALIDITY_SLACK) -> dict[str, float]:
        """Finite bounds exceeding the measured time by more than slack."""
        return {
            name: value - self.tau_actual
            for name, value in self.present_bounds().items()
            if math.isfinite(value) and value > self.tau_actual + slack
        }


def evaluate_bounds(
    sys: RotatedHamiltonianSystem,
    delta: float,
    *,
    t_max: float | None = None,
    samples: int = 1000,
    occupation_tol: float = DEFAULT_OCCUPATION_TOL,
    tau: float | None = None,
) -> BoundReport:
    """Measure the first-passage time to delta and evaluate every bound.

    Time averages run over [0, tau], the window the bounds are compared
    against. The Margolus-Levitin bound is reported only for isolated
    systems (A = 0), where it is known to hold. Pass tau to reuse an
    already measured first-passage time.
    """
    delta = _check_delta(delta)
    spread, factor, norm_energy = _initial_rates(sys.H, sys.initial, occupation_tol)
    if delta == 1.0:
        # tau = 0: averages over the one-point window are the initial values
        tau, avg_unc, avg_bdf, avg_norm = 0.0, spread, factor, norm_energy
    else:
        if tau is None:
            if t_max is None:
                if spread <= ZERO_DENOMINATOR:
                    raise DomainError("provide t_max explicitly for a stationary initial state")
                t_max = 4.0 * math.pi / spread
            tau = first_passage(sys, delta, t_max)
        traj = sample_trajectory(sys, tau, samples, occupation_tol=occupation_tol)
        avg_unc = time_average(traj.times, traj.energy_uncertainty)
        avg_bdf = time_average(traj.times, _bd_factor(traj))
        avg_norm = time_average(traj.times, traj.norm_energy)
    return BoundReport(
        delta=delta,
        tau_actual=tau,
        mt=_over(delta, spread),
        ml=_ml(delta, norm_energy) if sys.is_isolated else None,
        bd=_over(delta, factor),
        mt_closed=_over(delta, avg_unc),
        bd_closed=_over(delta, avg_bdf),
        avg_uncertainty=avg_unc,
        avg_bd_factor=avg_bdf,
        avg_norm_energy=avg_norm,
    )
