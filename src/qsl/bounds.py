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
from .linalg import EnergyStatistics, _state_statistics

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_TOL = 1e-12

ZERO_DENOMINATOR = 1e-14
PASSAGE_SLACK = 1e-14
PASSAGE_WIDTH = 1e-13
PASSAGE_SPLIT = 32
PASSAGE_FRACTIONS = np.arange(PASSAGE_SPLIT + 1) / PASSAGE_SPLIT
PASSAGE_BATCH = 2048
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


def time_average(times, values) -> float | list[float]:
    """Trapezoidal quadrature divided by the window length.

    A 1-d `values` gives a float; a 2-d one gives a list of floats, one per
    row, from one check of the times.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.ndim not in (1, 2) or v.shape[-1:] != t.shape or t.size < 2:
        raise DomainError("need matching 1-d arrays with at least 2 samples")
    steps = np.diff(t)
    if not np.all(steps >= 0):
        raise DomainError("times must be ascending")
    span = float(t[-1] - t[0])
    if span == 0.0:
        raise DegenerateInterval("time window has zero length")
    return (np.sum((v[..., 1:] + v[..., :-1]) / 2.0 * steps, axis=-1) / span).tolist()


def _angle(delta: float) -> float:
    """Fubini-Study distance arccos(sqrt(delta)) from a state to fidelity delta."""
    return math.acos(math.sqrt(delta))


def _over(delta: float, rate: float) -> float:
    """Fubini-Study distance arccos(sqrt(delta)) over rate; inf when the rate vanishes."""
    if rate <= ZERO_DENOMINATOR:
        return math.inf
    return _angle(delta) / rate


@lru_cache(maxsize=64)
def _alpha_of(delta: float) -> float:
    """alpha(delta), computed once per delta."""
    return alpha(delta)


def _ml(delta: float, norm_energy: float) -> float:
    """alpha(delta) over the normalized expected energy; inf when it vanishes."""
    if norm_energy <= ZERO_DENOMINATOR:
        return math.inf
    return _alpha_of(delta) / norm_energy


def _bd_factor(stats: EnergyStatistics):
    """sqrt((eps_max - <H>)(<H> - eps_min)) per state of the statistics."""
    return np.sqrt(np.maximum(stats.dual_norm_energy * stats.norm_energy, 0.0))


def mt_isolated(H, state, delta: float) -> float:
    """arccos(sqrt(delta)) / energy uncertainty; inf for a stationary state."""
    return _over(_check_delta(delta), float(_state_statistics(H, state).energy_uncertainty))


def mt_closed(traj: Trajectory, delta: float) -> float:
    """arccos(sqrt(delta)) over the time-averaged energy uncertainty."""
    return _over(_check_delta(delta), time_average(traj.times, traj.stats.energy_uncertainty))


def ml_isolated(H, state, delta: float) -> float:
    """alpha(delta) over the normalized expected energy; inf on a bottom eigenstate."""
    return _ml(_check_delta(delta), float(_state_statistics(H, state).norm_energy))


def bd_isolated(H, state, delta: float) -> float:
    """arccos(sqrt(delta)) over the geometric mean of the two energy distances."""
    return _over(_check_delta(delta), float(_bd_factor(_state_statistics(H, state))))


def bd_closed(traj: Trajectory, delta: float) -> float:
    """arccos(sqrt(delta)) over the time-averaged per-sample geometric mean."""
    return _over(_check_delta(delta), time_average(traj.times, _bd_factor(traj.stats)))


def first_passage(
    sys: RotatedHamiltonianSystem,
    delta: float,
    t_max: float,
    *,
    samples: int = 2048,
) -> float:
    """Earliest t in [0, t_max] at which the fidelity to the initial state is delta.

    Certified search: the Fubini-Study angle theta = arccos(sqrt(F)) moves no
    faster than the energy uncertainty of H(t) (Anandan-Aharonov, PRL 65,
    1697, 1990). Its bound v is half the spectral width of H, which every H(t)
    shares, or, when A is exactly zero, the conserved uncertainty itself. An
    interval [a, b] with theta_a + theta_b + v (b - a) < 2 arccos(sqrt(delta))
    (1 - 1e-14) thus cannot hold the passage. Every scan interval not ruled
    out this way is cut into 32 parts, in one batch of at most 2048 intervals
    (the time beyond is scanned again if they all drop out), and the intervals
    after the first one whose right end reaches delta are dropped. The
    midpoint of the first open interval is returned once that is narrower than
    1e-13 of its right end, so the result is the same on every time scale and
    never later than the first passage by more than half that width; a shallow
    crossing can come out a few widths early. The slack keeps rounding from
    ruling out an exact touch, so a dip within it counts as reached (the
    generic case for delta = 0).
    """
    delta = _check_delta(delta)
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be positive and finite, got {t_max!r}")
    samples = _check_count(samples, 1, "samples must be an integer >= 1, got {!r}")
    if delta == 1.0:
        return 0.0
    fidelities = fidelity_function(sys)
    times, fids = sys.evaluator.scan(t_max, samples)
    target = 2.0 * _angle(delta) * (1.0 - PASSAGE_SLACK)
    speed = sys.initial_statistics.energy_uncertainty if sys.is_isolated else sys.H.spectral_width / 2.0
    # Each row of t is one interval cut into equal parts; f holds the fidelities there.
    t, f, resume = times[None, :], fids[None, :], None
    while True:
        th = np.arccos(np.minimum(np.sqrt(f), 1.0))  # clipped against rounding above F = 1
        reached = (f[:, 1:] <= delta).ravel()
        keep = (th[:, :-1] + th[:, 1:] + speed * (t[:, 1:] - t[:, :-1]) >= target).ravel()
        keep |= reached  # rounding must not certify away a sample that reached delta
        first = reached.argmax()
        if reached[first]:
            keep[first + 1:] = False
        index = keep.nonzero()[0]
        index += index // (t.shape[1] - 1)  # part -> its left end in the flattened rows
        t, f = t.ravel(), f.ravel()
        if index.size > PASSAGE_BATCH:
            # bound one round's memory: what lies beyond is searched again afterwards
            resume, index = t[index[PASSAGE_BATCH]], index[:PASSAGE_BATCH]
        if not index.size:
            if resume is None:
                raise NotReached(f"fidelity never reached {delta} within t_max={times[-1]:.6g}")
            t = np.linspace(resume, times[-1], samples + 1)
            t, f, resume = t[None, :], fidelities(t)[None, :], None
            continue
        lo, hi = t[index], t[index + 1]
        if hi[0] - lo[0] <= PASSAGE_WIDTH * hi[0]:
            return float((lo[0] + hi[0]) / 2.0)
        f_lo, f_hi = f[index], f[index + 1]
        t = (hi - lo)[:, None] * PASSAGE_FRACTIONS + lo[:, None]
        t[:, -1] = hi
        f = np.empty(t.shape)
        f[:, 0], f[:, -1] = f_lo, f_hi
        f[:, 1:-1] = fidelities(t[:, 1:-1].ravel()).reshape(len(index), -1)


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

    def margins(self) -> dict[str, float]:
        """bound - tau for every finite bound; ml only where it is reported."""
        bounds = {"mt": self.mt, "bd": self.bd, "mt_closed": self.mt_closed, "bd_closed": self.bd_closed}
        if self.ml is not None:
            bounds["ml"] = self.ml
        return {name: value - self.tau_actual for name, value in bounds.items() if math.isfinite(value)}

    def violations(self) -> dict[str, float]:
        """Margins above VALIDITY_SLACK: the bounds the measured time refutes."""
        return {name: margin for name, margin in self.margins().items() if margin > VALIDITY_SLACK}


def evaluate_bounds(
    sys: RotatedHamiltonianSystem,
    delta: float,
    *,
    tau: float,
    samples: int = 1000,
) -> BoundReport:
    """Evaluate every bound at fidelity delta against the measured time tau.

    tau is the first-passage time that `first_passage` measured. Time
    averages run over [0, tau], the window the bounds are compared against.
    The Margolus-Levitin bound is reported only for isolated systems
    (`is_isolated`: A exactly zero), where it is known to hold.
    """
    delta = _check_delta(delta)
    samples = _check_count(samples, 2, "need at least 2 sampling intervals")
    if not 0.0 <= tau < math.inf:
        raise DomainError(f"tau must be nonnegative and finite, got {tau!r}")
    stats = sys.initial_statistics
    spread, factor, norm_energy = map(float, (stats.energy_uncertainty, _bd_factor(stats), stats.norm_energy))
    if tau == 0.0:
        # averages over the one-point window are the initial values
        avg_unc, avg_bdf, avg_norm = spread, factor, norm_energy
    else:
        traj = sample_trajectory(sys, tau, samples)
        rates = traj.stats.energy_uncertainty, _bd_factor(traj.stats), traj.stats.norm_energy
        avg_unc, avg_bdf, avg_norm = time_average(traj.times, np.stack(rates))
    return BoundReport(
        delta=delta,
        tau_actual=float(tau),
        mt=_over(delta, spread),
        ml=_ml(delta, norm_energy) if sys.is_isolated else None,
        bd=_over(delta, factor),
        mt_closed=_over(delta, avg_unc),
        bd_closed=_over(delta, avg_bdf),
        avg_uncertainty=avg_unc,
        avg_bd_factor=avg_bdf,
        avg_norm_energy=avg_norm,
    )
