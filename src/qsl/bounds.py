"""Speed-limit bounds, time averages, and first-passage times.

`evaluate_bounds` evaluates five bounds into one `BoundReport`: the
Mandelstam-Tamm and Bhatia-Davies bounds in their instantaneous (isolated)
and time-averaged (closed) forms, and the Margolus-Levitin bound for isolated
systems. Infinite bounds (stationary or single-level states) are returned as
math.inf rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _NONNEGATIVE, _POSITIVE, _UNIT_INTERVAL, DomainError, NotReached, _check_count, _check_real
from .evolution import RotatedHamiltonianSystem, Trajectory, fidelity_function, sample_trajectory
from .linalg import EnergyStatistics

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_TOL = 1e-12

ZERO_DENOMINATOR = 1e-14
PASSAGE_SLACK = 1e-14
PASSAGE_WIDTH = 1e-13
PASSAGE_SPLIT = 32
PASSAGE_FRACTIONS = np.arange(1, PASSAGE_SPLIT) / PASSAGE_SPLIT  # where a split puts its uniform points
PASSAGE_ROW = PASSAGE_SPLIT + 7  # a split's points: both ends, 31 uniform ones, three speed and three chord points
_ENDS = np.array([0, 1])  # offsets of a part's left and right point from its left one
_GUARDS = np.array([-1.0, 0.0, 1.0])  # the chord points: the chord's crossing and its two guards
PASSAGE_BATCH = 2048
PASSAGE_SCAN = 2048
VALIDITY_SLACK = 1e-9


def _ml_objective(z, delta: float):
    """Objective of the fidelity-dependent Margolus-Levitin minimization.

    (1+z)/2 * arccos((2*delta - 1 - z^2) / (1 - z^2)), the arccos argument clamped
    against rounding. Where 1 - z^2 is exactly zero (alpha meets it only at delta = 1,
    z = +-1) the argument is -1: 0 at z = -1, but pi, not the limit 0, at z = +1.
    """
    z = np.asarray(z, dtype=float)
    num = 2.0 * delta - 1.0 - z**2
    den = 1.0 - z**2
    arg = np.divide(num, den, out=np.full_like(z, -1.0), where=den != 0.0)
    return (1.0 + z) / 2.0 * np.arccos(np.clip(arg, -1.0, 1.0))


def _ml_objective_scalar(z: float, delta: float) -> float:
    """`_ml_objective` on one float, operation by operation and with numpy's arccos, for the same bits."""
    den = 1.0 - z * z
    arg = (2.0 * delta - 1.0 - z * z) / den if den != 0.0 else -1.0
    return (1.0 + z) / 2.0 * float(np.arccos(min(max(arg, -1.0), 1.0)))


def alpha(delta: float) -> float:
    """Minimum of the Margolus-Levitin objective over z in [-sqrt(delta), sqrt(delta)].

    Bracketing grid of 2048 points, golden-section refinement of the best
    bracket down to GOLDEN_TOL, then comparison against the value at
    z = -sqrt(delta); the one at z = +sqrt(delta), (1+sqrt(delta))pi/2, is
    never below it. The refinement runs on plain floats, through `_ml_objective_scalar`.
    """
    delta = _check_real(delta, "delta", _UNIT_INTERVAL)
    z_max = math.sqrt(delta)
    grid = np.linspace(-z_max, z_max, 2048)
    i = int(np.argmin(_ml_objective(grid, delta)))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    h = b - a
    if h > GOLDEN_TOL:
        c, d = a + INV_PHI_SQ * h, a + INV_PHI * h
        yc, yd = _ml_objective_scalar(c, delta), _ml_objective_scalar(d, delta)
        for _ in range(math.ceil(math.log(GOLDEN_TOL / h) / math.log(INV_PHI)) - 1):
            h *= INV_PHI
            if yc < yd:
                b, d, yd = d, c, yc
                c = a + INV_PHI_SQ * h
                yc = _ml_objective_scalar(c, delta)
            else:
                a, c, yc = c, d, yd
                d = a + INV_PHI * h
                yd = _ml_objective_scalar(d, delta)
    interior = _ml_objective_scalar((a + b) / 2.0, delta)
    return min(interior, (1.0 - z_max) * math.pi / 2.0)  # arccos evaluates to pi at z = -sqrt(delta)


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
        raise DomainError("time window has zero length")
    if span == math.inf:
        raise DomainError("time window has infinite length")
    return (np.sum((v[..., 1:] + v[..., :-1]) / 2.0 * steps, axis=-1) / span).tolist()


def _angle(delta: float) -> float:
    """Fubini-Study distance arccos(sqrt(delta)) from a state to fidelity delta."""
    return math.acos(math.sqrt(delta))


def _angles(fids: np.ndarray) -> np.ndarray:
    """`_angle`'s array twin: angles arccos(sqrt(F)) to u0 from fidelities F, clipped against rounding above F = 1."""
    return np.arccos(np.minimum(np.sqrt(fids), 1.0))


def _over(distance: float, rate: float, scale: float) -> float:
    """A distance, arccos(sqrt(delta)) or alpha(delta), over an energy rate.

    inf when the rate is at most ZERO_DENOMINATOR times `scale`, the spectral
    radius of H: a rate that small is rounding, on any energy scale.
    """
    if rate <= ZERO_DENOMINATOR * scale:
        return math.inf
    return distance / rate


@lru_cache(maxsize=64)
def _alpha_of(delta: float) -> float:
    """alpha(delta), computed once per delta."""
    return alpha(delta)


def _part_bounds(rows: np.ndarray, speed: float) -> np.ndarray:
    """theta_j + theta_(j+1) + v h_j for each part of rows, h_j its length; -inf where h_j = 0 (it holds no time)."""
    width = rows[0, 1:] - rows[0, :-1]
    return np.where(width > 0.0, rows[2, :-1] + rows[2, 1:] + speed * width, -np.inf)


@lru_cache(maxsize=1)
def _certificate(sys: RotatedHamiltonianSystem, t_max: float) -> tuple:
    """`first_passage`'s speed v, read-only scan rows of times, fidelities and `_angles`, and their `_part_bounds`.

    The rows scan PASSAGE_SCAN + 1 uniform times on [0, t_max] by `uniform_fidelities`. Only the last window is
    kept, so the other deltas of one window reuse it, and the one entry keeps at most one system alive (systems
    compare by identity).
    """
    ev, stats = sys.evaluator, sys.initial_statistics
    if sys.is_isolated:
        speed = stats.energy_uncertainty
    else:
        lifted = sys.H.entries @ ev.W - stats.exp_energy * ev.W  # (H - <H>) w_k, one column per k
        scale = 2.0 ** -np.frexp(sys.H._spectrum.radius)[1]  # exact, so the norms' squares cannot overflow
        norms = np.linalg.norm(lifted * scale, axis=0) / scale
        speed = min(np.ptp(sys.H.eig[0]) / 2.0, np.abs(ev.c0) @ norms)
    times = np.linspace(0.0, t_max, PASSAGE_SCAN + 1)
    fids = ev.uniform_fidelities(times)
    rows = np.stack((times, fids, _angles(fids)))
    bounds = _part_bounds(rows, speed)
    rows.flags.writeable = bounds.flags.writeable = False
    return speed, rows, bounds


def first_passage(
    sys: RotatedHamiltonianSystem,
    delta: float,
    t_max: float,
) -> float:
    """Earliest t in [0, t_max] at which the fidelity to the initial state is delta.

    Certified search: the Fubini-Study angle theta = arccos(sqrt(F)) moves no
    faster than dH(t) (Anandan-Aharonov, PRL 65, 1697, 1990), so no faster
    than the speed v that `_certificate` gives. With (mu, W) the eigenpairs
    of H - A, c0 = W^dagger u0 and c = <H> at t = 0, for every t:

        dH(t) = min_x |(H(t) - x) psi_t| = min_x |(H - x) phi_t|   (H(t) psi_t = exp(-iAt) H phi_t)
              <= |(H - c) sum_k exp(-i mu_k t) c0_k w_k|          (x = c; phi_t in the basis W)
              <= sum_k |c0_k| |(H - c) w_k|                        (triangle inequality)

    v is the smaller of that sum and half the spectral width of H, which
    also bounds every dH(t); no threshold enters, so it holds for every
    (H, A, u0). When u0 is an eigenvector of H - A, as `build_coupling`
    makes it, the sum is dH itself and theta moves at exactly v. When A is
    exactly zero, v is the conserved dH.

    An interval [a, b] with theta_a + theta_b + v (b - a) < 2 theta* (1 - 1e-14),
    theta* = arccos(sqrt(delta)), thus cannot hold the passage: theta climbs
    from theta_a to theta* and falls back to theta_b within b - a. The window
    is scanned at PASSAGE_SCAN uniform intervals, whose left sides (`_part_bounds`)
    `_certificate` keeps. Every interval not ruled out this way is cut, in one
    batch: past the first PASSAGE_BATCH of them, the time from the next one to
    the window's end is cut as one more interval. The intervals after the first
    one whose right end reaches delta are dropped. The midpoint of the first open
    interval is returned once that is narrower than 1e-13 of its right end, so
    the result is the same on every time scale and never later than the first
    passage by more than half that width; a shallow crossing can come out a few
    widths early. The slack keeps rounding from ruling out an exact touch, so a
    dip within it counts as reached (the generic case for delta = 0).

    When A is exactly zero a second rule rules out parts too. With p_l the
    weights of u0 on the levels e_l of H, F(t) = sum_lm p_l p_m cos((e_l - e_m) t),
    so |F''| <= sum_lm p_l p_m (e_l - e_m)^2 = 2 dH^2, and on [a, b], of
    length h, F is at most dH^2 (t - a)(b - t) <= dH^2 h^2 / 4 below its chord:

        F(t) >= min(F_a, F_b) - dH^2 h^2 / 4   for every t in [a, b].

    [a, b] thus cannot hold the passage when that exceeds
    cos^2(theta* (1 - 2e-14)), the fidelity at the angle below which the
    speed point a keeps theta; dH gets a 1e-9 relative cushion for its
    rounding. A part stays open only when neither rule rules it out.

    A cut [lo, hi] gets the 31 points that split it into 32 equal parts and
    three speed points, each clipped into [lo, hi]:
    - a = lo + (theta* (1 - 2e-14) - theta_lo) / v. theta stays at or below
      theta* (1 - 2e-14) up to a, so every part left of a meets the
      inequality above, rounding aside, and is ruled out;
    - b = hi - (theta_hi - theta* (1 + 2e-14)) / v, which falls inside
      [lo, hi] only when F(hi) <= delta: theta is at least
      theta* (1 + 2e-14) at b, so b is a sampled time past delta;
    - c = hi - (theta* (1 - 2e-14) - theta_hi) / v, b's mirror, inside
      [lo, hi] only when F(hi) > delta: theta stays at or below
      theta* (1 - 2e-14) on [c, hi], so every part right of c is ruled out.
    When theta moves at v, as on the geodesics `build_coupling` makes, a and
    b straddle a passage, and a and c a touch (delta = 0), within about
    2e-14 of it, and the search ends one round after the scan.

    On more than two levels an isolated system's theta moves slower than
    v = dH, so a and b do not straddle its passage. Its cuts get three chord
    points, also clipped into [lo, hi]: x = lo + (F_lo - delta) r, where the
    chord of F from lo to hi meets delta (r = h / (F_lo - F_hi), and x = lo
    where F does not fall across the cut), and two guards at x -+ g, with
    g = (dH^2 h^2 / 4 + cos^2(theta* (1 - 2e-14)) - delta) r + 1e-13 hi / 4.
    F is within dH^2 h^2 / 4 of the chord, so where F falls at about the
    chord's slope the passage lies between the guards, and F at the left
    guard is above the rule's threshold, which then rules out every part
    before it. The chord's time error shrinks as h^3, so an isolated cell of
    the seed-4242 sweep refines in 3 or 4 rounds after the scan, not the 7
    or 8 that 32-fold splits take from the scan width down to the stop
    width. A coupled cut puts its chord points at lo.

    The speed and chord points can only add samples: the 32 equal parts
    still narrow the first open interval at least 32-fold every round,
    whatever rounding does to them. A point clipped onto another makes a
    part of no length, which stays open only when its point reached delta.

    Every sampled time carries its fidelity and angle through the refinement:
    only the 37 new interior points of an interval are evaluated, and the search
    is the same arithmetic on the same points whichever deltas and windows came before.
    """
    delta = _check_real(delta, "delta", _UNIT_INTERVAL)
    t_max = _check_real(t_max, "t_max", _POSITIVE)
    if delta == 1.0:
        return 0.0
    fidelities = fidelity_function(sys)
    speed, scan, bounds = _certificate(sys, t_max)
    theta = _angle(delta)
    target = 2.0 * theta * (1.0 - PASSAGE_SLACK)
    below, above = theta * (1.0 - 2.0 * PASSAGE_SLACK), theta * (1.0 + 2.0 * PASSAGE_SLACK)
    pace = 1.0 / speed if speed else 0.0  # a stationary state has no speed points to place
    curve = speed / 2.0 * (1.0 + 1e-9) if sys.is_isolated else None  # F's curvature rule: (curve h)^2 = dH^2 h^2 / 4
    floor = math.cos(below) ** 2  # the rule's threshold
    # s[0], s[1] and s[2] hold the times, fidelities and angles of rows of `row` points. A row cuts one
    # interval into parts, and a part joins two neighbouring points of one row.
    s, row = scan, PASSAGE_SCAN + 1
    while True:
        reached = s[1, 1:] <= delta
        keep = bounds >= target
        if curve is not None:  # isolated: F >= min(F_a, F_b) - dH^2 h^2 / 4 on a part of length h
            keep &= np.minimum(s[1, :-1], s[1, 1:]) - (curve * (s[0, 1:] - s[0, :-1])) ** 2 <= floor
        keep |= reached  # rounding must not certify away a sample that reached delta
        keep[row - 1::row] = reached[row - 1::row] = False  # no part joins a row's last point to the next row's first
        first = reached.argmax()
        if reached[first]:
            keep[first + 1:] = False
        index = keep.nonzero()[0]  # each kept part by its left point
        if not index.size:
            raise NotReached(f"fidelity never reached {delta} within t_max={scan[0, -1]:.6g}")
        ends = s.take(index[:PASSAGE_BATCH, None] + _ENDS, axis=1)  # the left and right point of each kept part
        if index.size > PASSAGE_BATCH:  # bound one round's memory: the rest of the window is one more part
            rest = np.stack((s[:, index[PASSAGE_BATCH]], scan[:, -1]), axis=1)
            ends = np.concatenate((ends, rest[:, None]), axis=1)
        lo, hi = ends[0, :, 0], ends[0, :, 1]
        if hi[0] - lo[0] <= PASSAGE_WIDTH * hi[0]:
            return float((lo[0] + hi[0]) / 2.0)
        rows = np.empty((3, lo.size, PASSAGE_ROW))
        rows[..., ::PASSAGE_ROW - 1] = ends
        t = rows[0, :, 1:-1]
        t[:, :-6] = (hi - lo)[:, None] * PASSAGE_FRACTIONS + lo[:, None]  # in [lo, hi] as rounded: no clip
        t[:, -6] = lo + (below - ends[2, :, 0]) * pace
        t[:, -5] = hi - (ends[2, :, 1] - above) * pace  # past hi, so clipped onto it, unless F(hi) <= delta
        t[:, -4] = hi - (below - ends[2, :, 1]) * pace  # past hi, so clipped onto it, if F(hi) <= delta
        if curve is None:
            t[:, -3:] = lo[:, None]  # coupled: parts of no length
        else:  # where the chord of F meets delta, and guards at -+ g; lo where F does not fall
            drop = ends[1, :, 0] - ends[1, :, 1]
            rise = np.divide(hi - lo, drop, out=np.zeros_like(drop), where=drop > 0.0)
            chord = lo + (ends[1, :, 0] - delta) * rise
            guard = ((curve * (hi - lo)) ** 2 + floor - delta) * rise + PASSAGE_WIDTH / 4.0 * hi
            t[:, -3:] = chord[:, None] + guard[:, None] * _GUARDS
        np.fmin(np.fmax(t[:, -6:], lo[:, None]), hi[:, None], out=t[:, -6:])  # fmax: a NaN point goes to lo
        t.sort(axis=1)
        f = fidelities(t.ravel()).reshape(t.shape)
        rows[1, :, 1:-1], rows[2, :, 1:-1] = f, _angles(f)
        s, row = rows.reshape(3, -1), PASSAGE_ROW
        bounds = _part_bounds(s, speed)


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
    delta = _check_real(delta, "delta", _UNIT_INTERVAL)
    samples = _check_count(samples, 2, "need at least 2 sampling intervals")
    tau = _check_real(tau, "tau", _NONNEGATIVE)
    return _evaluate(sys, delta, tau, sample_trajectory(sys, tau, samples) if tau else None)


def _level_exponent(stats: EnergyStatistics) -> int:
    """The exponent of the power of two of max|levels| (the levels ascend), which scales energies exactly."""
    return math.frexp(max(-stats.levels[0], stats.levels[-1]))[1]


def _bd_factor(stats: EnergyStatistics):
    """sqrt((eps_max - <H>)(<H> - eps_min)) per state of the statistics.

    Both factors are first divided by the power of two of `_level_exponent`, as the spread is, so their product
    cannot overflow on a large energy scale; in range the bits are those of the unscaled product.
    """
    exponent = _level_exponent(stats)
    product = np.ldexp(stats.dual_norm_energy, -exponent) * np.ldexp(stats.norm_energy, -exponent)
    return np.ldexp(np.sqrt(np.maximum(product, 0.0)), exponent)


def _rates(stats: EnergyStatistics) -> tuple:
    """The energy rates the bounds divide by, per state: Delta H, the Bhatia-Davies factor, the normalized energy."""
    return stats.energy_uncertainty, _bd_factor(stats), stats.norm_energy


@lru_cache(maxsize=1)
def _initial_rates(sys: RotatedHamiltonianSystem) -> tuple:
    """`_rates` of `initial_statistics` as floats, once per system: keyed as `_certificate` is, by identity."""
    return tuple(map(float, _rates(sys.initial_statistics)))


def _evaluate(sys: RotatedHamiltonianSystem, delta: float, tau: float, traj: Trajectory | None) -> BoundReport:
    """Every bound from the initial statistics and the trajectory's times and statistics on [0, tau].

    The one place the bounds are computed, and `_rates` the one map from
    statistics to rates: `evaluate_bounds` samples traj, and
    `run_ml_refutation` passes the one it already holds. traj is None for
    tau = 0, the one-point window, whose averages are the initial values.
    """
    spread, factor, norm_energy = _initial_rates(sys)
    if traj is None:
        avg_unc, avg_bdf, avg_norm = spread, factor, norm_energy
    else:
        avg_unc, avg_bdf, avg_norm = time_average(traj.times, np.stack(_rates(traj.stats)))
    distance, scale = _angle(delta), sys.H._spectrum.radius
    return BoundReport(
        delta=delta,
        tau_actual=float(tau),
        mt=_over(distance, spread, scale),
        ml=_over(_alpha_of(delta), norm_energy, scale) if sys.is_isolated else None,
        bd=_over(distance, factor, scale),
        mt_closed=_over(distance, avg_unc, scale),
        bd_closed=_over(distance, avg_bdf, scale),
        avg_uncertainty=avg_unc,
        avg_bd_factor=avg_bdf,
        avg_norm_energy=avg_norm,
    )
