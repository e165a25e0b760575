"""Closed-system constructions that defeat two speed-limit hypotheses.

The first construction is a two-level family with a conserved normalized
expected energy E whose energy uncertainty E*cot(theta/2) can be made as
large as desired by shrinking the angle theta. The evolution is a constant
speed geodesic, so the orthogonalization-type time arccos(sqrt(delta))/
(E*cot(theta/2)) drops below any candidate bound of the form L/E.

The second construction couples a Hamiltonian with three or more occupied
levels to the geodesic-generating operator built by `build_coupling`. The
evolution then saturates the time-averaged Mandelstam-Tamm bound while the
Bhatia-Davies inequality stays strict at every instant, so the Bhatia-Davies
bound cannot be saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import VALIDITY_SLACK, BoundReport, _angle, _evaluate, evaluate_bounds, first_passage
from .errors import _BELOW_ONE, _INSIDE_PI, _POSITIVE, DomainError, InsufficientLevels, _check_real
from .evolution import RotatedHamiltonianSystem, Trajectory, bloch_operators, sample_trajectory
from .linalg import HermitianOperator, PureState, _centred, _level_exponent, _operator_and_state


def build_coupling(H, state) -> HermitianOperator:
    """Coupling operator A = (H - <H>)|u><u| + |u><u|(H - <H>).

    For any (H, u) the result satisfies A rho + rho A = A and [H - A, rho] = 0
    with rho = |u><u|, which makes the conjugated evolution a constant-speed
    geodesic through u while conserving all level occupations. H is centred
    on tr(H)/d first, so an energy offset costs A no precision.
    """
    operator, u = _operator_and_state(H, state)
    vec = u.amplitudes
    lifted = _centred(operator.entries) @ vec
    shifted = lifted - np.vdot(vec, lifted).real * vec
    return HermitianOperator(np.outer(shifted, vec.conj()) + np.outer(vec, shifted.conj()))


def _ml_mu(E: float, theta: float) -> float:
    """mu = E / (2 sin^2(theta/2)), or DomainError unless positive and finite (the square underflows below ~3e-162)."""
    denominator = 2.0 * math.sin(theta / 2.0) ** 2  # 1 - cos(theta), without its cancellation at small theta
    return _check_real(E / denominator if denominator else math.inf, "mu", _POSITIVE)


def build_ml_family(E: float, theta: float) -> RotatedHamiltonianSystem:
    """Two-level rotating system with conserved normalized expected energy E.

    In the basis (u, v) = (e1, e2) the Hamiltonian is
    mu * (sin(theta) Z - cos(theta) X) with mu = E / (2 sin^2(theta/2)),
    X = |u><u| - |v><v| and Z = |u><v| + |v><u|. Its spectrum is {-mu, +mu},
    the normalized expected energy in u is E for every theta, and the energy
    uncertainty is E * cot(theta/2). The coupling operator makes the initial
    state u evolve along the Bloch equator.
    """
    theta = _check_real(theta, "theta", _INSIDE_PI)
    E = _check_real(E, "E", _POSITIVE)
    mu = _ml_mu(E, theta)
    x, _, z = bloch_operators()
    hamiltonian = HermitianOperator(mu * (math.sin(theta) * z - math.cos(theta) * x))
    initial = PureState([1.0, 0.0])
    return RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, initial), initial)


def choose_theta(delta: float, L: float, margin: float = 0.1) -> float:
    """Angle with cot(theta/2) strictly above arccos(sqrt(delta)) / L.

    Returns 2*arctan(1 / (c*(1+margin))) with c = arccos(sqrt(delta))/L, so
    the strict inequality holds by the factor (1+margin).
    """
    delta = _check_real(delta, "delta", _BELOW_ONE)
    L = _check_real(L, "L", _POSITIVE)
    margin = _check_real(margin, "margin", _POSITIVE)
    c = _angle(delta) / L
    return 2.0 * math.atan(1.0 / (c * (1.0 + margin)))


@dataclass
class RefutationSpec:
    """Parameters of one run against a hypothetical bound L/E; mu = E/(2 sin^2(theta/2)) is derived."""

    delta: float
    L: float
    E: float
    theta: float
    mu: float = field(init=False)

    def __post_init__(self):
        self.delta = _check_real(self.delta, "delta", _BELOW_ONE)
        self.L = _check_real(self.L, "L", _POSITIVE)
        self.E = _check_real(self.E, "E", _POSITIVE)
        self.theta = _check_real(self.theta, "theta", _INSIDE_PI)
        if not self.angle_condition > 0.0:
            raise DomainError("cot(theta/2) must strictly exceed arccos(sqrt(delta))/L")
        self.mu = _ml_mu(self.E, self.theta)

    @property
    def angle_condition(self) -> float:
        """cot(theta/2) - arccos(sqrt(delta))/L, positive when the family beats L/E."""
        return 1.0 / math.tan(self.theta / 2.0) - _angle(self.delta) / self.L


@dataclass
class RefutationReport:
    """Outcome of one run against a hypothetical bound L/E."""

    spec: RefutationSpec
    tau: float
    hypothetical_bound: float
    mt_closed: float
    violated: bool
    margins: dict[str, float]
    max_energy_drift: float
    trajectory: Trajectory | None = field(repr=False, default=None)


def run_ml_refutation(
    delta: float,
    L: float,
    E: float,
    margin: float = 0.1,
    *,
    samples: int = 1000,
) -> RefutationReport:
    """Beat the hypothetical closed-system bound L/E at fidelity target delta.

    Builds the two-level family at the angle chosen by `choose_theta`,
    measures the first-passage time to delta, and verifies that the
    time-averaged Mandelstam-Tamm bound is saturated while the normalized
    expected energy stays at E.
    """
    theta = choose_theta(delta, L, margin)
    sys = build_ml_family(E, theta)
    spec = RefutationSpec(delta=delta, L=L, E=E, theta=theta)
    uncertainty = E / math.tan(theta / 2.0)
    tau = first_passage(sys, delta, math.pi / uncertainty)
    traj = sample_trajectory(sys, tau, samples)
    mt_bar = _evaluate(sys, delta, tau, traj).mt_closed
    hypothetical = spec.L / spec.E
    margins = {
        "violation": float(hypothetical - tau),
        "mt_saturation": float(abs(tau - mt_bar)),
        "angle_condition": spec.angle_condition,
    }
    return RefutationReport(
        spec=spec,
        tau=float(tau),
        hypothetical_bound=hypothetical,
        mt_closed=float(mt_bar),
        violated=margins["violation"] > VALIDITY_SLACK,
        margins=margins,
        max_energy_drift=float(np.abs(traj.stats.norm_energy - E).max()),
        trajectory=traj,
    )


def bd_pointwise_margin(traj: Trajectory) -> float:
    """Smallest per-sample gap between the Bhatia-Davies product and the variance.

    The energies are first divided by the power of two of `linalg._level_exponent`, as in `bounds._bd_factor`, so
    the products cannot overflow; a gap beyond the float range is returned as +-inf.
    """
    stats = traj.stats
    exponent = _level_exponent(stats.levels)
    dual, norm, spread = np.ldexp((stats.dual_norm_energy, stats.norm_energy, stats.energy_uncertainty), -exponent)
    with np.errstate(over="ignore"):
        return float(np.ldexp((dual * norm - spread**2).min(), 2 * exponent))


def run_bd_nonsaturation(
    H,
    state,
    delta: float,
    *,
    samples: int = 1000,
    t_max: float | None = None,
) -> BoundReport:
    """Saturate the time-averaged Mandelstam-Tamm bound but not Bhatia-Davies.

    Requires an initial state occupying at least three distinct levels of H;
    the coupling construction then drives a geodesic whose Bhatia-Davies
    inequality is strict at every sample. tau is searched on [0, t_max] (default pi/dH).
    """
    delta = _check_real(delta, "delta", _BELOW_ONE)
    operator, u = _operator_and_state(H, state)
    sys = RotatedHamiltonianSystem(operator, build_coupling(operator, u), u)
    stats = sys.initial_statistics
    if stats.occupied.sum() < 3:
        raise InsufficientLevels(f"initial state occupies {stats.occupied.sum()} levels; need at least 3")
    tau = first_passage(sys, delta, math.pi / stats.energy_uncertainty if t_max is None else t_max)
    return evaluate_bounds(sys, delta, tau=tau, samples=samples)
