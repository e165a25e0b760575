"""Property searches over the paper's claims and qsl's invariants.

Each search is derandomized and keeps no example database, so a run
explores the same inputs every time.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsl import (
    HermitianOperator,
    NotReached,
    PureState,
    RotatedHamiltonianSystem,
    evaluate_bounds,
    first_passage,
    run_bd_nonsaturation,
    run_ml_refutation,
)

from oracles import dense_fidelities

# 10^x for x uniform in [-3, 3]
LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)
UNIT = st.floats(-1.0, 1.0)
# Entries of modulus at most sqrt(2) keep the spectral widths of A and H - A at d = 6 below 17 and 34, so
# every angular frequency of F is below 51: 0.026 rad per step of the dense reference on this window.
WINDOW = 10.0
DENSE = 20001


def properties(max_examples: int):
    return settings(derandomize=True, database=None, deadline=None, max_examples=max_examples)


@properties(60)
@given(delta=st.floats(0.0, 0.999), L=LOG_UNIFORM, E=LOG_UNIFORM)
@example(delta=0.0, L=1e-4, E=1.0)
def test_refute_ml_beats_every_hypothesis(delta, L, E):
    # L/E stays at or above 1e-6, where the margin 0.09 L/E clears the absolute 1e-9 slack
    report = run_ml_refutation(delta, L, E, samples=200)
    assert report.tau < L / E and report.violated
    assert report.margins["mt_saturation"] <= 1e-8 * max(1.0, report.tau)
    assert report.max_energy_drift <= 1e-9 * max(1.0, E)


@st.composite
def spectra(draw):
    """3 to 8 distinct levels in [-5, 5], at least 1e-3 apart, with real amplitudes of modulus in [0.05, 1]."""
    levels = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=8, unique=True)))
    assume(min(np.diff(levels)) >= 1e-3)
    moduli = draw(st.lists(st.floats(0.05, 1.0), min_size=len(levels), max_size=len(levels)))
    signs = draw(st.lists(st.booleans(), min_size=len(levels), max_size=len(levels)))
    return levels, [-m if negative else m for m, negative in zip(moduli, signs)]


@properties(30)
@given(spectrum=spectra(), delta=st.floats(0.0, 0.999))
def test_bd_gap_saturates_mandelstam_tamm_but_not_bhatia_davies(spectrum, delta):
    levels, amplitudes = spectrum
    report = run_bd_nonsaturation(HermitianOperator.from_diagonal(levels), PureState.normalized(amplitudes), delta,
                                  samples=200)
    assert abs(report.tau_actual - report.mt_closed) <= 1e-8 * max(1.0, report.tau_actual)
    assert report.mt_closed > report.bd_closed


def hermitian(draw, dim: int) -> np.ndarray:
    """A Hermitian matrix from dim^2 floats: the real diagonal and the real and imaginary parts above it."""
    parts = np.array(draw(st.lists(UNIT, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    upper = np.triu(parts) + 1j * np.triu(parts.T, 1)
    return upper + np.triu(upper, 1).conj().T


@st.composite
def general_systems(draw):
    """(H, A, u0) of dimension 2 to 6: H and A random Hermitians, u0 a random state; no construction couples them."""
    dim = draw(st.integers(2, 6))
    amplitudes = np.array(draw(st.lists(UNIT, min_size=2 * dim, max_size=2 * dim)))
    assume(np.linalg.norm(amplitudes) >= 0.1)
    state = PureState.normalized(amplitudes[:dim] + 1j * amplitudes[dim:])
    return RotatedHamiltonianSystem(HermitianOperator(hermitian(draw, dim)), HermitianOperator(hermitian(draw, dim)),
                                    state)


def passage(sys: RotatedHamiltonianSystem, delta: float, t_max: float) -> float | None:
    try:
        return first_passage(sys, delta, t_max)
    except NotReached:
        return None


def assert_never_later_than_a_dense_scan(sys_: RotatedHamiltonianSystem, delta: float) -> None:
    """The passage comes no later than the first dense sample at delta, and NotReached only without one."""
    # the reference rounds apart from qsl by about 1e-15, so a sample counts as reaching delta 1e-12 below it
    times = np.linspace(0.0, WINDOW, DENSE)
    reaching = np.flatnonzero(dense_fidelities(sys_, times) <= delta - 1e-12)
    tau = passage(sys_, delta, WINDOW)
    if tau is None:
        assert reaching.size == 0
    elif reaching.size:
        assert tau <= times[reaching[0]]


@properties(30)
@given(sys_=general_systems(), delta=st.floats(0.0, 0.999))
def test_first_passage_is_never_later_than_a_dense_scan(sys_, delta):
    assert_never_later_than_a_dense_scan(sys_, delta)


@properties(30)
@given(sys_=general_systems(), delta=st.floats(0.0, 0.999), exponent=st.floats(-10.0, 10.0))
def test_scaling_the_system_scales_the_passage(sys_, delta, exponent):
    s = 10.0**exponent
    scaled = RotatedHamiltonianSystem(HermitianOperator(s * sys_.H.entries), HermitianOperator(s * sys_.A.entries),
                                      sys_.initial)
    tau, tau_scaled = passage(sys_, delta, WINDOW), passage(scaled, delta, WINDOW / s)
    assert (tau is None) == (tau_scaled is None)
    if tau is not None:
        assert abs(s * tau_scaled - tau) <= 1e-11 * tau + 1e-12 * WINDOW


@st.composite
def isolated_cells(draw):
    """Levels of H (2 to 6, distinct, in [-5, 5]), u0's amplitudes on 2 or more of them, and a basis seed.

    The amplitudes are in H's eigenbasis, 0 on the levels u0 does not occupy, each occupied one of
    modulus in [0.05, 1] with a phase.
    """
    levels = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=6, unique=True)))
    assume(min(np.diff(levels)) >= 1e-3)
    occupied = draw(st.permutations(range(len(levels))))[: draw(st.integers(2, len(levels)))]
    amplitudes = np.zeros(len(levels), dtype=complex)
    for k in occupied:
        amplitudes[k] = draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    return levels, amplitudes, draw(st.integers(0, 2**32 - 1))


def conjugated(levels, amplitudes, seed) -> RotatedHamiltonianSystem:
    """The isolated system of `isolated_cells` with H and u0 in a random basis: a unitary Q from a QR."""
    rng = np.random.default_rng(seed)
    dim = len(levels)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    hamiltonian = HermitianOperator((q * np.asarray(levels)) @ q.conj().T)
    return RotatedHamiltonianSystem(hamiltonian, HermitianOperator(np.zeros((dim, dim))),
                                    PureState.normalized(q @ amplitudes))


@properties(40)
@given(cell=isolated_cells(), delta=st.floats(0.0, 0.95))
@example(cell=([-1.0, 0.5, 2.0], np.array([1.0, 0.0, -1.0j]), 7), delta=0.3)  # two equal weights: both saturate
@example(cell=([-1.0, 0.5, 2.0], np.array([1.0, 0.6, 1.0]), 7), delta=0.3)  # three levels: neither saturates
def test_isolated_mandelstam_tamm_and_bhatia_davies_saturate_together(cell, delta):
    # the paper's claim for isolated systems: MT and BD coincide exactly on two occupied levels, so
    # they saturate together; on three or more BD is strictly below MT
    sys_ = conjugated(*cell)
    two = np.count_nonzero(cell[1]) == 2
    assert sys_.initial_statistics.occupied.sum() == np.count_nonzero(cell[1])
    tau = passage(sys_, delta, 40.0 / float(sys_.initial_statistics.energy_uncertainty))
    report = evaluate_bounds(sys_, delta, tau=tau or 0.0)
    assert (abs(report.mt - report.bd) <= 1e-12 * report.mt) == two
    assert report.bd <= report.mt * (1.0 + 1e-12)
    if tau is not None:
        assert report.mt <= tau * (1.0 + 1e-12)
        if tau - report.mt <= 1e-9 * tau:
            assert tau - report.bd <= 1e-9 * tau


@properties(40)
@given(cell=isolated_cells(), delta=st.floats(0.0, 0.999))
@example(cell=([-1.0, 0.5, 2.0], np.array([1.0, 0.0, -1.0j]), 7), delta=0.0)  # two equal weights: F touches 0
@example(cell=([-1.0, 0.5, 2.0], np.array([1.0, 0.6, 1.0]), 7), delta=0.0)
def test_isolated_passage_is_never_later_than_a_dense_scan(cell, delta):
    # isolated systems are searched with the curvature rule and the chord points as well
    assert_never_later_than_a_dense_scan(conjugated(*cell), delta)
