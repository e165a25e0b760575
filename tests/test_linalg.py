import math

import numpy as np
import pytest

from qsl import (
    DimensionMismatch,
    DomainError,
    HermitianOperator,
    NonHermitian,
    PureState,
    RotatedHamiltonianSystem,
    expectation,
    sample_trajectory,
    trace_distance,
    variance,
)
from qsl.counterexamples import build_coupling, build_ml_family
from qsl.linalg import EnergyStatistics, _energy_statistics

from oracles import (
    commutator_norm,
    density,
    fidelity,
    level_occupations,
    phase_tolerance,
    sample_major_statistics,
    state_statistics,
    unitary_exp,
)


def random_hermitian_matrix(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_state(rng, dim):
    return PureState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def initial_statistics(op, state):
    """The statistics the bounds read: those of op in state, as an isolated system caches them."""
    zero = HermitianOperator(np.zeros((op.dim, op.dim)))
    return RotatedHamiltonianSystem(op, zero, state).initial_statistics


UNIFORM3 = PureState.normalized([1.0, 1.0, 1.0])
DIAG012 = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])

# Pauli-like operators on span{e1, e2}, with e1 on the positive x axis.
X2 = HermitianOperator([[1.0, 0.0], [0.0, -1.0]])
Z2 = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_hermiticity_tolerance_is_relative_to_the_largest_entry(self):
        # q (1e6 I) q^dagger is Hermitian; its rounding, 7.4e-11, exceeds 1e-12 only in absolute terms
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        mat = q @ (1e6 * np.eye(3)) @ q.conj().T
        assert np.abs(mat - mat.conj().T).max() > 1e-12
        np.testing.assert_allclose(HermitianOperator(mat).eig[0], 1e6, rtol=1e-12)
        assert np.array_equal(HermitianOperator(np.zeros((3, 3))).entries, np.zeros((3, 3)))

    def test_a_small_matrix_is_judged_on_its_own_scale(self):
        with pytest.raises(NonHermitian):
            HermitianOperator([[0.0, 1e-11], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN passes the Hermiticity comparison, and inf - inf would warn before it
        off = complex(1.0, bad)
        for entries in (np.diag([bad, 1.0]), [[0.0, bad], [bad, 0.0]], [[0.0, off], [off.conjugate(), 0.0]]):
            with pytest.raises(DomainError, match="non-finite"):
                HermitianOperator(entries)
        with pytest.raises(DomainError, match="non-finite"):
            HermitianOperator.from_diagonal([0.0, bad])

    def test_diagonal_matrix_eigensystem(self):
        values, vectors = DIAG012.eig
        np.testing.assert_allclose(values, [0.0, 1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(vectors, np.eye(3), atol=1e-14)

    def test_two_level_flip_operator_spectrum(self):
        # closed-form 2x2 eigensolve: |u><v| + |v><u| has eigenvalues -1, +1
        values, _ = Z2.eig
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)

    def test_family_hamiltonian_spectrum(self):
        for theta in np.linspace(0.05, math.pi - 0.05, 17):
            sys_ = build_ml_family(1.0, theta)
            mu = 1.0 / (1.0 - math.cos(theta))
            np.testing.assert_allclose(sys_.H.eig[0], [-mu, mu], rtol=1e-12)

    def test_reconstruction_and_unitarity_sweep(self):
        rng = np.random.default_rng(7)
        worst_recon, worst_unitary = 0.0, 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            op = HermitianOperator(random_hermitian_matrix(rng, dim))
            values, vectors = op.eig
            assert np.all(np.diff(values) >= 0)
            recon = (vectors * values) @ vectors.conj().T
            worst_recon = max(worst_recon, np.abs(recon - op.entries).max())
            gram = vectors.conj().T @ vectors
            worst_unitary = max(worst_unitary, np.abs(gram - np.eye(dim)).max())
        assert worst_recon <= 1e-10
        assert worst_unitary <= 1e-10

    def test_eigenvector_phases_deterministic(self):
        rng = np.random.default_rng(3)
        mat = random_hermitian_matrix(rng, 4)
        _, first = HermitianOperator(mat).eig
        _, second = HermitianOperator(mat.copy()).eig
        np.testing.assert_array_equal(first, second)
        for k in range(4):
            col = first[:, k]
            idx = int(np.argmax(np.abs(col) > 1e-9 * np.abs(col).max()))
            assert col[idx].real > 0
            assert abs(col[idx].imag) < 1e-12


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            PureState([1.0, 1.0])

    def test_normalized_constructor_and_density(self):
        s = PureState.normalized([3.0, 4.0])
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12
        rho = density(s)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert abs(np.trace(rho @ rho) - 1.0) <= 1e-12

    @pytest.mark.parametrize("amplitudes, unit", [
        ([1e-200, 1e-200], [1.0, 1.0]),
        ([1e200, 1e200], [1.0, 1.0]),
        ([1e-160, 1e-161], [10.0, 1.0]),
        ([1e-310j, 0.0], [1j, 0.0]),
    ])
    def test_normalized_at_extreme_scales(self, amplitudes, unit):
        # squared entries under- or overflow unless the vector is scaled first
        expected = np.array(unit) / np.linalg.norm(unit)
        np.testing.assert_allclose(PureState.normalized(amplitudes).amplitudes, expected, rtol=1e-15, atol=0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            PureState.normalized([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0), complex(0.0, -math.inf)])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm passes the unit-norm comparison
        with pytest.raises(DomainError, match="non-finite"):
            PureState([bad, bad])
        with pytest.raises(DomainError, match="non-finite"):
            PureState([1.0, bad])
        with pytest.raises(DomainError, match="non-finite"):
            PureState.normalized([1.0, bad])


class TestUnitaryExp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(11)
        op = HermitianOperator(random_hermitian_matrix(rng, 5))
        np.testing.assert_allclose(unitary_exp(op, 0.0), np.eye(5), atol=1e-14)

    def test_diagonal_phases(self):
        op = HermitianOperator.from_diagonal([0.0, math.pi])
        np.testing.assert_allclose(unitary_exp(op, 1.0), np.diag([1.0, -1.0]), atol=1e-14)

    def test_two_level_rotation_period(self):
        # eigenphases of X2 are +-1, so the rotation has period 2*pi
        v = unitary_exp(X2, 2 * math.pi)
        np.testing.assert_allclose(v, np.eye(2), atol=1e-10)

    def test_group_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            op = HermitianOperator(random_hermitian_matrix(rng, 4))
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = unitary_exp(op, t1 + t2)
            rhs = unitary_exp(op, t1) @ unitary_exp(op, t2)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_result_unitary(self):
        rng = np.random.default_rng(17)
        op = HermitianOperator(random_hermitian_matrix(rng, 6))
        v = unitary_exp(op, 1.7)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-10)


class TestExpectationVariance:
    def test_uniform_three_level(self):
        assert abs(expectation(DIAG012, UNIFORM3) - 1.0) <= 1e-12
        assert abs(variance(DIAG012, UNIFORM3) - 2.0 / 3.0) <= 1e-12

    def test_eigenvector_expectation(self):
        rng = np.random.default_rng(19)
        op = HermitianOperator(random_hermitian_matrix(rng, 4))
        values, vectors = op.eig
        for k in range(4):
            s = PureState.normalized(vectors[:, k])
            assert abs(expectation(op, s) - values[k]) <= 1e-10
            assert variance(op, s) <= 1e-12

    def test_family_state_moments(self):
        theta = 0.7
        sys_ = build_ml_family(2.0, theta)
        mu = 2.0 / (1.0 - math.cos(theta))
        assert abs(expectation(sys_.H, sys_.initial) + mu * math.cos(theta)) <= 1e-10
        assert abs(variance(sys_.H, sys_.initial) - (mu * math.sin(theta)) ** 2) <= 1e-8

    def test_expectation_within_spectrum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            op = HermitianOperator(random_hermitian_matrix(rng, dim))
            s = random_state(rng, dim)
            values, _ = op.eig
            assert values[0] - 1e-12 <= expectation(op, s) <= values[-1] + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(DIAG012, PureState([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            variance(X2, UNIFORM3)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(29)
        s = random_state(rng, 5)
        assert abs(fidelity(s, s) - 1.0) <= 1e-12

    def test_orthogonal_states(self):
        assert fidelity(PureState([1.0, 0.0]), PureState([0.0, 1.0])) <= 1e-15

    def test_half_overlap(self):
        s1 = PureState([1.0, 0.0])
        s2 = PureState.normalized([1.0, 1.0])
        assert abs(fidelity(s1, s2) - 0.5) <= 1e-12

    def test_symmetry_and_phase_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            s1, s2 = random_state(rng, 4), random_state(rng, 4)
            assert fidelity(s1, s2) == fidelity(s2, s1)
            phased = PureState(s1.amplitudes * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            assert abs(fidelity(phased, s2) - fidelity(s1, s2)) <= 1e-12

    def test_dimension_mismatch(self):
        for measure in (fidelity, trace_distance):
            with pytest.raises(DimensionMismatch):
                measure(UNIFORM3, PureState([1.0, 0.0]))


class TestOccupiedExtrema:
    def test_uniform_three_level(self):
        stats = initial_statistics(DIAG012, UNIFORM3)
        assert (stats.eps_min, stats.eps_max, stats.occupied.sum()) == pytest.approx((0.0, 2.0, 3))

    def test_single_level(self):
        # the zero weights on the other two levels are not occupations
        stats = initial_statistics(DIAG012, PureState([1.0, 0.0, 0.0]))
        assert stats.eps_min == stats.eps_max == 0.0
        assert stats.occupied.tolist() == [True, False, False]

    def test_family_state_occupies_both_levels(self):
        sys_ = build_ml_family(1.0, 1.1)
        mu = 1.0 / (1.0 - math.cos(1.1))
        stats = sys_.initial_statistics
        assert stats.eps_min == pytest.approx(-mu, rel=1e-12)
        assert stats.eps_max == pytest.approx(mu, rel=1e-12)
        assert stats.occupied.sum() == 2

    def test_degenerate_levels_grouped(self):
        op = HermitianOperator.from_diagonal([0.0, 1e-15, 1.0])
        levels, occ = level_occupations(op, UNIFORM3)
        assert len(levels) == 2
        np.testing.assert_allclose(occ, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert initial_statistics(op, UNIFORM3).occupied.sum() == 2

    def test_weight_below_the_threshold_is_not_occupied(self):
        # a level counts only above 1e-12: 1e-13 is not, 1e-11 is
        for weight, eps_max in ((1e-13, 1.0), (1e-11, 2.0)):
            state = PureState.normalized(np.sqrt([0.5, 0.5, weight]))
            stats = initial_statistics(DIAG012, state)
            assert stats.eps_max == eps_max


def level_major_statistics(values, weights):
    """The energy statistics of a levels x states batch, each weighted sum adding the level rows in order."""

    def down(column, rows):
        total = column[0] * rows[0]
        for k in range(1, len(column)):
            total = total + column[k] * rows[k]
        return total

    mean = down(values, weights)
    spread = np.sqrt(down(np.ones(len(values)), weights * (values[:, None] - mean) ** 2))
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > 1e-9 * float(np.abs(values).max()))
    levels = np.add.reduceat(values, starts) / np.diff(starts, append=len(values))
    occupations = np.add.reduceat(weights, starts, axis=0)  # a group's first row plus the sum of the others
    occupied = occupations > 1e-12
    eps_min = np.where(occupied, levels[:, None], np.inf).min(axis=0)
    eps_max = np.where(occupied, levels[:, None], -np.inf).max(axis=0)
    norm_energy = down(values - levels[0], weights) - (eps_min - levels[0])
    dual_norm_energy = down(levels[-1] - values, weights) - (levels[-1] - eps_max)
    return EnergyStatistics(
        mean, spread, levels, occupations.T, eps_min, eps_max, occupied.T, norm_energy, dual_norm_energy
    )


def kernel_operators(rng, dim):
    """A generic spectrum, one grouped into near-degenerate triples, and c * I."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    triples = (q * (np.arange(dim) // 3 - 1.5)) @ q.conj().T  # eigenvalues equal up to rounding
    return {
        "generic": HermitianOperator(random_hermitian_matrix(rng, dim)),
        "triples": HermitianOperator(triples),
        "identity": HermitianOperator(1.7 * np.eye(dim)),
    }


def kernel_states(rng, op):
    """A random state and one whose weight on every other eigenvector is 1e-14, below the threshold."""
    coefficients = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    faint = coefficients.copy()
    faint[1::2] *= 1e-7 / np.abs(faint[1::2])
    return {"random": PureState.normalized(coefficients), "faint": PureState.normalized(op.eig[1] @ faint)}


def assert_same_statistics(got, expected):
    for name, value, reference in zip(EnergyStatistics._fields, got, expected):
        assert np.shape(value) == np.shape(reference), name
        assert np.array_equal(value, reference), name


class TestStatisticsKernel:
    # One state keeps the bits of the sample-major formulas; a batch adds its level rows in order.
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_one_state_matches_the_sample_major_formulas(self, dim):
        rng = np.random.default_rng(300 + dim)
        for op in kernel_operators(rng, dim).values():
            values, vectors = op.eig
            for state in kernel_states(rng, op).values():
                weights = np.abs(state.amplitudes @ vectors.conj()) ** 2
                got = state_statistics(op, state)
                assert np.shape(got.exp_energy) == np.shape(got.eps_min) == ()
                assert_same_statistics(got, sample_major_statistics(values, weights))

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_trajectory_matches_the_level_major_formulas(self, dim):
        # bit for bit on the kernel's own input weights, which stay within ulps of the states' weights
        rng = np.random.default_rng(400 + dim)
        for op in kernel_operators(rng, dim).values():
            values, vectors = op.eig
            for state in kernel_states(rng, op).values():
                couplings = (
                    HermitianOperator(np.zeros((dim, dim))),
                    build_coupling(op, state),
                    HermitianOperator(random_hermitian_matrix(rng, dim)),
                )
                for coupling in couplings:
                    sys_ = RotatedHamiltonianSystem(op, coupling, state)
                    traj = sample_trajectory(sys_, 1.3, 24, frame="rotating")
                    weights = sys_.evaluator.uniform_weights(traj.times)
                    from_states = (np.abs(traj.states @ vectors.conj()) ** 2).T
                    assert np.abs(weights - from_states).max() <= phase_tolerance(sys_.evaluator.mu, 1.3)
                    assert traj.stats.occupations.shape == (25, len(traj.stats.levels))
                    assert_same_statistics(traj.stats, level_major_statistics(values, weights))

    def test_cases_cover_grouped_and_unoccupied_levels(self):
        rng = np.random.default_rng(312)
        ops = kernel_operators(rng, 12)
        assert [len(op._spectrum.levels) for op in ops.values()] == [12, 4, 1]
        stats = state_statistics(ops["generic"], kernel_states(rng, ops["generic"])["faint"])
        assert stats.occupied.tolist() == [True, False] * 6

    def test_levels_are_computed_once_per_operator(self):
        op = HermitianOperator(random_hermitian_matrix(np.random.default_rng(5), 4))
        first, second = (state_statistics(op, random_state(np.random.default_rng(k), 4)) for k in (6, 7))
        assert first.levels is second.levels is op._spectrum.levels
        with pytest.raises(ValueError):
            first.levels[0] = 0.0

    def test_spread_on_a_large_energy_scale(self):
        # the centred energies, squared as they are, would overflow to inf
        op = HermitianOperator.from_diagonal([-(2.0**520), 2.0**520])
        assert _energy_statistics(op, np.array([0.5, 0.5])).energy_uncertainty == 2.0**520


class TestCommutatorNorm:
    def test_self_commutator_vanishes(self):
        assert commutator_norm(DIAG012, DIAG012) == 0.0

    def test_pauli_pair(self):
        # [X, Z] = -2iY has Frobenius norm 2*sqrt(2)
        assert abs(commutator_norm(X2, Z2) - 2.0 * math.sqrt(2.0)) <= 1e-12

    def test_effective_hamiltonian_commutes_with_state(self):
        rng = np.random.default_rng(37)
        op = HermitianOperator(random_hermitian_matrix(rng, 4))
        s = random_state(rng, 4)
        coupling = build_coupling(op, s)
        effective = HermitianOperator(op.entries - coupling.entries)
        assert commutator_norm(effective, s) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator_norm(X2, DIAG012)


class TestBhatiaDaviesInequality:
    def test_holds_for_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            op = HermitianOperator(random_hermitian_matrix(rng, dim))
            s = random_state(rng, dim)
            stats = initial_statistics(op, s)
            eps_min, eps_max = stats.eps_min, stats.eps_max
            mean = expectation(op, s)
            assert variance(op, s) <= (eps_max - mean) * (mean - eps_min) + 1e-10

    def test_equality_on_two_occupied_levels(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            dim = int(rng.integers(3, 7))
            op = HermitianOperator(random_hermitian_matrix(rng, dim))
            _, vectors = op.eig
            i, j = rng.choice(dim, size=2, replace=False)
            w = rng.uniform(0.05, 0.95)
            vec = math.sqrt(w) * vectors[:, i] + math.sqrt(1 - w) * np.exp(
                1j * rng.uniform(0, 2 * math.pi)
            ) * vectors[:, j]
            s = PureState.normalized(vec)
            stats = initial_statistics(op, s)
            eps_min, eps_max = stats.eps_min, stats.eps_max
            assert stats.occupied.sum() == 2
            mean = expectation(op, s)
            gap = (eps_max - mean) * (mean - eps_min) - variance(op, s)
            assert abs(gap) <= 1e-10

    def test_strict_on_three_levels(self):
        op = HermitianOperator.from_diagonal([0.0, 1.0, 3.0])
        s = PureState.normalized(np.sqrt([0.5, 0.3, 0.2]))
        stats = initial_statistics(op, s)
        eps_min, eps_max = stats.eps_min, stats.eps_max
        assert stats.occupied.sum() == 3
        mean = expectation(op, s)
        margin = (eps_max - mean) * (mean - eps_min) - variance(op, s)
        assert margin > 1e-12
