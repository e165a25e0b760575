import math

import numpy as np
import pytest

from qsl import (
    DimensionMismatch,
    DomainError,
    HermitianOperator,
    NoOccupation,
    NonHermitian,
    PureState,
    expectation,
    occupied_extrema,
    trace_distance,
    variance,
)
from qsl.counterexamples import build_coupling, build_ml_family

from oracles import commutator_norm, density, fidelity, level_occupations, unitary_exp


def random_hermitian_matrix(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_state(rng, dim):
    return PureState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


UNIFORM3 = PureState.normalized([1.0, 1.0, 1.0])
DIAG012 = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])

# Pauli-like operators on span{e1, e2}, with e1 on the positive x axis.
X2 = HermitianOperator([[1.0, 0.0], [0.0, -1.0]])
Z2 = HermitianOperator([[0.0, 1.0], [1.0, 0.0]])


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

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
            np.testing.assert_allclose(sys_.H.eigenvalues, [-mu, mu], rtol=1e-12)

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
        first = HermitianOperator(mat).eigenvectors
        second = HermitianOperator(mat.copy()).eigenvectors
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
            value = expectation(op, s)
            assert op.eigenvalues[0] - 1e-12 <= value <= op.eigenvalues[-1] + 1e-12

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
        result = occupied_extrema(DIAG012, UNIFORM3, 1e-12)
        assert result == pytest.approx((0.0, 2.0, 3))

    def test_single_level(self):
        result = occupied_extrema(DIAG012, PureState([1.0, 0.0, 0.0]), 1e-12)
        assert result.eps_min == result.eps_max == 0.0
        assert result.occupied_count == 1

    def test_family_state_occupies_both_levels(self):
        sys_ = build_ml_family(1.0, 1.1)
        mu = 1.0 / (1.0 - math.cos(1.1))
        result = occupied_extrema(sys_.H, sys_.initial, 1e-12)
        assert result.eps_min == pytest.approx(-mu, rel=1e-12)
        assert result.eps_max == pytest.approx(mu, rel=1e-12)
        assert result.occupied_count == 2

    def test_bad_threshold_raises(self):
        with pytest.raises(NoOccupation):
            occupied_extrema(DIAG012, UNIFORM3, 0.5)
        with pytest.raises(DomainError):
            occupied_extrema(DIAG012, UNIFORM3, 0.0)

    def test_degenerate_levels_grouped(self):
        op = HermitianOperator.from_diagonal([0.0, 1e-15, 1.0])
        levels, occ = level_occupations(op, UNIFORM3)
        assert len(levels) == 2
        np.testing.assert_allclose(occ, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        result = occupied_extrema(op, UNIFORM3, 1e-12)
        assert result.occupied_count == 2


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
            eps_min, eps_max, _ = occupied_extrema(op, s, 1e-12)
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
            eps_min, eps_max, count = occupied_extrema(op, s, 1e-12)
            assert count == 2
            mean = expectation(op, s)
            gap = (eps_max - mean) * (mean - eps_min) - variance(op, s)
            assert abs(gap) <= 1e-10

    def test_strict_on_three_levels(self):
        op = HermitianOperator.from_diagonal([0.0, 1.0, 3.0])
        s = PureState.normalized(np.sqrt([0.5, 0.3, 0.2]))
        eps_min, eps_max, count = occupied_extrema(op, s, 1e-12)
        assert count == 3
        mean = expectation(op, s)
        margin = (eps_max - mean) * (mean - eps_min) - variance(op, s)
        assert margin > 1e-12
