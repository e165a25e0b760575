import math
import re

import numpy as np
import pytest

from qsl import (
    DimensionMismatch,
    DomainError,
    HermitianOperator,
    PureState,
    RotatedHamiltonianSystem,
    StepTooLarge,
    build_coupling,
    build_ml_family,
    evaluate_bounds,
    expectation,
    propagate_exact,
    propagate_numeric,
    sample_trajectory,
    trace_distance,
    variance,
)
from qsl.evolution import NORM_DRIFT_TOL
from qsl.sweeps import random_coupled_system, random_hermitian, random_isolated_system, random_pure_state

from oracles import fidelity, hamiltonian_at, level_occupations, rotating_frame


def isolated(hamiltonian, state):
    zero = HermitianOperator(np.zeros((hamiltonian.dim, hamiltonian.dim)))
    return RotatedHamiltonianSystem(hamiltonian, zero, state)


def rk4_reference(sys_, t, step):
    """The classical RK4 loop, one step at a time, with H(t) from `hamiltonian_at`.

    Renormalizes after every step and raises StepTooLarge, with
    `propagate_numeric`'s message, at the first step whose drift is not within
    NORM_DRIFT_TOL. Returns the amplitudes.
    """
    n_full = int(t // step)
    tail = t - n_full * step
    psi, time = sys_.initial.amplitudes.copy(), 0.0
    h_here = hamiltonian_at(sys_, 0.0).entries
    for h in [step] * n_full + ([tail] if tail > 1e-15 else []):
        h_mid = hamiltonian_at(sys_, time + h / 2).entries
        h_next = hamiltonian_at(sys_, time + h).entries
        k1 = -1j * (h_here @ psi)
        k2 = -1j * (h_mid @ (psi + h / 2 * k1))
        k3 = -1j * (h_mid @ (psi + h / 2 * k2))
        k4 = -1j * (h_next @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.linalg.norm(psi) - 1.0)
        if not drift <= NORM_DRIFT_TOL:
            raise StepTooLarge(
                f"norm drift {drift:.3e} at t={time + h:.6g} exceeds {NORM_DRIFT_TOL}; reduce the step"
            )
        psi = psi / np.linalg.norm(psi)
        time, h_here = time + h, h_next
    return psi


OFF_EQUATOR = PureState([math.cos(math.pi / 6), math.sin(math.pi / 6)])


class TestSystemConstruction:
    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            RotatedHamiltonianSystem(
                HermitianOperator.from_diagonal([0.0, 1.0]),
                HermitianOperator(np.zeros((3, 3))),
                PureState([1.0, 0.0]),
            )
        with pytest.raises(DimensionMismatch):
            rotating_frame(build_ml_family(1.0, 0.8), 0.0, PureState([1.0, 0.0, 0.0]))

    def test_hamiltonian_at_zero_equals_h(self):
        sys_ = build_ml_family(1.0, 0.9)
        np.testing.assert_allclose(hamiltonian_at(sys_, 0.0).entries, sys_.H.entries, atol=1e-14)

    def test_hamiltonian_at_preserves_spectrum(self):
        sys_ = build_ml_family(1.5, 0.4)
        np.testing.assert_allclose(
            hamiltonian_at(sys_, 2.3).eigenvalues, sys_.H.eigenvalues, atol=1e-10
        )


class TestPropagateExact:
    def test_zero_time_returns_initial(self):
        rng = np.random.default_rng(5)
        sys_ = random_coupled_system(rng, 4)
        out = propagate_exact(sys_, 0.0)
        assert fidelity(out, sys_.initial) == pytest.approx(1.0, abs=1e-12)

    def test_isolated_phase_flip(self):
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0]), PureState.normalized([1.0, 1.0])
        )
        out = propagate_exact(sys_, math.pi)
        expected = PureState.normalized([1.0, -1.0])
        assert fidelity(out, expected) == pytest.approx(1.0, abs=1e-12)

    def test_family_fidelity_closed_form(self):
        for theta, energy in [(math.pi / 3, 1.0), (0.5, 2.0), (2.2, 0.7)]:
            sys_ = build_ml_family(energy, theta)
            rate = energy / math.tan(theta / 2)
            for t in np.linspace(0.0, 0.9 * math.pi / (2 * rate), 7):
                fid = fidelity(propagate_exact(sys_, t), sys_.initial)
                assert abs(fid - math.cos(rate * t) ** 2) <= 1e-10

    def test_commuting_initial_state_follows_coupling_only(self):
        # with [H - A, rho] = 0 the evolution reduces to exp(-iAt) acting on u
        rng = np.random.default_rng(9)
        for _ in range(10):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            t = rng.uniform(0.2, 3.0)
            a_only = HermitianOperator(sys_.A.entries)
            values, vectors = a_only.eig
            reduced = vectors @ (np.exp(-1j * values * t) * (vectors.conj().T @ sys_.initial.amplitudes))
            full = propagate_exact(sys_, t)
            assert fidelity(full, PureState.normalized(reduced)) == pytest.approx(1.0, abs=1e-10)


def general_formula(ev, times, a, V):
    """psi_t = V exp(-i a t) V^dagger phi_t written out, and |<u0|psi_t>|^2 in the eigenbasis of A."""
    phi = (np.exp(-1j * np.outer(times, ev.mu)) * ev.c0) @ ev.W.T
    psi = (np.exp(-1j * np.outer(times, a)) * (phi @ V.conj())) @ V.T
    # phases about the mean energies of u0 drop a global phase from each factor
    probe = V.T @ ev.u0.conj()
    mu = ev.mu - ev.mu @ np.abs(ev.c0) ** 2
    a = a - a @ np.abs(probe) ** 2
    rotated = np.exp(-1j * np.outer(times, mu)) * ev.c0
    overlaps = (np.exp(-1j * np.outer(times, a)) * (rotated @ (ev.W.T @ V.conj()))) @ probe
    return phi, psi, overlaps.real**2 + overlaps.imag**2


class TestSpectralEvaluator:
    TIMES = np.linspace(0.0, 7.0, 29)

    def test_zero_coupling_matches_the_general_formula_bit_for_bit(self):
        for dim in (2, 3, 6):
            sys_ = random_isolated_system(np.random.default_rng(dim), dim)
            ev = sys_.evaluator
            assert sys_.is_isolated
            phi, psi, fids = general_formula(ev, self.TIMES, np.zeros(dim), np.eye(dim, dtype=complex))
            got_phi, got_psi = ev.states(self.TIMES)
            assert np.array_equal(got_phi, phi)
            assert np.array_equal(got_psi, psi)
            assert np.array_equal(ev.fidelities(self.TIMES), fids)

    def test_tiny_coupling_takes_the_general_path(self):
        rng = np.random.default_rng(1)
        base = random_isolated_system(rng, 3)
        tiny = HermitianOperator(1e-20 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        sys_ = RotatedHamiltonianSystem(base.H, tiny, base.initial)
        ev = sys_.evaluator
        assert not sys_.is_isolated
        phi, psi, fids = general_formula(ev, self.TIMES, ev.a, ev.V)
        got_phi, got_psi = ev.states(self.TIMES)
        assert np.array_equal(got_phi, phi)
        assert np.array_equal(got_psi, psi)
        assert np.array_equal(ev.fidelities(self.TIMES), fids)
        # the same exact test decides the bounds: no ML bound for a coupled system
        assert evaluate_bounds(sys_, 0.5, tau=1.0).ml is None


class TestPropagateNumeric:
    def test_zero_time(self):
        sys_ = build_ml_family(1.0, 0.8)
        out = propagate_numeric(sys_, 0.0, 1e-3)
        assert fidelity(out, sys_.initial) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(out.amplitudes, sys_.initial.amplitudes)

    def test_matches_the_step_by_step_reference(self):
        # several 64-step blocks with a tail step, t < step, and a coarse step with a tail
        rng = np.random.default_rng(29)
        for dim in (2, 3, 4):
            sys_ = random_coupled_system(rng, dim)
            for t, step in [(0.7, 1e-3), (4e-4, 1e-3), (0.1234, 0.01)]:
                numeric = propagate_numeric(sys_, t, step)
                assert np.linalg.norm(numeric.amplitudes - rk4_reference(sys_, t, step)) <= 1e-12

    def test_halving_the_step_shrinks_the_error_sixteenfold(self):
        # fourth order: a lower-order scheme would shrink it 8x or less
        rng = np.random.default_rng(31)
        for _ in range(3):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 6)))
            exact = propagate_exact(sys_, 1.3)
            coarse, fine = (trace_distance(exact, propagate_numeric(sys_, 1.3, h)) for h in (0.02, 0.01))
            assert 14.0 <= coarse / fine <= 18.0

    def test_several_blocks_ending_in_a_tail_step(self):
        rng = np.random.default_rng(33)
        sys_ = random_coupled_system(rng, 4)
        numeric = propagate_numeric(sys_, 5.0003, 1e-3)
        assert trace_distance(numeric, propagate_exact(sys_, 5.0003)) <= 1e-8

    def test_matches_exact_on_family(self):
        sys_ = build_ml_family(1.0, math.radians(30.0))
        numeric = propagate_numeric(sys_, 1.0, 1e-3)
        exact = propagate_exact(sys_, 1.0)
        assert 1.0 - fidelity(numeric, exact) <= 1e-8

    def test_isolated_phase_flip(self):
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0]), PureState.normalized([1.0, 1.0])
        )
        out = propagate_numeric(sys_, math.pi, 1e-3)
        expected = PureState.normalized([1.0, -1.0])
        assert 1.0 - fidelity(out, expected) <= 1e-8

    def test_matches_exact_on_random_systems(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 5)))
            t = rng.uniform(0.5, 2.0)
            numeric = propagate_numeric(sys_, t, 1e-3)
            exact = propagate_exact(sys_, t)
            assert trace_distance(numeric, exact) <= 1e-8

    def test_arbitrary_coupling_cross_check(self):
        # the factored propagator is exact for any A, not just the geodesic one
        rng = np.random.default_rng(23)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a_mat = (g + g.conj().T) / 2
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sys_ = RotatedHamiltonianSystem(
            HermitianOperator((h + h.conj().T) / 2),
            HermitianOperator(a_mat),
            PureState.normalized(rng.normal(size=3) + 1j * rng.normal(size=3)),
        )
        numeric = propagate_numeric(sys_, 1.5, 1e-3)
        exact = propagate_exact(sys_, 1.5)
        assert 1.0 - fidelity(numeric, exact) <= 1e-10

    def test_step_too_large(self):
        rng = np.random.default_rng(25)
        sys_ = isolated(random_hermitian(rng, 3, spectral_radius=9.0), random_pure_state(rng, 3))
        with pytest.raises(StepTooLarge, match=re.escape("norm drift 5.265e+00 at t=0.5 exceeds")):
            propagate_numeric(sys_, 5.0, 0.5)

    def test_first_drift_in_a_later_block_is_reported_as_the_loop_reports_it(self):
        # the weight on the level at 3000 grows 2.27x a step (|R(-3i)| = 1.5), so drift
        # first passes 1e-6 at step 98: the second 64-step block
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 3000.0]), PureState.normalized([1.0, 1e-20]))
        with pytest.raises(StepTooLarge) as expected:
            rk4_reference(sys_, 0.2, 1e-3)
        with pytest.raises(StepTooLarge, match=re.escape("norm drift 1.797e-06 at t=0.098 exceeds")) as got:
            propagate_numeric(sys_, 0.2, 1e-3)
        assert str(got.value) == str(expected.value)

    def test_nan_drift_raises(self):
        # the step matrix overflows to NaN; NaN compares False with the tolerance
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1e300]), PureState.normalized([1.0, 1.0]))
        with pytest.raises(StepTooLarge, match=re.escape("norm drift nan at t=0.001 exceeds")):
            propagate_numeric(sys_, 1e-3, 1e-3)

    def test_overflow_later_in_the_block_keeps_the_first_offending_step(self):
        # steps from the fourth on overflow to inf and NaN; the second step already drifts
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1e23]), PureState.normalized([1.0, 1e-150]))
        with pytest.raises(StepTooLarge, match=re.escape("norm drift 1.736e+07 at t=0.002 exceeds")):
            propagate_numeric(sys_, 1.0, 1e-3)

    def test_bad_arguments(self):
        sys_ = build_ml_family(1.0, 0.8)
        for t, step in [(1.0, 0.0), (-1.0, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3), (1.0, math.nan)]:
            with pytest.raises(DomainError):
                propagate_numeric(sys_, t, step)


class TestRotatingFrame:
    def test_zero_time_identity(self):
        sys_ = build_ml_family(1.0, 0.8)
        out = rotating_frame(sys_, 0.0, sys_.initial)
        assert fidelity(out, sys_.initial) == pytest.approx(1.0, abs=1e-12)

    def test_stationary_for_commuting_initial_state(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            t = rng.uniform(0.0, 4.0)
            frame_state = rotating_frame(sys_, t, propagate_exact(sys_, t))
            assert fidelity(frame_state, sys_.initial) == pytest.approx(1.0, abs=1e-10)

    def test_frame_state_evolves_under_effective_hamiltonian(self):
        sys_ = RotatedHamiltonianSystem(
            build_ml_family(1.0, math.radians(30.0)).H,
            build_ml_family(1.0, math.radians(30.0)).A,
            OFF_EQUATOR,
        )
        t = 0.37
        frame_state = rotating_frame(sys_, t, propagate_exact(sys_, t))
        values, vectors = sys_.effective.eig
        expected = vectors @ (
            np.exp(-1j * values * t) * (vectors.conj().T @ sys_.initial.amplitudes)
        )
        assert fidelity(frame_state, PureState.normalized(expected)) == pytest.approx(1.0, abs=1e-12)

    def test_off_equator_rotating_frame_circle(self):
        # in the rotating frame the effective generator is proportional to X,
        # so the curve is a circle of constant bloch_x
        family = build_ml_family(1.0, math.radians(30.0))
        sys_ = RotatedHamiltonianSystem(family.H, family.A, OFF_EQUATOR)
        traj = sample_trajectory(sys_, 1.0, 600, frame="rotating")
        assert np.ptp(traj.bloch[:, 0]) <= 1e-9
        assert abs(traj.bloch[0, 0] - 0.5) <= 1e-12
        # the curve actually moves in the other two coordinates
        assert np.ptp(traj.bloch[:, 1]) > 0.1


class TestSampleTrajectory:
    def test_sample_counts_and_endpoints(self):
        sys_ = build_ml_family(1.0, 0.8)
        traj = sample_trajectory(sys_, 2.0, 2)
        np.testing.assert_allclose(traj.times, [0.0, 1.0, 2.0])
        assert traj.n_samples == 3

    def test_validation(self):
        sys_ = build_ml_family(1.0, 0.8)
        for t_max in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                sample_trajectory(sys_, t_max, 10)
        for n in (1, 0, 2.5, 3.0, True, "3", None):
            with pytest.raises(DomainError, match="need at least 2 sampling intervals"):
                sample_trajectory(sys_, 1.0, n)
        for samples in (2.5, -4, True):
            for delta, tau in ((0.5, 1.0), (1.0, 0.0)):
                with pytest.raises(DomainError, match="need at least 2 sampling intervals"):
                    evaluate_bounds(sys_, delta, tau=tau, samples=samples)
        assert sample_trajectory(sys_, 1.0, np.int64(4)).n_samples == 5
        with pytest.raises(DomainError):
            sample_trajectory(sys_, 1.0, 10, frame="interaction")

    def test_final_fidelity_zero_at_orthogonalization_time(self):
        sys_ = build_ml_family(1.0, math.pi / 3)
        traj = sample_trajectory(sys_, math.pi / (2 * math.sqrt(3.0)), 1000)
        assert traj.fidelity[-1] <= 1e-9

    def test_unit_norm_and_purity(self):
        rng = np.random.default_rng(31)
        sys_ = random_coupled_system(rng, 5)
        traj = sample_trajectory(sys_, 3.0, 300)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-10
        purity = norms**4
        assert np.abs(purity - 1.0).max() <= 1e-9

    def test_occupation_conservation(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            traj = sample_trajectory(sys_, 4.0, 400)
            drift = np.abs(traj.stats.occupations - traj.stats.occupations[0]).max()
            assert drift <= 1e-9

    def test_conserved_energy_observables(self):
        rng = np.random.default_rng(35)
        for maker in (random_coupled_system, random_isolated_system):
            sys_ = maker(rng, 4)
            traj = sample_trajectory(sys_, 5.0, 500)
            for column in (
                traj.stats.exp_energy,
                traj.stats.energy_uncertainty,
                traj.stats.norm_energy,
                traj.stats.dual_norm_energy,
            ):
                assert np.std(column) <= 1e-9

    def test_three_level_construction_keeps_three_levels(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0])
        sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
        traj = sample_trajectory(sys_, 2.0, 200)
        occupied_counts = (traj.stats.occupations > 1e-12).sum(axis=1)
        assert np.all(occupied_counts == 3)

    def test_degenerate_levels_are_grouped_at_every_sample(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 0.0, 1.0, 2.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0, 1.0, 1.0])
        sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
        n = 200
        stats = sample_trajectory(sys_, 2.0, n).stats
        np.testing.assert_array_equal(stats.levels, [0.0, 1.0, 2.0])
        assert stats.occupations.shape == (n + 1, 3)
        np.testing.assert_allclose(
            stats.occupations - level_occupations(hamiltonian, state)[1], 0.0, atol=1e-12
        )
        np.testing.assert_array_equal(stats.eps_min, 0.0)
        np.testing.assert_array_equal(stats.eps_max, 2.0)

    def test_bloch_columns_match_axis_operator_expectations(self):
        from qsl import bloch_operators

        family = build_ml_family(1.0, math.radians(30.0))
        sys_ = RotatedHamiltonianSystem(family.H, family.A, OFF_EQUATOR)
        traj = sample_trajectory(sys_, 0.7, 40)
        for axis, op in enumerate(bloch_operators()):
            expected = np.einsum("ti,ij,tj->t", traj.states.conj(), op, traj.states).real
            np.testing.assert_allclose(traj.bloch[:, axis], expected, atol=1e-12)

    def test_observables_match_explicit_conjugated_hamiltonian(self):
        # spot-check the rotating-frame shortcut against direct H(t) evaluation
        rng = np.random.default_rng(37)
        sys_ = random_coupled_system(rng, 4)
        traj = sample_trajectory(sys_, 2.0, 10)
        for i in (0, 3, 7, 10):
            t = traj.times[i]
            h_t = hamiltonian_at(sys_, t)
            state = PureState(traj.states[i])
            assert abs(expectation(h_t, state) - traj.stats.exp_energy[i]) <= 1e-9
            assert abs(math.sqrt(variance(h_t, state)) - traj.stats.energy_uncertainty[i]) <= 1e-9

    def test_geodesic_speed_equals_energy_uncertainty(self):
        # with the coupling conditions satisfied, the Fubini-Study speed
        # (finite difference of arccos sqrt(fidelity)) is the uncertainty
        rng = np.random.default_rng(39)
        for _ in range(5):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 6)))
            spread = math.sqrt(variance(sys_.H, sys_.initial))
            t_end = 0.9 * math.pi / (2 * spread)
            traj = sample_trajectory(sys_, t_end, 2000)
            distance = np.arccos(np.sqrt(np.clip(traj.fidelity, 0.0, 1.0)))
            inner = slice(100, 1900)
            speed = np.gradient(distance, traj.times)[inner]
            assert np.abs(speed - traj.stats.energy_uncertainty[inner]).max() <= 1e-6
            assert np.ptp(speed) <= 1e-6
