import math
import re
import tracemalloc

import numpy as np
import pytest

from qsl import (
    DimensionMismatch,
    DomainError,
    HermitianOperator,
    PureState,
    RotatedHamiltonianSystem,
    StepTooLarge,
    bloch_operators,
    build_coupling,
    build_ml_family,
    choose_theta,
    evaluate_bounds,
    expectation,
    propagate_exact,
    propagate_numeric,
    sample_trajectory,
    trace_distance,
    validity_sweep,
    variance,
)
from qsl.bounds import _certificate, time_average
from qsl.evolution import NORM_DRIFT_TOL, _SpectralEvaluator, _uniform_phases
from qsl.sweeps import random_coupled_system, random_hermitian, random_isolated_system, random_pure_state

from oracles import (
    fidelity,
    hamiltonian_at,
    level_occupations,
    phase_tolerance,
    rotating_frame,
    sample_major_statistics,
)


def isolated(hamiltonian, state):
    zero = HermitianOperator(np.zeros((hamiltonian.dim, hamiltonian.dim)))
    return RotatedHamiltonianSystem(hamiltonian, zero, state)


def certificate_speed(sys_):
    """The speed v of first_passage's certificate; v does not depend on the window."""
    return _certificate(sys_, 1.0)[0]


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
            hamiltonian_at(sys_, 2.3).eig[0], sys_.H.eig[0], atol=1e-10
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
            got_phi = ev.rotating(self.TIMES)
            got_psi = ev.schrodinger(self.TIMES, got_phi)
            assert np.array_equal(got_phi, phi)
            assert np.array_equal(got_psi, psi)
            assert np.array_equal(ev.fidelities(self.TIMES), fids)
            # a = 0 and V = I exactly, so the scan's exp(-i a t) phases are exactly 1
            assert not ev.a.any() and np.array_equal(ev.V, np.eye(dim))
            overlaps = ev._probe @ (ev._mix.T @ (ev.c0[:, None] * _uniform_phases(ev._rate_mu, self.TIMES)))
            assert np.array_equal(ev.uniform_fidelities(self.TIMES), overlaps.real**2 + overlaps.imag**2)

    def test_tiny_coupling_takes_the_general_path(self):
        rng = np.random.default_rng(1)
        base = random_isolated_system(rng, 3)
        tiny = HermitianOperator(1e-20 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        sys_ = RotatedHamiltonianSystem(base.H, tiny, base.initial)
        ev = sys_.evaluator
        assert not sys_.is_isolated
        phi, psi, fids = general_formula(ev, self.TIMES, ev.a, ev.V)
        got_phi = ev.rotating(self.TIMES)
        got_psi = ev.schrodinger(self.TIMES, got_phi)
        assert np.array_equal(got_phi, phi)
        assert np.array_equal(got_psi, psi)
        assert np.array_equal(ev.fidelities(self.TIMES), fids)
        # the same exact test decides the bounds: no ML bound for a coupled system
        assert evaluate_bounds(sys_, 0.5, tau=1.0).ml is None

    def test_speed_bounds_the_energy_uncertainty_at_every_time(self):
        # general (H, A, u0): u0 is no eigenvector of H - A, so dH(t) varies and neither bound is exact
        rng = np.random.default_rng(83)
        below_width = 0
        for _ in range(200):
            dim = int(rng.integers(2, 7))
            hamiltonian = random_hermitian(rng, dim, spectral_radius=rng.uniform(1.0, 5.0))
            coupling = random_hermitian(rng, dim, spectral_radius=rng.uniform(0.1, 5.0))
            sys_ = RotatedHamiltonianSystem(hamiltonian, coupling, random_pure_state(rng, dim))
            spread = sample_trajectory(sys_, 20.0, 20000).stats.energy_uncertainty
            assert certificate_speed(sys_) >= spread.max()
            below_width += certificate_speed(sys_) < np.ptp(hamiltonian.eig[0]) / 2.0
        assert below_width >= 10  # the structural sum, not only half the width, is tested

    @pytest.mark.parametrize("margin", [1e12, 1e80, 1e100, 1e150])
    def test_geodesic_speed_is_the_energy_uncertainty_on_the_ml_family(self, margin):
        # the refute-ml family at delta 0.5, L 1, E 1: u0 is an eigenvector of H - A, so v = dH = E cot(theta/2);
        # only the speed is read, with no search, so a wrong v cannot make the test hang
        theta = choose_theta(0.5, 1.0, margin)
        speed = certificate_speed(build_ml_family(1.0, theta))
        assert speed == pytest.approx(1.0 / math.tan(theta / 2.0), rel=1e-12, abs=0.0)


class TestPropagateNumeric:
    def test_zero_time(self):
        sys_ = build_ml_family(1.0, 0.8)
        out = propagate_numeric(sys_, 0.0, 1e-3)
        assert fidelity(out, sys_.initial) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(out.amplitudes, sys_.initial.amplitudes)

    def test_matches_the_step_by_step_reference(self):
        # hundreds of steps with a tail step, t < step, a coarse step with a tail, and at the
        # 64-step block edges: exactly one block, one step more, two blocks and a tail step
        rng = np.random.default_rng(29)
        edges = [(n * 2.0**-10, 2.0**-10) for n in (64, 65, 128.5)]
        for dim in (2, 3, 4):
            sys_ = random_coupled_system(rng, dim)
            for t, step in [(0.7, 1e-3), (4e-4, 1e-3), (0.1234, 0.01)] + edges:
                numeric = propagate_numeric(sys_, t, step)
                assert np.linalg.norm(numeric.amplitudes - rk4_reference(sys_, t, step)) <= 1e-12

    def test_scaling_energy_by_a_power_of_two_and_time_by_its_inverse_keeps_the_amplitudes(self):
        # the scaling is exact in floating point; at 2^-40 in time the half-step tail is 4.5e-16
        # long, a real step that an absolute 1e-15 threshold would drop
        sys_ = random_coupled_system(np.random.default_rng(5), 3)
        base = propagate_numeric(sys_, 1.2345, 1e-3).amplitudes
        for s in (2.0**40, 2.0**-40):
            h, a = (HermitianOperator(s * op.entries) for op in (sys_.H, sys_.A))
            scaled = RotatedHamiltonianSystem(h, a, sys_.initial)
            assert np.linalg.norm(propagate_numeric(scaled, 1.2345 / s, 1e-3 / s).amplitudes - base) <= 1e-13

    def test_an_empty_fast_level_stays_exactly_empty(self):
        # F's entry on the level at 1e5 is about 4e6, so F^j overflows from j = 47 on;
        # a block built from those powers would give inf * 0 = NaN on the empty level
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1e5]), PureState([1.0, 0.0]))
        assert np.array_equal(propagate_numeric(sys_, 0.1, 1e-3).amplitudes, [1.0, 0.0])

    def test_halving_the_step_shrinks_the_error_sixteenfold(self):
        # fourth order: a lower-order scheme would shrink it 8x or less
        rng = np.random.default_rng(31)
        for _ in range(3):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 6)))
            exact = propagate_exact(sys_, 1.3)
            coarse, fine = (trace_distance(exact, propagate_numeric(sys_, 1.3, h)) for h in (0.02, 0.01))
            assert 14.0 <= coarse / fine <= 18.0

    def test_thousands_of_steps_ending_in_a_tail_step(self):
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

    def test_a_late_first_drift_is_reported_as_the_loop_does(self):
        # the weight on the level at 3000 grows 2.27x a step (|R(-3i)| = 1.5), so drift
        # first passes 1e-6 at step 98, long after the first step, or from a larger start
        # at step 65, the first step of the second 64-step block
        cases = [(1e-20, "norm drift 1.797e-06 at t=0.098 exceeds"), (7e-15, "norm drift 1.673e-06 at t=0.065 exceeds")]
        for amplitude, message in cases:
            sys_ = isolated(HermitianOperator.from_diagonal([0.0, 3000.0]), PureState.normalized([1.0, amplitude]))
            with pytest.raises(StepTooLarge) as expected:
                rk4_reference(sys_, 0.2, 1e-3)
            with pytest.raises(StepTooLarge, match=re.escape(message)) as got:
                propagate_numeric(sys_, 0.2, 1e-3)
            assert str(got.value) == str(expected.value)

    def test_nan_drift_raises(self):
        # the step matrix overflows to NaN; NaN compares False with the tolerance
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1e300]), PureState.normalized([1.0, 1.0]))
        with pytest.raises(StepTooLarge, match=re.escape("norm drift nan at t=0.001 exceeds")):
            propagate_numeric(sys_, 1e-3, 1e-3)

    def test_a_later_overflow_keeps_the_first_offending_step(self):
        # steps from the fourth on overflow to inf and NaN; the second step already drifts
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1e23]), PureState.normalized([1.0, 1e-150]))
        with pytest.raises(StepTooLarge, match=re.escape("norm drift 1.736e+07 at t=0.002 exceeds")):
            propagate_numeric(sys_, 1.0, 1e-3)

    def test_memory_does_not_grow_with_the_run_length(self):
        # blocks of a fixed length: the traced peak at 20000 steps stays that of 2000
        sys_ = random_coupled_system(np.random.default_rng(37), 3)
        propagate_numeric(sys_, 1e-3, 1e-4)  # fills the cached eigenpairs before tracing
        peaks = []
        for t in (0.2, 2.0):
            tracemalloc.start()
            try:
                propagate_numeric(sys_, t, 1e-4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

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
        values, vectors = HermitianOperator(sys_.H.entries - sys_.A.entries).eig
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
        assert len(traj.times) == 3

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
        assert len(sample_trajectory(sys_, 1.0, np.int64(4)).times) == 5
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


class TestLazyTrajectory:
    @pytest.mark.parametrize("frame", ["schrodinger", "rotating"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("maker", [random_coupled_system, random_isolated_system])
    def test_fields_read_on_demand_match_the_formulas_bit_for_bit(self, maker, dim, frame):
        sys_ = maker(np.random.default_rng(43 + dim), dim)
        ev = sys_.evaluator
        a, V = (np.zeros(dim), np.eye(dim, dtype=complex)) if sys_.is_isolated else (ev.a, ev.V)
        traj = sample_trajectory(sys_, 2.5, 200, frame=frame)
        phi, psi, _ = general_formula(ev, traj.times, a, V)
        states = psi if frame == "schrodinger" else phi
        overlaps = states @ sys_.initial.amplitudes.conj()
        # bloch first: a field may be read before the states it is built from
        if dim == 2:
            bloch = np.einsum("ti,kij,tj->tk", states.conj(), np.stack(bloch_operators()), states).real
            assert np.array_equal(traj.bloch, bloch)
        else:
            assert traj.bloch is None
        assert np.array_equal(traj.fidelity, overlaps.real**2 + overlaps.imag**2)
        assert np.array_equal(traj.states, states)
        # unread, it holds the times alone; read, one array per field, as a record filled at sampling time would
        unread = sample_trajectory(sys_, 2.5, 200, frame=frame)
        assert [name for name, value in vars(unread).items() if isinstance(value, np.ndarray)] == ["times"]
        arrays = {id(value) for value in vars(traj).values() if isinstance(value, np.ndarray)}
        assert len(arrays) == 3 + (dim == 2)

    def test_the_bounds_never_form_schrodinger_states(self, monkeypatch):
        def refuse(self, times, phi):
            raise AssertionError("Schroedinger states formed")

        monkeypatch.setattr(_SpectralEvaluator, "schrodinger", refuse)
        rng = np.random.default_rng(47)
        for sys_ in (random_coupled_system(rng, 3), random_isolated_system(rng, 3), build_ml_family(1.0, 0.8)):
            report = evaluate_bounds(sys_, 0.5, tau=1.0)
            assert report.mt_closed > 0.0
            with pytest.raises(AssertionError, match="Schroedinger states formed"):
                sample_trajectory(sys_, 1.0, 10).states
        rows, violations = validity_sweep(n_systems=6, dim_range=(2, 4), deltas=(0.0, 0.5), seed=3, samples=50)
        assert violations == 0 and any(row.reached for row in rows)


def varying_system(rng, dim):
    """Random H and u0, and A a random Hermitian times U(0.2, 2): the energy observables vary in time."""
    coupling = HermitianOperator(random_hermitian(rng, dim).entries * rng.uniform(0.2, 2.0))
    return RotatedHamiltonianSystem(random_hermitian(rng, dim), coupling, random_pure_state(rng, dim))


class TestLevelMajorStatistics:
    # Every sweep class conserves its energy observables, so only systems like these
    # check the statistics of a trajectory on data that moves.
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_weights_and_averaged_bounds_match_the_states(self, dim):
        rng = np.random.default_rng(700 + dim)
        for span in (1.0, 40.0, 2e3):  # max |mu| t_max
            sys_ = varying_system(rng, dim)
            ev, (values, vectors) = sys_.evaluator, sys_.H.eig
            t_max = span / np.abs(ev.mu).max()
            times = np.linspace(0.0, t_max, 1001)
            weights = np.abs(ev.rotating(times) @ vectors.conj()) ** 2
            assert np.abs(ev.uniform_weights(times) - weights.T).max() <= phase_tolerance(ev.mu, t_max)

            stats = sample_major_statistics(values, weights)
            assert np.ptp(stats.exp_energy) > 1e-3
            factor = np.sqrt(np.maximum(stats.dual_norm_energy * stats.norm_energy, 0.0))
            avg_unc, avg_bdf, avg_norm = (
                time_average(times, rate) for rate in (stats.energy_uncertainty, factor, stats.norm_energy)
            )
            report = evaluate_bounds(sys_, 0.5, tau=t_max)
            distance = math.acos(math.sqrt(0.5))
            got = (report.mt_closed, report.bd_closed, report.avg_norm_energy)
            assert got == pytest.approx((distance / avg_unc, distance / avg_bdf, avg_norm), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 1000, 15000])
    def test_block_powers_match_the_direct_exp(self, n):
        # m = ceil(sqrt(n + 1)) is 8 for n = 63 (a full last block), and 9 for 64 and 65
        ev = varying_system(np.random.default_rng(n), 6).evaluator
        for t_max in (1.0, 2e3 / np.abs(ev.mu).max()):
            times = np.linspace(0.0, t_max, n + 1)
            weights = ev.uniform_weights(times)
            assert weights.shape == (6, n + 1)
            direct = np.abs(ev.modal @ np.exp(np.multiply.outer(-1j * ev.mu, times))) ** 2
            assert np.abs(weights - direct).max() <= phase_tolerance(ev.mu, t_max)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 2048])
    @pytest.mark.parametrize("make", [random_isolated_system, random_coupled_system, varying_system])
    def test_uniform_fidelities_match_the_direct_map(self, n, make):
        # the passage scan's block powers; a coupled system's fidelities carry the phases of mu and of a
        ev = make(np.random.default_rng(n), 6).evaluator
        for t_max in (1.0, 2e3 / np.abs(ev.mu).max()):
            times = np.linspace(0.0, t_max, n + 1)
            fids = ev.uniform_fidelities(times)
            assert fids.shape == (n + 1,)
            tolerance = phase_tolerance(np.concatenate((ev.mu, ev.a)), t_max)
            assert np.abs(fids - ev.fidelities(times)).max() <= tolerance
