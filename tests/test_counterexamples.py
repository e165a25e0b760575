import dataclasses
import math
import re
import subprocess
import sys

import numpy as np
import pytest

import qsl.bounds
import qsl.counterexamples
from qsl import (
    DomainError,
    HermitianOperator,
    InsufficientLevels,
    PureState,
    RefutationSpec,
    RotatedHamiltonianSystem,
    bd_pointwise_margin,
    build_coupling,
    build_ml_family,
    choose_theta,
    evaluate_bounds,
    run_bd_nonsaturation,
    run_ml_refutation,
    sample_trajectory,
    time_average,
    variance,
)
from qsl.sweeps import random_hermitian, random_pure_state

from oracles import commutator_norm, density


class TestBuildCoupling:
    def test_geodesic_conditions_hold(self):
        rng = np.random.default_rng(51)
        worst_anticomm, worst_comm = 0.0, 0.0
        for _ in range(500):
            dim = int(rng.integers(2, 9))
            hamiltonian = random_hermitian(rng, dim, spectral_radius=rng.uniform(0.5, 5.0))
            state = random_pure_state(rng, dim)
            coupling = build_coupling(hamiltonian, state)
            rho = density(state)
            anticomm = coupling.entries @ rho + rho @ coupling.entries - coupling.entries
            worst_anticomm = max(worst_anticomm, float(np.linalg.norm(anticomm)))
            effective = hamiltonian.entries - coupling.entries
            worst_comm = max(worst_comm, float(np.linalg.norm(effective @ rho - rho @ effective)))
        assert worst_anticomm <= 1e-10
        assert worst_comm <= 1e-10

    def test_vanishes_when_state_is_eigenvector(self):
        hamiltonian = HermitianOperator.from_diagonal([2.0, 2.0, 5.0])
        coupling = build_coupling(hamiltonian, PureState([1.0, 0.0, 0.0]))
        assert np.abs(coupling.entries).max() <= 1e-14

    def test_dimension_mismatch(self):
        from qsl import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            build_coupling(HermitianOperator.from_diagonal([0.0, 1.0]), PureState([1.0, 0.0, 0.0]))

    def test_uniform_three_level_conditions(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0])
        coupling = build_coupling(hamiltonian, state)
        rho = density(state)
        assert np.linalg.norm(coupling.entries @ rho + rho @ coupling.entries - coupling.entries) <= 1e-10
        assert commutator_norm(hamiltonian.entries - coupling.entries, state) <= 1e-10
        # the effective Hamiltonian fixes the initial state with eigenvalue <H>
        fixed = (hamiltonian.entries - coupling.entries) @ state.amplitudes
        np.testing.assert_allclose(fixed, state.amplitudes, atol=1e-12)  # <H> = 1 here

    def test_family_coupling_matrix(self):
        theta, energy = 0.8, 1.3
        sys_ = build_ml_family(energy, theta)
        rate = energy / math.tan(theta / 2)
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(sys_.A.entries, rate * z, atol=1e-12)


class TestBuildMlFamily:
    def test_right_angle_case(self):
        sys_ = build_ml_family(1.0, math.pi / 2)
        np.testing.assert_allclose(sys_.H.eig[0], [-1.0, 1.0], atol=1e-12)
        assert math.sqrt(variance(sys_.H, sys_.initial)) == pytest.approx(1.0, abs=1e-12)

    def test_sixty_degree_case(self):
        sys_ = build_ml_family(1.0, math.pi / 3)
        np.testing.assert_allclose(sys_.H.eig[0], [-2.0, 2.0], atol=1e-12)
        assert math.sqrt(variance(sys_.H, sys_.initial)) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_boundaries_rejected(self):
        for theta in (0.0, math.pi, -0.3, 3.5):
            with pytest.raises(DomainError):
                build_ml_family(1.0, theta)
        with pytest.raises(DomainError):
            build_ml_family(0.0, 1.0)

    def test_uncertainty_decreasing_and_unbounded(self):
        energy = 1.0
        thetas = np.linspace(0.05, math.pi - 0.05, 200)
        spreads = np.array(
            [math.sqrt(variance(build_ml_family(energy, float(t)).H, PureState([1.0, 0.0]))) for t in thetas]
        )
        assert np.all(np.diff(spreads) < 0)
        target = 50.0
        theta_small = 2 * math.atan(energy / (energy * target))
        sys_ = build_ml_family(energy, theta_small * 0.99)
        assert math.sqrt(variance(sys_.H, sys_.initial)) > target

    @pytest.mark.parametrize("theta", [1e-8, 1e-7, 1e-4, 0.8])
    def test_uncertainty_is_e_cot_half_theta_at_small_angles(self, theta):
        # 1 - cos(theta) cancels here: it rounds to 0 at 1e-8
        spread = build_ml_family(1.5, theta).initial_statistics.energy_uncertainty
        assert spread == pytest.approx(1.5 / math.tan(theta / 2), rel=1e-12, abs=0.0)


class TestChooseTheta:
    def test_plug_back_satisfies_strict_inequality(self):
        for delta, big_l in [(0.0, math.pi / 2), (0.25, math.pi / 3), (0.6, 0.2)]:
            theta = choose_theta(delta, big_l, 0.1)
            assert 1.0 / math.tan(theta / 2) > math.acos(math.sqrt(delta)) / big_l

    def test_unit_ratio_margin_geometry(self):
        # c = 1, margin chosen so the angle comes out at pi/3 and cot = sqrt(3)
        theta = choose_theta(0.0, math.pi / 2, math.sqrt(3.0) - 1.0)
        assert theta == pytest.approx(math.pi / 3, abs=1e-12)
        assert 1.0 / math.tan(theta / 2) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_quarter_fidelity_case(self):
        theta = choose_theta(0.25, math.pi / 3, 0.1)
        assert 1.0 / math.tan(theta / 2) > 1.0  # arccos(1/2)/(pi/3) = 1

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            choose_theta(1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            choose_theta(0.5, 0.0, 0.1)
        with pytest.raises(DomainError):
            choose_theta(0.5, 1.0, 0.0)


class TestRefutationSpec:
    def test_valid_spec_passes(self):
        RefutationSpec(delta=0.0, L=math.pi / 2, E=1.0, theta=math.pi / 3)

    def test_angle_condition_enforced(self):
        with pytest.raises(DomainError):
            RefutationSpec(delta=0.0, L=math.pi / 2, E=1.0, theta=2.5)
        for theta in (0.0, math.pi, -1.0):
            with pytest.raises(DomainError):
                RefutationSpec(delta=0.0, L=math.pi / 2, E=1.0, theta=theta)

    def test_nonpositive_numerator_rejected(self):
        for big_l in (0.0, -1.0):
            with pytest.raises(DomainError):
                RefutationSpec(delta=0.0, L=big_l, E=1.0, theta=math.pi / 3)

    def test_mu_is_derived_not_set(self):
        for delta, L, E, theta in [(0.0, math.pi / 2, 1.0, math.pi / 3), (0.5, 0.3, 2.5, 0.4), (0.9, 1e3, 1e-3, 1e-3)]:
            spec = RefutationSpec(delta, L, E, theta)
            assert spec.mu == E / (2 * math.sin(theta / 2) ** 2)
            assert list(dataclasses.asdict(spec)) == ["delta", "L", "E", "theta", "mu"]
        with pytest.raises(TypeError):
            RefutationSpec(delta=0.0, L=math.pi / 2, E=1.0, theta=math.pi / 3, mu=2.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: choose_theta(0.5, math.nan), "L must be positive and finite, got nan"),
        (lambda: choose_theta(0.5, 1.0, math.nan), "margin must be positive and finite, got nan"),
        (lambda: build_ml_family(math.nan, 0.8), "E must be positive and finite, got nan"),
        (lambda: RefutationSpec(0.5, math.nan, 1.0, 0.8), "L must be positive and finite, got nan"),
        (lambda: RefutationSpec(0.5, 1.0, math.nan, 0.8), "E must be positive and finite, got nan"),
        (lambda: time_average([0.0, math.nan, 2.0], [1.0, 2.0, 3.0]), "times must be ascending"),
        (lambda: choose_theta(0.5, math.inf), "L must be positive and finite, got inf"),
        (lambda: choose_theta(0.5, 1.0, math.inf), "margin must be positive and finite, got inf"),
        (lambda: build_ml_family(math.inf, 0.8), "E must be positive and finite, got inf"),
        (lambda: RefutationSpec(0.5, math.inf, 1.0, 0.8), "L must be positive and finite, got inf"),
        (lambda: RefutationSpec(0.5, 1.0, math.inf, 0.8), "E must be positive and finite, got inf"),
        (lambda: time_average([0.0, math.inf], [1.0, 2.0]), "time window has infinite length"),
    ],
    ids=[
        "choose_theta-L", "choose_theta-margin", "family-E", "spec-L", "spec-E", "time_average-times",
        "choose_theta-L-inf", "choose_theta-margin-inf", "family-E-inf", "spec-L-inf", "spec-E-inf",
        "time_average-times-inf",
    ],
)
def test_nan_fails_the_positive_checks(call, message):
    # NaN compares False with everything, and inf passes a bare > 0: each check must fail on both
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


class TestRunMlRefutation:
    def test_canonical_sixty_degree_run(self):
        report = run_ml_refutation(0.0, math.pi / 2, 1.0, margin=math.sqrt(3.0) - 1.0)
        assert report.violated
        assert report.tau == pytest.approx(math.pi / (2 * math.sqrt(3.0)), abs=1e-8)
        assert report.hypothetical_bound == pytest.approx(math.pi / 2, abs=1e-12)
        assert report.margins["mt_saturation"] <= 1e-8
        assert report.max_energy_drift <= 1e-9
        assert report.margins["angle_condition"] == report.spec.angle_condition > 0.0

    def test_half_hypothesis_violated(self):
        # the (1 - delta)/2 numerator hypothesis at delta = 0
        report = run_ml_refutation(0.0, 0.5, 1.0)
        assert report.violated
        assert report.tau < 0.5 - 1e-9

    def test_arccos_hypothesis_violated_at_quarter(self):
        report = run_ml_refutation(0.25, math.pi / 3, 2.0, margin=0.1)
        assert report.violated
        assert report.tau < (math.pi / 3) / 2.0 - 1e-9

    def test_small_numerator(self):
        report = run_ml_refutation(0.0, 0.1, 1.0)
        assert report.violated
        assert report.spec.theta < 0.2  # small numerator forces a small angle

    @pytest.mark.parametrize("margin, violated", [(1e-10, False), (1e-8, True)])
    def test_hypothesis_must_be_beaten_by_more_than_the_slack(self, margin, violated):
        # L/E - tau = margin / (1 + margin) by construction
        report = run_ml_refutation(0.5, 1.0, 1.0, margin)
        assert report.margins["violation"] == pytest.approx(margin, rel=1e-3)
        assert report.violated is violated

    def test_mt_closed_is_the_evaluate_bounds_value(self):
        # run_ml_refutation averages its own trajectory; evaluate_bounds samples the same one
        report = run_ml_refutation(0.3, 1.0, 0.5, samples=300)
        sys_ = build_ml_family(report.spec.E, report.spec.theta)
        assert report.mt_closed == evaluate_bounds(sys_, 0.3, tau=report.tau, samples=300).mt_closed

    def test_one_trajectory_is_sampled(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_trajectory(*args, **kwargs)

        for module in (qsl.counterexamples, qsl.bounds):
            monkeypatch.setattr(module, "sample_trajectory", counted)
        run_ml_refutation(0.3, 1.0, 0.5, samples=50)
        assert len(calls) == 1

    def test_spec_is_checked_before_the_search(self, monkeypatch):
        # a margin of 1e-17 rounds away, so cot(theta/2) only ties arccos(sqrt(delta))/L
        def search(*args, **kwargs):
            raise AssertionError("the passage was searched before the spec was checked")

        monkeypatch.setattr(qsl.counterexamples, "first_passage", search)
        with pytest.raises(DomainError, match=re.escape("cot(theta/2) must strictly exceed arccos(sqrt(delta))/L")):
            run_ml_refutation(0.3, 0.7, 1.0, 1e-17)

    def test_energy_conserved_along_trajectory(self):
        report = run_ml_refutation(0.3, 1.0, 0.5)
        np.testing.assert_allclose(report.trajectory.stats.norm_energy, 0.5, atol=1e-9)

    def test_grid_of_hypotheses(self):
        for delta in (0.0, 0.4, 0.8):
            for big_l in (0.1, 1.0):
                for energy in (0.5, 2.0):
                    report = run_ml_refutation(delta, big_l, energy)
                    assert report.violated
                    assert report.margins["mt_saturation"] <= 1e-8

    def test_mt_saturation_at_a_large_hypothesis(self):
        # half the spectral width is about 5.8e3 times dH here; the certificate's speed is dH itself
        report = run_ml_refutation(0.5, 1e4, 1.0)
        assert report.margins["mt_saturation"] <= 1e-8

    def test_passage_at_a_small_hypothesis(self):
        # theta is about 1.2e-7 here, where 1 - cos(theta) loses its digits
        assert run_ml_refutation(0.0, 1e-7, 1.0).tau == pytest.approx(1e-7 / 1.1, rel=0.0, abs=1e-12)

    def test_small_hypotheses_return_in_time(self):
        # in a child with a timeout, so a search that stalls fails here instead of hanging the suite
        code = "from qsl import run_ml_refutation\nfor L in (1e-5, 1e-6):\n    assert run_ml_refutation(0.0, L, 1.0).violated"
        subprocess.run([sys.executable, "-c", code], check=True, timeout=30)

    @pytest.mark.parametrize("big_l", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_energy_conserved_at_small_hypotheses(self, big_l):
        # |<H>| is about 1.5e3 / L here; the normalized energy must not round on that scale
        assert run_ml_refutation(0.0, big_l, 1.0).max_energy_drift <= 1e-14


class TestRunBdNonsaturation:
    def test_canonical_three_level_run(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0])
        report = run_bd_nonsaturation(hamiltonian, state, 0.0)
        assert report.tau_actual == pytest.approx((math.pi / 2) * math.sqrt(1.5), abs=1e-6)
        assert report.bd_closed == pytest.approx(math.pi / 2, abs=1e-9)
        assert abs(report.tau_actual - report.mt_closed) <= 1e-8
        assert report.mt_closed - report.bd_closed > 0.35

    def test_two_levels_rejected(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0])
        with pytest.raises(InsufficientLevels):
            run_bd_nonsaturation(hamiltonian, PureState.normalized([1.0, 1.0]), 0.0)

    def test_strict_pointwise_inequality(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 3.0])
        state = PureState.normalized(np.sqrt([0.5, 0.3, 0.2]))
        report = run_bd_nonsaturation(hamiltonian, state, 0.25)
        sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
        traj = sample_trajectory(sys_, report.tau_actual, 1000)
        assert bd_pointwise_margin(traj) > 0.0

    def test_random_constructions_keep_positive_margin(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 50:
            dim = int(rng.integers(3, 7))
            hamiltonian = random_hermitian(rng, dim, spectral_radius=rng.uniform(1.0, 4.0))
            state = random_pure_state(rng, dim)
            report = run_bd_nonsaturation(hamiltonian, state, float(rng.uniform(0.0, 0.9)), samples=400)
            assert report.mt_closed - report.bd_closed > 1e-6
            assert abs(report.tau_actual - report.mt_closed) <= 1e-8
            done += 1
