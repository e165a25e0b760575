import itertools
import math
import signal

import numpy as np
import pytest

import qsl.sweeps

from qsl import (
    BoundReport,
    DegenerateInterval,
    DomainError,
    HermitianOperator,
    NotReached,
    PureState,
    RotatedHamiltonianSystem,
    alpha,
    bd_closed,
    bd_isolated,
    build_coupling,
    build_ml_family,
    choose_theta,
    evaluate_bounds,
    expectation,
    first_passage,
    ml_isolated,
    mt_closed,
    mt_isolated,
    sample_trajectory,
    time_average,
    variance,
)
from qsl.bounds import _alpha_of
from qsl.evolution import _SpectralEvaluator
from qsl.sweeps import (
    random_coupled_system,
    random_isolated_system,
    random_pure_state,
    validity_sweep,
)

from oracles import alpha_grid_oracle, random_saturating_two_level

# frozen from an independent 1e7-point grid scan with bounded refinement
ALPHA_ORACLE = {
    0.25: 0.728002979637904,
    0.5: 0.416252936011857,
    0.75: 0.187274829276015,
    0.9: 0.071159686597864,
}


def isolated(hamiltonian, state):
    zero = HermitianOperator(np.zeros((hamiltonian.dim, hamiltonian.dim)))
    return RotatedHamiltonianSystem(hamiltonian, zero, state)


class TestAlpha:
    def test_endpoints(self):
        assert abs(alpha(0.0) - math.pi / 2) <= 1e-12
        assert abs(alpha(1.0)) <= 1e-12

    def test_frozen_oracle_values(self):
        for delta, expected in ALPHA_ORACLE.items():
            assert abs(alpha(delta) - expected) <= 1e-9

    def test_against_grid_oracle(self):
        for delta in np.linspace(0.02, 0.98, 25):
            assert abs(alpha(float(delta)) - alpha_grid_oracle(float(delta), 10**5)) <= 1e-8

    def test_half_value_bounds(self):
        value = alpha(0.5)
        assert value <= (1 - math.sqrt(0.5)) * math.pi / 2 + 1e-12
        assert value < math.acos(math.sqrt(0.5))

    def test_nonincreasing(self):
        grid = np.linspace(0.0, 1.0, 1001)
        values = np.array([alpha(float(d)) for d in grid])
        assert np.all(np.diff(values) <= 1e-12)

    def test_endpoint_bound_everywhere(self):
        grid = np.linspace(0.0, 1.0, 301)
        for d in grid:
            assert alpha(float(d)) <= (1 - math.sqrt(d)) * math.pi / 2 + 1e-12

    def test_strictly_below_arccos_inside(self):
        for d in np.linspace(1e-3, 1 - 1e-3, 301):
            assert alpha(float(d)) < math.acos(math.sqrt(d)) - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            alpha(-0.1)
        with pytest.raises(DomainError):
            alpha(1.1)


class TestTimeAverage:
    def test_constant(self):
        times = np.linspace(0.0, 2.0, 17)
        assert time_average(times, np.full(17, 3.0)) == pytest.approx(3.0, abs=1e-15)

    def test_linear_integrand_exact(self):
        times = np.linspace(0.0, 1.0, 11)
        assert abs(time_average(times, times) - 0.5) <= 1e-12

    def test_family_uncertainty_average(self):
        theta, energy = math.pi / 3, 1.0
        sys_ = build_ml_family(energy, theta)
        traj = sample_trajectory(sys_, 0.5, 1000)
        avg = time_average(traj.times, traj.stats.energy_uncertainty)
        assert abs(avg - energy / math.tan(theta / 2)) <= 1e-9

    def test_rows_are_averaged_from_one_check_of_the_times(self):
        times = np.linspace(0.0, 2.0, 33)
        rows = np.stack([np.sin(times), times**2, np.full(33, 3.0)])
        averages = time_average(times, rows)
        assert averages == [time_average(times, row) for row in rows]
        assert all(type(value) is float for value in averages)
        with pytest.raises(DomainError):
            time_average(times, rows[:, :-1])
        with pytest.raises(DomainError):
            time_average(times, rows[None])

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            time_average([1.0, 1.0], [2.0, 2.0])

    def test_bad_input(self):
        with pytest.raises(DomainError):
            time_average([0.0], [1.0])
        with pytest.raises(DomainError):
            time_average([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])


class TestFirstPassage:
    def test_delta_one_is_now(self):
        sys_ = build_ml_family(1.0, 0.8)
        assert first_passage(sys_, 1.0, 1.0) == 0.0

    def test_geodesic_closed_form(self):
        sys_ = build_ml_family(1.0, math.pi / 3)
        rate = math.sqrt(3.0)
        assert abs(first_passage(sys_, 0.0, math.pi / rate) - math.pi / (2 * rate)) <= 1e-8
        expected = math.acos(math.sqrt(0.25)) / rate
        assert abs(first_passage(sys_, 0.25, math.pi / rate) - expected) <= 1e-8

    def test_transversal_crossings_across_angles(self):
        for theta in (0.4, 1.2, 2.4):
            sys_ = build_ml_family(0.7, theta)
            rate = 0.7 / math.tan(theta / 2)
            for delta in (0.1, 0.5, 0.9):
                expected = math.acos(math.sqrt(delta)) / rate
                assert abs(first_passage(sys_, delta, math.pi / rate) - expected) <= 1e-8

    def test_not_reached(self):
        # heavily unbalanced superposition never gets near fidelity 0.1
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0]),
            PureState.normalized([0.99, math.sqrt(1 - 0.99**2)]),
        )
        with pytest.raises(NotReached):
            first_passage(sys_, 0.1, 50.0)

    # Isolated H = diag(0, g), equal superposition: tau(0) = pi/g, tau(0.5) = pi/(2g).
    # The search stops at a width relative to t, so it is exact on every time scale.
    @pytest.mark.parametrize("g", [1.0, 1e3, 1e5, 1e6])
    def test_fast_two_level_passage_is_scale_free(self, g):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, g]), PureState.normalized([1.0, 1.0]))
        assert first_passage(sys_, 0.0, 1.5 * math.pi / g) == pytest.approx(math.pi / g, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g", [1.0, 1e3, 1e5, 1e6])
    def test_fast_two_level_transversal_crossing_is_scale_free(self, g):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, g]), PureState.normalized([1.0, 1.0]))
        assert first_passage(sys_, 0.5, 1.5 * math.pi / g) == pytest.approx(math.pi / (2 * g), rel=1e-12, abs=0.0)

    # A constant energy offset is a global phase: it must not move the passage,
    # even at delta = 0, where the dip only touches the target.
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6])
    def test_energy_offset_leaves_the_passage_unchanged(self, offset):
        sys_ = isolated(HermitianOperator.from_diagonal([offset, offset + 1.0]), PureState.normalized([1.0, 1.0]))
        assert first_passage(sys_, 0.0, 1.5 * math.pi) == pytest.approx(math.pi, rel=1e-12, abs=0.0)
        assert first_passage(sys_, 0.5, 1.5 * math.pi) == pytest.approx(math.pi / 2, rel=1e-12, abs=0.0)

    # An offset c*I of A leaves every H(t) unchanged. Centring the eigenproblems
    # keeps c from costing the eigenvectors the precision of the delta = 0 touch.
    def test_coupling_offset_leaves_the_passage_unchanged(self):
        base = random_coupled_system(np.random.default_rng(3), 4)
        shifted = RotatedHamiltonianSystem(base.H, HermitianOperator(base.A.entries + 1e4 * np.eye(4)), base.initial)
        for sys_ in (base, shifted):
            assert first_passage(sys_, 0.0, 3.0) == pytest.approx(0.79770098490840, rel=1e-12, abs=0.0)

    # With A = 0 the certificate's speed is the conserved energy uncertainty, so an
    # unoccupied far level must not make the passage come out early.
    @pytest.mark.parametrize("top", [400.0, 1e4])
    def test_unoccupied_far_level_leaves_the_passage_exact(self, top):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0, top]), PureState.normalized([1.0, 1.0, 0.0]))
        assert first_passage(sys_, 0.0, 2.0 * math.pi) == pytest.approx(math.pi, rel=0.0, abs=1e-12)

    # A window of many periods puts few scan points per period; the first crossing
    # must still be found, not a later one.
    @pytest.mark.parametrize("t_max", [1.0, 100.0, 2000.0, 5000.0])
    def test_under_sampled_window_finds_the_first_crossing(self, t_max):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 10.0]), PureState.normalized([1.0, 1.0]))
        assert first_passage(sys_, 0.0, t_max) == pytest.approx(math.pi / 10, rel=1e-12, abs=0.0)
        assert first_passage(sys_, 0.5, t_max) == pytest.approx(math.pi / 20, rel=1e-12, abs=0.0)

    def test_domain_errors(self):
        sys_ = build_ml_family(1.0, 0.8)
        with pytest.raises(DomainError):
            first_passage(sys_, -0.2, 1.0)
        for t_max in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                first_passage(sys_, 0.5, t_max)
        for samples in (0, -3, 2.5, True):
            for delta in (0.5, 1.0):
                with pytest.raises(DomainError):
                    first_passage(sys_, delta, 1.0, samples=samples)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="FOUND in CHANGES.md, src/qsl/bounds.py first_passage with delta within a few ulps "
        "of 1: rounding of 1 - F near F = 1 is not resolved, and it returns 0.0",
    )
    def test_passage_one_ulp_below_full_fidelity(self):
        # tau = arccos(sqrt(delta)) / dH = L / (E (1 + margin)) = 1/1.1 by construction.
        # delta = 1 - 5e-16 is left out: that call never returns.
        delta = 1.0 - 2.0**-53
        theta = choose_theta(delta, 1.0)
        tau = first_passage(build_ml_family(1.0, theta), delta, math.pi * math.tan(theta / 2))
        assert tau == pytest.approx(1 / 1.1, rel=1e-6)

    def test_warm_scan_gives_the_cold_taus(self):
        rng = np.random.default_rng(5)
        shared = random_coupled_system(rng, 4)
        t_max = 1.05 * math.pi / math.sqrt(variance(shared.H, shared.initial))
        for delta in (0.0, 0.3, 0.6, 0.9):
            cold = RotatedHamiltonianSystem(shared.H, shared.A, shared.initial)
            assert first_passage(shared, delta, t_max) == first_passage(cold, delta, t_max)

    def test_never_later_than_the_first_dense_sample_at_delta(self):
        rng = np.random.default_rng(17)
        systems = [random_coupled_system(rng, dim) for dim in (2, 3, 5)]
        systems += [random_isolated_system(rng, dim) for dim in (2, 4, 6)]
        systems.append(random_saturating_two_level(rng))
        # fidelity stays above 0.92: most deltas are never reached
        systems.append(isolated(HermitianOperator.from_diagonal([0.0, 1.0]), PureState.normalized([0.99, 0.14])))
        reached = 0
        for sys_ in systems:
            t_max = 40.0 / math.sqrt(variance(sys_.H, sys_.initial))
            dense = np.linspace(0.0, t_max, 400_001)
            fids = sys_.evaluator.fidelities(dense)
            for delta, samples in itertools.product((0.0, 0.05, 0.3, 0.75, 0.9, 0.999), (16, 2048)):
                hits = np.flatnonzero(fids <= delta)
                try:
                    tau = first_passage(sys_, delta, t_max, samples=samples)
                except NotReached:
                    assert not hits.size
                    continue
                reached += 1
                assert sys_.evaluator.fidelities([tau])[0] == pytest.approx(delta, abs=1e-9)
                if hits.size:
                    assert tau <= dense[hits[0]] * (1.0 + 1e-13)
        assert reached >= 60

    def test_deferred_intervals_give_the_same_taus(self, monkeypatch):
        rng = np.random.default_rng(23)
        systems = [random_isolated_system(rng, dim) for dim in (3, 5)] + [random_coupled_system(rng, 4)]

        def taus():
            out = []
            for sys_ in systems:
                fresh = RotatedHamiltonianSystem(sys_.H, sys_.A, sys_.initial)
                t_max = 40.0 / math.sqrt(variance(sys_.H, sys_.initial))
                for delta in (0.0, 0.2, 0.5, 0.8):
                    try:
                        out.append(first_passage(fresh, delta, t_max))
                    except NotReached:
                        out.append(None)
            return out

        expected = taus()
        rescans = []
        fidelities = _SpectralEvaluator.fidelities

        def counted(self, times):
            if len(times) == 2049 and times[0] > 0.0:
                rescans.append(times[0])
            return fidelities(self, times)

        monkeypatch.setattr(_SpectralEvaluator, "fidelities", counted)
        monkeypatch.setattr(qsl.bounds, "PASSAGE_BATCH", 1)
        got = taus()
        assert rescans
        assert [tau is None for tau in got] == [tau is None for tau in expected]
        for tau, reference in zip(got, expected):
            if tau is not None:
                assert tau == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_scan_is_kept_per_window(self):
        ev = build_ml_family(1.0, 0.8).evaluator
        times, fids = ev.scan(2.0, 64)
        assert ev.scan(2.0, 64)[1] is fids
        longer, _ = ev.scan(3.0, 64)
        assert longer is not times and longer[-1] == 3.0
        finer, _ = ev.scan(3.0, 128)
        assert len(finer) == 129
        assert np.array_equal(ev.scan(2.0, 64)[1], fids)

    def test_scan_arrays_are_read_only(self):
        times, fids = build_ml_family(1.0, 0.8).evaluator.scan(2.0, 64)
        for array in (times, fids):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestIsolatedBounds:
    def test_alpha_memo_is_alpha(self):
        for delta in (0.0, 0.1, 0.25, 0.7, 0.1, 1.0):
            assert _alpha_of(delta) == alpha(delta)
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0, 3.0]), PureState.normalized([1.0, 1.0, 1.0]))
        # eps_min = 0, so the normalized energy is <H>
        norm_energy = expectation(sys_.H, sys_.initial)
        assert ml_isolated(sys_.H, sys_.initial, 0.3) == alpha(0.3) / norm_energy

    def test_ml_equal_superposition_saturates(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0])
        state = PureState.normalized([1.0, 1.0])
        bound = ml_isolated(hamiltonian, state, 0.0)
        assert abs(bound - math.pi) <= 1e-12
        sys_ = isolated(hamiltonian, state)
        tau = first_passage(sys_, 0.0, 4.0)
        assert abs(tau - math.pi) <= 1e-8

    def test_ml_family_normalized_energy(self):
        sys_ = build_ml_family(2.0, 0.9)
        assert abs(ml_isolated(sys_.H, sys_.initial, 0.0) - (math.pi / 2) / 2.0) <= 1e-10

    def test_eigenstate_bounds_infinite(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0])
        state = PureState([1.0, 0.0])
        assert mt_isolated(hamiltonian, state, 0.0) == math.inf
        assert ml_isolated(hamiltonian, state, 0.0) == math.inf
        assert bd_isolated(hamiltonian, state, 0.0) == math.inf

    def test_bd_equals_mt_for_two_levels(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            sys_ = random_saturating_two_level(rng)
            delta = float(rng.uniform(0.0, 0.95))
            mt = mt_isolated(sys_.H, sys_.initial, delta)
            bd = bd_isolated(sys_.H, sys_.initial, delta)
            assert abs(mt - bd) <= 1e-10

    def test_raw_arrays_give_the_operator_values(self):
        rng = np.random.default_rng(29)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cases = [(np.diag([0.0, 1.0]), [2**-0.5, 2**-0.5]), ((g + g.conj().T) / 2, random_pure_state(rng, 4).amplitudes)]
        for matrix, amplitudes in cases:
            hamiltonian, state = HermitianOperator(matrix), PureState(amplitudes)
            for bound, delta in itertools.product((mt_isolated, ml_isolated, bd_isolated), (0.0, 0.3)):
                assert bound(matrix, amplitudes, delta) == bound(hamiltonian, state, delta)

    def test_bd_denominator_three_levels(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0])
        bd = bd_isolated(hamiltonian, state, 0.0)
        assert abs(bd - math.pi / 2) <= 1e-12  # geometric mean is exactly 1
        mt = mt_isolated(hamiltonian, state, 0.0)
        assert bd < mt


class TestClosedBounds:
    def test_mt_closed_geodesic_value(self):
        sys_ = build_ml_family(1.0, math.pi / 3)
        tau = first_passage(sys_, 0.0, 2.0)
        traj = sample_trajectory(sys_, tau, 1000)
        value = mt_closed(traj, 0.0)
        assert abs(value - math.pi / (2 * math.sqrt(3.0))) <= 1e-8
        assert abs(value - tau) <= 1e-8

    def test_mt_closed_stationary_is_infinite(self):
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0, 2.0]), PureState([0.0, 1.0, 0.0])
        )
        traj = sample_trajectory(sys_, 1.0, 100)
        assert mt_closed(traj, 0.5) == math.inf
        report = evaluate_bounds(sys_, 0.5, tau=1.0)
        assert report.mt == report.mt_closed == math.inf
        with pytest.raises(NotReached):
            first_passage(sys_, 0.5, 100.0)

    def test_closed_bounds_are_the_report_fields(self):
        rng = np.random.default_rng(41)
        for _ in range(17):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            delta, samples = float(rng.uniform(0.0, 0.9)), int(rng.integers(2, 1000))
            tau = first_passage(sys_, delta, 1.05 * math.pi / math.sqrt(variance(sys_.H, sys_.initial)))
            report = evaluate_bounds(sys_, delta, tau=tau, samples=samples)
            traj = sample_trajectory(sys_, tau, samples)
            assert mt_closed(traj, delta) == report.mt_closed
            assert bd_closed(traj, delta) == report.bd_closed

    def test_report_orderings(self):
        hamiltonian = HermitianOperator.from_diagonal([0.0, 1.0, 2.0])
        state = PureState.normalized([1.0, 1.0, 1.0])
        sys_ = RotatedHamiltonianSystem(hamiltonian, build_coupling(hamiltonian, state), state)
        report = evaluate_bounds(sys_, 0.3, tau=first_passage(sys_, 0.3, 10.0))
        assert report.mt_closed >= report.bd_closed - 1e-12
        assert not report.violations()
        assert report.ml is None

    def test_isolated_report_includes_ml(self):
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0]), PureState.normalized([1.0, 1.0])
        )
        report = evaluate_bounds(sys_, 0.4, tau=first_passage(sys_, 0.4, 10.0))
        assert report.ml is not None
        assert not report.violations()

    def test_delta_one_report(self):
        sys_ = build_ml_family(1.0, 0.9)
        report = evaluate_bounds(sys_, 1.0, tau=first_passage(sys_, 1.0, 1.0))
        assert report.tau_actual == 0.0
        assert report.mt == 0.0
        assert report.mt_closed == 0.0
        assert not report.violations()

    def test_tau_zero_is_the_one_point_window(self):
        sys_ = build_ml_family(1.0, 0.9)
        report = evaluate_bounds(sys_, 0.5, tau=0.0)
        stats = sys_.initial_statistics
        assert report.tau_actual == 0.0
        assert report.avg_uncertainty == float(stats.energy_uncertainty)
        assert report.mt_closed == report.mt
        assert report.bd_closed == report.bd
        assert report.violations()  # any positive bound refutes a zero time

    def test_tau_is_a_required_measured_time(self):
        sys_ = build_ml_family(1.0, 0.9)
        with pytest.raises(TypeError):
            evaluate_bounds(sys_, 0.5)
        with pytest.raises(TypeError):
            evaluate_bounds(sys_, 0.5, t_max=2.0)
        for tau in (-1e-300, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="tau must be nonnegative and finite"):
                evaluate_bounds(sys_, 0.5, tau=tau)


class TestBoundReport:
    @staticmethod
    def report(tau, ml, **bounds):
        return BoundReport(
            delta=0.5, tau_actual=tau, ml=ml, avg_uncertainty=1.0, avg_bd_factor=1.0, avg_norm_energy=1.0, **bounds
        )

    def test_a_bound_above_tau_by_more_than_the_slack_is_a_violation(self):
        report = self.report(1.0, None, mt=1.0 + 2e-9, bd=1.0 + 5e-10, mt_closed=math.inf, bd_closed=0.5)
        margins = report.margins()
        assert list(margins) == ["mt", "bd", "bd_closed"]  # no margin for an infinite bound or ml=None
        assert margins["mt"] == pytest.approx(2e-9, rel=1e-6)
        assert margins["bd"] == pytest.approx(5e-10, rel=1e-6)
        assert margins["bd_closed"] == -0.5
        assert report.violations() == {"mt": margins["mt"]}

    def test_ml_has_a_margin_where_it_is_reported(self):
        report = self.report(2.0, 2.0 + 2e-9, mt=1.0, bd=1.0, mt_closed=1.0, bd_closed=math.inf)
        assert list(report.margins()) == ["mt", "bd", "mt_closed", "ml"]
        assert list(report.violations()) == ["ml"]


class TestValiditySweep:
    def test_one_violating_cell_is_counted(self, first_cell_violates):
        rows, violations = validity_sweep(n_systems=2, seed=1, deltas=(0.5,), samples=20)
        assert violations == 1
        (row,) = [row for row in rows if row.report is first_cell_violates[0]]
        assert row.worst_margin == pytest.approx(1e-6, rel=0.0, abs=1e-12)

    def test_small_sweep_has_no_violations(self):
        rows, violations = validity_sweep(n_systems=30, seed=123, samples=400)
        assert violations == 0
        reached = [row for row in rows if row.reached]
        assert len(reached) > 150
        for row in reached:
            assert row.worst_margin <= 1e-9

    def test_every_delta_checked_before_the_first_system(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return first_passage(*args, **kwargs)

        monkeypatch.setattr(qsl.sweeps, "first_passage", counted)
        with pytest.raises(DomainError):
            validity_sweep(n_systems=3, deltas=(0.1, 1.5))
        assert calls == []

    @pytest.mark.parametrize("fraction", [math.nan, -0.1, 7.0])
    def test_isolated_fraction_checked_before_the_first_system(self, fraction, monkeypatch):
        calls = []
        monkeypatch.setattr(qsl.sweeps, "random_isolated_system", lambda *args: calls.append(args))
        monkeypatch.setattr(qsl.sweeps, "random_coupled_system", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="isolated_fraction must lie in"):
            validity_sweep(n_systems=3, deltas=(0.5,), isolated_fraction=fraction)
        assert calls == []

    def test_one_scan_per_system(self, monkeypatch):
        scans = []
        fidelities = _SpectralEvaluator.fidelities

        def counted(self, times):
            if len(times) == 2049:
                scans.append(self)
            return fidelities(self, times)

        monkeypatch.setattr(_SpectralEvaluator, "fidelities", counted)
        rows, _ = validity_sweep(n_systems=4, seed=3, samples=50, isolated_fraction=0.5)
        assert len(rows) == 40
        assert len(scans) == len(set(map(id, scans))) == 4

    def test_dimension_below_two_is_rejected(self):
        # A one-level coupled system used to loop forever looking for a
        # spread, so the calls run under a deadline.
        def expired(signum, frame):
            raise TimeoutError("a call below dimension two did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(60)
        try:
            with pytest.raises(DomainError):
                random_coupled_system(np.random.default_rng(0), 1)
            for dims in ((1, 1), (1, 3), (4, 3)):
                with pytest.raises(DomainError):
                    validity_sweep(n_systems=3, dim_range=dims, isolated_fraction=0.0, deltas=(0.5,))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_sweep_is_deterministic(self):
        rows1, _ = validity_sweep(n_systems=5, seed=7, samples=200)
        rows2, _ = validity_sweep(n_systems=5, seed=7, samples=200)
        taus1 = [row.report.tau_actual for row in rows1 if row.reached]
        taus2 = [row.report.tau_actual for row in rows2 if row.reached]
        assert taus1 == taus2
