import itertools
import math
import re
import signal

import numpy as np
import pytest

import qsl.sweeps

from qsl import (
    BoundReport,
    DomainError,
    HermitianOperator,
    NotReached,
    PureState,
    RotatedHamiltonianSystem,
    alpha,
    build_coupling,
    build_ml_family,
    choose_theta,
    evaluate_bounds,
    expectation,
    first_passage,
    sample_trajectory,
    time_average,
    variance,
)
from qsl.bounds import _alpha_of, _angle, _bd_factor, _certificate, _ml_objective, _ml_objective_scalar, _over
from qsl.evolution import _SpectralEvaluator
from qsl.sweeps import (
    DEFAULT_DELTAS,
    random_coupled_system,
    random_isolated_system,
    random_pure_state,
    validity_sweep,
)

from oracles import (
    alpha_array_search,
    alpha_grid_oracle,
    mp_first_passage,
    random_saturating_two_level,
    state_statistics,
)

# deltas at and next to the ends of [0, 1], where the objective's rounding is most fragile
EXTREME_DELTAS = [0.0, 5e-324, 1e-300, 1e-16, 1e-8, 1 - 1e-8, 1 - 1e-12, 1 - 2**-52, 1 - 2**-53, 1.0]

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


def fresh(sys_):
    """The same system with nothing cached."""
    return RotatedHamiltonianSystem(sys_.H, sys_.A, sys_.initial)


def sweep_window(sys_):
    """The t_max that validity_sweep searches the system on."""
    spread = float(sys_.initial_statistics.energy_uncertainty)
    return (40.0 if sys_.is_isolated else 1.05 * math.pi) / max(spread, 1e-6)


def kept_scan(sys_, t_max):
    """The scan rows that first_passage's certificate keeps for the window."""
    return _certificate(sys_, t_max)[1]


def general_cell(rng):
    """A random (H, A, u0) of dimension 2 to 4, with A a random Hermitian, and a delta in [0.05, 0.95]."""
    dim = int(rng.integers(2, 5))

    def hermitian():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return HermitianOperator((g + g.conj().T) / 2)

    hamiltonian, coupling = hermitian(), hermitian()
    state = PureState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return RotatedHamiltonianSystem(hamiltonian, coupling, state), float(rng.uniform(0.05, 0.95))


def counting(sys_):
    """The list to which the sizes of the fidelity batches that first_passage asks of sys_ are appended."""
    batches, fidelities = [], sys_.evaluator.fidelities

    def counted(times):
        batches.append(len(times))
        return fidelities(times)

    sys_.evaluator.fidelities = counted  # the map that the closure of `fidelity_function` hands out
    return batches


def passage(sys_, delta, t_max):
    """first_passage, or None where the fidelity never reaches delta."""
    try:
        return first_passage(sys_, delta, t_max)
    except NotReached:
        return None


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
        for delta in (-0.1, 1.1, math.nan, True, False, "0.5", None, 0.5j, np.bool_(False)):
            with pytest.raises(DomainError):
                alpha(delta)
        assert alpha(0) == alpha(0.0) and alpha(1) == alpha(1.0)
        assert alpha(np.float64(0.3)) == alpha(0.3)
        assert alpha(np.float32(0.3)) == alpha(float(np.float32(0.3)))

    def test_scalar_objective_is_the_array_objective(self):
        rng = np.random.default_rng(20261019)
        deltas = [*EXTREME_DELTAS, *rng.uniform(0.0, 1.0, 60)]
        for delta in deltas:
            z_max = math.sqrt(delta)
            z = np.concatenate(([-z_max, z_max, 0.0, -0.0], rng.uniform(-z_max, z_max, 200), np.linspace(-z_max, z_max, 41)))
            expected = _ml_objective(z, delta)
            got = np.array([_ml_objective_scalar(float(x), delta) for x in z])
            assert np.all(got == expected), f"delta={delta!r}"

    def test_search_is_the_array_golden_section(self):
        rng = np.random.default_rng(20261020)
        for delta in [*EXTREME_DELTAS, *rng.uniform(0.0, 1.0, 300)]:
            assert alpha(delta) == alpha_array_search(delta), f"delta={delta!r}"


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
        with pytest.raises(DomainError, match="time window has zero length"):
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

    def test_random_coupled_systems_follow_the_geodesic_closed_form(self):
        # build_coupling moves u0 on a geodesic at the constant speed dH: F(t) = cos^2(dH t)
        rng = np.random.default_rng(53)
        for _ in range(20):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            speed = math.sqrt(variance(sys_.H, sys_.initial))
            for delta in DEFAULT_DELTAS:
                exact = math.acos(math.sqrt(delta)) / speed
                assert abs(first_passage(sys_, delta, 1.05 * math.pi / speed) / exact - 1.0) <= 1e-12

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
        for delta in (-0.2, 1.5, math.nan, True, False, "0.5", None):
            with pytest.raises(DomainError):
                first_passage(sys_, delta, 1.0)
        for t_max in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                first_passage(sys_, 0.5, t_max)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="FOUND in CHANGES.md, src/qsl/bounds.py first_passage with delta within a few ulps "
        "of 1: rounding of 1 - F near F = 1 is not resolved, and it returns 0.0",
    )
    def test_passage_one_ulp_below_full_fidelity(self):
        # tau = arccos(sqrt(delta)) / dH = L / (E (1 + margin)) = 1/1.1 by construction.
        # delta = 1 - 5e-16 is left out: it returns 0.371, off for the same reason.
        delta = 1.0 - 2.0**-53
        theta = choose_theta(delta, 1.0)
        tau = first_passage(build_ml_family(1.0, theta), delta, math.pi * math.tan(theta / 2))
        assert tau == pytest.approx(1 / 1.1, rel=1e-6)

    def test_a_geodesic_passage_takes_one_round_after_the_scan(self):
        # theta moves at exactly the certificate's speed on a geodesic, so the speed points a and b
        # straddle a passage, and a and c a touch (delta = 0: F dips to 0 and rises again), and
        # the one round after the scan leaves a part narrower than the stop width around theta*/v
        rng = np.random.default_rng(89)
        for _ in range(10):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            t_max = sweep_window(sys_)
            speed = _certificate(sys_, t_max)[0]
            batches = counting(sys_)
            for delta in DEFAULT_DELTAS:
                batches.clear()
                tau = first_passage(sys_, delta, t_max)
                assert batches == [qsl.bounds.PASSAGE_ROW - 2]
                assert tau == pytest.approx(_angle(delta) / speed, rel=1e-12)

    def test_an_isolated_passage_takes_a_few_rounds_after_the_scan(self):
        # on more than two levels theta moves slower than v = dH, so the speed points alone narrowed a cut
        # only 32-fold a round (a median of 8 batches here); the curvature rule and the chord points end it
        # in about two rounds more
        rng = np.random.default_rng(89)
        rounds = []
        for _ in range(10):
            sys_ = random_isolated_system(rng, int(rng.integers(2, 7)))
            t_max = sweep_window(sys_)
            batches = counting(sys_)
            for delta in DEFAULT_DELTAS:
                batches.clear()
                if passage(sys_, delta, t_max) is not None:
                    rounds.append(len(batches))
        assert len(rounds) >= 50
        assert np.median(rounds) <= 3 and max(rounds) <= 6, sorted(rounds)

    def test_warm_scan_gives_the_cold_taus(self):
        rng = np.random.default_rng(5)
        shared = random_coupled_system(rng, 4)
        t_max = 1.05 * math.pi / math.sqrt(variance(shared.H, shared.initial))
        for delta in (0.0, 0.3, 0.6, 0.9):
            cold = RotatedHamiltonianSystem(shared.H, shared.A, shared.initial)
            assert first_passage(shared, delta, t_max) == first_passage(cold, delta, t_max)

    # The certificate keeps the last window's scan, the scan's angles and its speed across calls;
    # none of them may make a tau depend on what was asked before.
    @pytest.mark.parametrize("make", [random_coupled_system, random_isolated_system])
    def test_taus_do_not_depend_on_the_order_of_the_deltas(self, make):
        rng = np.random.default_rng(61)
        for _ in range(4):
            sys_ = make(rng, int(rng.integers(2, 7)))
            t_max = sweep_window(sys_)
            cold = [passage(fresh(sys_), delta, t_max) for delta in DEFAULT_DELTAS]
            up, down = fresh(sys_), fresh(sys_)
            ascending = [passage(up, delta, t_max) for delta in DEFAULT_DELTAS]
            descending = [passage(down, delta, t_max) for delta in reversed(DEFAULT_DELTAS)][::-1]
            assert ascending == cold == descending

    @pytest.mark.parametrize("make", [random_coupled_system, random_isolated_system])
    def test_a_second_window_gives_the_fresh_taus(self, make):
        rng = np.random.default_rng(67)
        for _ in range(4):
            sys_ = make(rng, int(rng.integers(2, 7)))
            t_max = sweep_window(sys_)
            for delta in (0.0, 0.4, 0.8):
                first = passage(sys_, delta, t_max)
                for window in (0.5 * t_max, 2.0 * t_max):
                    assert passage(sys_, delta, window) == passage(fresh(sys_), delta, window)
                assert passage(sys_, delta, t_max) == first

    # Metamorphic relation: a larger target fidelity is reached no later, so tau
    # does not increase with delta, and a reached delta makes every larger one reached.
    @pytest.mark.parametrize("make", [random_coupled_system, random_isolated_system])
    def test_tau_does_not_increase_with_delta(self, make):
        rng = np.random.default_rng(71)
        reached = 0
        for _ in range(20):
            sys_ = make(rng, int(rng.integers(2, 7)))
            taus = [passage(sys_, delta, sweep_window(sys_)) for delta in DEFAULT_DELTAS]
            for tau, later in zip(taus, taus[1:]):
                assert tau is None or (later is not None and later <= tau)
            reached += sum(tau is not None for tau in taus)
        assert reached >= 100

    def test_never_later_than_the_first_dense_sample_at_delta(self, monkeypatch):
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
                monkeypatch.setattr(qsl.bounds, "PASSAGE_SCAN", samples)
                # the certificate's cache keys on the system and the window, not the scan size
                qsl.bounds._certificate.cache_clear()
                try:
                    tau = first_passage(sys_, delta, t_max)
                except NotReached:
                    tau = None
                assert kept_scan(sys_, t_max).shape[1] == samples + 1
                if tau is None:
                    assert not hits.size
                    continue
                reached += 1
                assert sys_.evaluator.fidelities([tau])[0] == pytest.approx(delta, abs=1e-9)
                if hits.size:
                    assert tau <= dense[hits[0]] * (1.0 + 1e-13)
        qsl.bounds._certificate.cache_clear()
        assert reached >= 60

    # The mpmath oracle shares no code with the search: its own eigendecompositions at 30 digits.
    # The cells' dimensions are 4, 3, 3 and 2.
    @pytest.mark.parametrize("seed", [0, 1, 6, 11])
    def test_passage_matches_the_mpmath_oracle(self, seed):
        sys_, delta = general_cell(np.random.default_rng(seed))
        expected = mp_first_passage(sys_, delta, 10.0)
        assert expected is not None
        assert first_passage(sys_, delta, 10.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    # Three isolated cells of 4 to 6 levels, where theta moves slower than v = dH.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isolated_passage_matches_the_mpmath_oracle(self, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_isolated_system(rng, int(rng.integers(3, 7)))
        t_max = sweep_window(sys_)
        for delta in (0.1, 0.5, 0.9):
            expected = mp_first_passage(sys_, delta, t_max)
            assert expected is not None
            assert first_passage(sys_, delta, t_max) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @staticmethod
    def _deferral_taus():
        """Taus of three seeded systems at four deltas, each system searched fresh, None where not reached."""
        rng = np.random.default_rng(23)
        systems = [random_isolated_system(rng, dim) for dim in (3, 5)] + [random_coupled_system(rng, 4)]
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

    def test_deferred_intervals_give_the_same_taus(self, monkeypatch):
        expected = self._deferral_taus()
        carried = []
        fidelities = _SpectralEvaluator.fidelities

        def counted(self, times):
            # one batch part and the carried rest of the window, PASSAGE_ROW - 2 new points each
            if len(times) == 2 * (qsl.bounds.PASSAGE_ROW - 2):
                carried.append(times[0])
            return fidelities(self, times)

        monkeypatch.setattr(_SpectralEvaluator, "fidelities", counted)
        monkeypatch.setattr(qsl.bounds, "PASSAGE_BATCH", 1)
        got = self._deferral_taus()
        assert carried
        assert [tau is None for tau in got] == [tau is None for tau in expected]
        for tau, reference in zip(got, expected):
            if tau is not None:
                assert tau == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_every_batch_after_the_scan_holds_at_most_one_part_past_the_batch(self, monkeypatch):
        sizes, scanning = [], []
        fidelities, certificate = _SpectralEvaluator.fidelities, qsl.bounds._certificate

        def counted(self, times):
            if not scanning:
                sizes.append(len(times))
            return fidelities(self, times)

        def scanned(sys_, t_max):
            scanning.append(True)
            try:
                return certificate(sys_, t_max)
            finally:
                scanning.pop()

        monkeypatch.setattr(_SpectralEvaluator, "fidelities", counted)
        monkeypatch.setattr(qsl.bounds, "_certificate", scanned)
        monkeypatch.setattr(qsl.bounds, "PASSAGE_BATCH", 1)
        self._deferral_taus()
        assert sizes
        assert max(sizes) <= (qsl.bounds.PASSAGE_BATCH + 1) * (qsl.bounds.PASSAGE_ROW - 2)

    def test_scan_is_kept_per_window(self):
        sys_ = build_ml_family(1.0, 0.8)
        scan = kept_scan(sys_, 2.0)
        times, fids, angles = scan
        assert kept_scan(sys_, 2.0) is scan  # times, fidelities and angles alike
        longer = kept_scan(sys_, 3.0)
        assert longer is not scan and longer[0, -1] == 3.0
        again = kept_scan(sys_, 2.0)
        for kept, first in zip(again, (times, fids, angles)):
            assert np.array_equal(kept, first)
        np.testing.assert_allclose(np.cos(angles) ** 2, fids, rtol=0.0, atol=1e-15)

    def test_scan_arrays_are_read_only(self):
        times, fids, angles = kept_scan(build_ml_family(1.0, 0.8), 2.0)
        bounds = _certificate(build_ml_family(1.0, 0.8), 2.0)[2]
        for array in (times, fids, angles, bounds):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("t_max", [2.0, 40.0, 1e-321])
    def test_part_bounds_are_the_inequality_on_the_kept_rows(self, t_max):
        # 1e-321 is a window of subnormal times, most of whose scan parts have no length
        rng = np.random.default_rng(97)
        systems = [build_ml_family(1.0, 0.8), random_coupled_system(rng, 4), random_isolated_system(rng, 5)]
        for sys_ in systems:
            speed, (times, fids, angles), bounds = _certificate(sys_, t_max)
            width = times[1:] - times[:-1]
            inequality = angles[:-1] + angles[1:] + speed * width
            assert bounds.shape == (qsl.bounds.PASSAGE_SCAN,)
            assert np.array_equal(bounds[width > 0.0], inequality[width > 0.0])
            assert np.all(bounds[width <= 0.0] == -math.inf)
            assert np.isneginf(bounds).any() == (t_max < 1.0)


class TestIsolatedBounds:
    # mt, ml and bd are evaluated from the initial state alone, so tau = 0 reads them without a trajectory
    def test_alpha_memo_is_alpha(self):
        for delta in (0.0, 0.1, 0.25, 0.7, 0.1, 1.0):
            assert _alpha_of(delta) == alpha(delta)
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0, 3.0]), PureState.normalized([1.0, 1.0, 1.0]))
        # eps_min = 0, so the normalized energy is <H>
        norm_energy = expectation(sys_.H, sys_.initial)
        assert evaluate_bounds(sys_, 0.3, tau=0.0).ml == alpha(0.3) / norm_energy

    def test_ml_equal_superposition_saturates(self):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0]), PureState.normalized([1.0, 1.0]))
        tau = first_passage(sys_, 0.0, 4.0)
        assert abs(tau - math.pi) <= 1e-8
        report = evaluate_bounds(sys_, 0.0, tau=tau)
        assert abs(report.ml - math.pi) <= 1e-12

    def test_ml_family_normalized_energy(self):
        family = build_ml_family(2.0, 0.9)
        report = evaluate_bounds(isolated(family.H, family.initial), 0.0, tau=0.0)
        assert abs(report.ml - (math.pi / 2) / 2.0) <= 1e-10

    def test_eigenstate_bounds_infinite(self):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0]), PureState([1.0, 0.0]))
        report = evaluate_bounds(sys_, 0.0, tau=1.0)
        assert report.mt == report.ml == report.bd == math.inf
        assert report.mt_closed == report.bd_closed == math.inf
        assert report.margins() == {}

    def test_bd_equals_mt_for_two_levels(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            sys_ = random_saturating_two_level(rng)
            report = evaluate_bounds(sys_, float(rng.uniform(0.0, 0.95)), tau=0.0)
            assert abs(report.mt - report.bd) <= 1e-10

    def test_raw_arrays_give_the_operator_values(self):
        # the statistics behind the bounds coerce raw arrays as the operator and state would
        rng = np.random.default_rng(29)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cases = [(np.diag([0.0, 1.0]), [2**-0.5, 2**-0.5]), ((g + g.conj().T) / 2, random_pure_state(rng, 4).amplitudes)]
        for matrix, amplitudes in cases:
            raw = state_statistics(matrix, amplitudes)
            typed = isolated(HermitianOperator(matrix), PureState(amplitudes)).initial_statistics
            for field, value in raw._asdict().items():
                np.testing.assert_array_equal(value, getattr(typed, field), err_msg=field)

    def test_bd_denominator_three_levels(self):
        sys_ = isolated(HermitianOperator.from_diagonal([0.0, 1.0, 2.0]), PureState.normalized([1.0, 1.0, 1.0]))
        report = evaluate_bounds(sys_, 0.0, tau=0.0)
        assert abs(report.bd - math.pi / 2) <= 1e-12  # geometric mean is exactly 1
        assert report.bd < report.mt


class TestClosedBounds:
    def test_mt_closed_geodesic_value(self):
        sys_ = build_ml_family(1.0, math.pi / 3)
        tau = first_passage(sys_, 0.0, 2.0)
        value = evaluate_bounds(sys_, 0.0, tau=tau, samples=1000).mt_closed
        assert abs(value - math.pi / (2 * math.sqrt(3.0))) <= 1e-8
        assert abs(value - tau) <= 1e-8

    def test_mt_closed_stationary_is_infinite(self):
        sys_ = isolated(
            HermitianOperator.from_diagonal([0.0, 1.0, 2.0]), PureState([0.0, 1.0, 0.0])
        )
        report = evaluate_bounds(sys_, 0.5, tau=1.0)
        assert report.mt == report.mt_closed == math.inf
        with pytest.raises(NotReached):
            first_passage(sys_, 0.5, 100.0)

    def test_closed_bounds_are_the_report_fields(self):
        # the closed bounds average the statistics of the trajectory on [0, tau]
        rng = np.random.default_rng(41)
        for _ in range(17):
            sys_ = random_coupled_system(rng, int(rng.integers(2, 7)))
            delta, samples = float(rng.uniform(0.0, 0.9)), int(rng.integers(2, 1000))
            tau = first_passage(sys_, delta, 1.05 * math.pi / math.sqrt(variance(sys_.H, sys_.initial)))
            report = evaluate_bounds(sys_, delta, tau=tau, samples=samples)
            traj, scale = sample_trajectory(sys_, tau, samples), float(np.abs(sys_.H.eig[0]).max())
            mt_rate = time_average(traj.times, traj.stats.energy_uncertainty)
            bd_rate = time_average(traj.times, _bd_factor(traj.stats))
            assert _over(_angle(delta), mt_rate, scale) == report.mt_closed
            assert _over(_angle(delta), bd_rate, scale) == report.bd_closed

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

    def test_a_subnormal_window_whose_samples_descend_is_refused(self):
        # 8 samples of 5 subnormal units: linspace rounds the step of 5/8 unit to 1, so the times run 0..7 and end on 5
        times = np.linspace(0.0, 2.5e-323, 9)
        assert np.array_equal(times / 5e-324, [0, 1, 2, 3, 4, 5, 6, 7, 5])
        with pytest.raises(DomainError, match="times must be ascending"):
            evaluate_bounds(build_ml_family(1.0, 0.9), 0.5, tau=2.5e-323, samples=8)


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


def slow_two_level(g):
    """Isolated diag(0, g) with the state (1, 1)/sqrt 2, whose bounds at delta 0.5 are all pi/(2g) but ml."""
    hamiltonian = HermitianOperator.from_diagonal([0.0, g])
    return isolated(hamiltonian, PureState.normalized([1.0, 1.0]))


class TestEnergyScale:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="FOUND in CHANGES.md, src/qsl/bounds.py VALIDITY_SLACK: the slack is an absolute 1e-9, "
        "so at tau = 1.6e13 rounding alone reports the saturated mt and mt_closed as violated",
    )
    def test_absolute_slack_on_a_slow_system(self):
        sys_ = slow_two_level(1e-13)
        report = evaluate_bounds(sys_, 0.5, tau=first_passage(sys_, 0.5, 4 * math.pi / 1e-13))
        assert report.violations() == {}

    def test_absolute_thresholds_on_a_small_energy_scale(self):
        for g in (1e-13, 1e-15):
            sys_ = slow_two_level(g)
            report = evaluate_bounds(sys_, 0.5, tau=first_passage(sys_, 0.5, 4 * math.pi / g))
            bounds = report.mt, report.ml, report.bd, report.mt_closed, report.bd_closed
            assert all(map(math.isfinite, bounds)), (g, bounds)

    @pytest.mark.parametrize("scale", [2.0**-600, 1.0, 2.0**520], ids=["2^-600", "1", "2^520"])
    def test_bd_factor_scales_with_the_energy(self, scale):
        # the product of the two energies would overflow from about 1e154, or underflow, unless scaled first
        state = PureState.normalized([1.0, 2.0, 3.0])
        stats, unit = (
            state_statistics(HermitianOperator.from_diagonal([-1.5 * s, 0.0, 2.5 * s]), state) for s in (scale, 1.0)
        )
        assert _bd_factor(stats) == _bd_factor(unit) * scale > 0.0

    @pytest.mark.parametrize("c", [0.0, 1.0, 3.7, 1e6, 1e-9])
    def test_every_state_of_a_multiple_of_the_identity_is_stationary(self, c):
        # H = cI moves no state, so every bound is inf however the rounding spread of the energy scales with c
        rng = np.random.default_rng(47)
        state = random_pure_state(rng, 3)
        for coupling in (np.zeros((3, 3)), qsl.sweeps.random_hermitian(rng, 3).entries):
            hamiltonian = HermitianOperator.from_diagonal([c] * 3)
            sys_ = RotatedHamiltonianSystem(hamiltonian, HermitianOperator(coupling), state)
            report = evaluate_bounds(sys_, 0.5, tau=1.0)
            ml = math.inf if report.ml is None else report.ml
            bounds = report.mt, ml, report.bd, report.mt_closed, report.bd_closed
            assert bounds == (math.inf,) * 5, (c, bounds)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_systems": -5}, "n_systems must be an integer >= 1, got -5"),
            ({"n_systems": 2.5}, "n_systems must be an integer >= 1, got 2.5"),
            ({"dim_range": (2.5, 3.5)}, "dim_range entries must be integers >= 2, got 2.5"),
            ({"samples": 1}, "need at least 2 sampling intervals"),
            ({"deltas": ()}, "deltas must name at least one delta"),
            ({"dim_range": (2, 3, 4)}, "dim_range must be two integers with 2 <= low <= high, got (2, 3, 4)"),
            ({"dim_range": (3,)}, "dim_range must be two integers with 2 <= low <= high, got (3,)"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"seed": None}, "seed must be an integer >= 0, got None"),
            ({"deltas": 0.5}, "deltas must be a sequence of real numbers, got 0.5"),
            ({"deltas": "0.5"}, "deltas must be a sequence of real numbers, got '0.5'"),
            ({"deltas": None}, "deltas must be a sequence of real numbers, got None"),
            ({"dim_range": 5}, "dim_range must be two integers with 2 <= low <= high, got 5"),
            ({"dim_range": None}, "dim_range must be two integers with 2 <= low <= high, got None"),
        ],
        ids=[
            "negative-systems", "fractional-systems", "fractional-dims", "one-sample",
            "no-deltas", "three-dims", "one-dim", "negative-seed", "fractional-seed", "no-seed",
            "number-deltas", "string-deltas", "none-deltas", "number-dims", "none-dims",
        ],
    )
    def test_counts_checked_before_the_first_system(self, kwargs, message, monkeypatch):
        calls = []
        monkeypatch.setattr(qsl.sweeps, "random_isolated_system", lambda *args: calls.append(args))
        monkeypatch.setattr(qsl.sweeps, "random_coupled_system", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=re.escape(message)):
            validity_sweep(**{"deltas": (0.5,), **kwargs})
        assert calls == []

    def test_one_scan_per_system(self, monkeypatch):
        scans = []
        uniform_fidelities = _SpectralEvaluator.uniform_fidelities

        def counted(self, times):
            if len(times) == 2049:
                scans.append(self)
            return uniform_fidelities(self, times)

        monkeypatch.setattr(_SpectralEvaluator, "uniform_fidelities", counted)
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
