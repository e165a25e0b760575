"""Every scalar library argument obeys one rule: a real number, not a bool, string, None, complex or array.

Each case names an argument, a call that takes a value for it, and a valid
float with an integer value, so that the int and the numpy float of that
value can be checked to give the float's result.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qsl import (
    DomainError,
    RefutationSpec,
    alpha,
    build_ml_family,
    choose_theta,
    evaluate_bounds,
    first_passage,
    propagate_numeric,
    random_coupled_system,
    run_bd_nonsaturation,
    run_ml_refutation,
    sample_trajectory,
    validity_sweep,
)

FAMILY = build_ml_family(1.0, 1.0)
SLOW = build_ml_family(1e-3, 1.0)  # slow enough for an RK4 step of length 1
LEVELS, UNIFORM = np.diag([0.0, 1.0, 2.0]), np.ones(3) / math.sqrt(3.0)


def sweep(**kwargs):
    rows, violations = validity_sweep(n_systems=2, dim_range=(2, 3), seed=5, samples=20, **kwargs)
    return [(row.delta, row.reached, row.report) for row in rows], violations


CASES = {
    "alpha-delta": ("delta", alpha, 0.0),
    "first_passage-delta": ("delta", lambda x: first_passage(FAMILY, x, 3.0), 0.0),
    "first_passage-t_max": ("t_max", lambda x: first_passage(FAMILY, 0.5, x), 3.0),
    "evaluate_bounds-delta": ("delta", lambda x: evaluate_bounds(FAMILY, x, tau=0.5, samples=20), 0.0),
    "evaluate_bounds-tau": ("tau", lambda x: evaluate_bounds(FAMILY, 0.5, tau=x, samples=20), 1.0),
    "propagate_numeric-step": ("step", lambda x: propagate_numeric(SLOW, 3.0, x).amplitudes.tolist(), 1.0),
    "propagate_numeric-t": ("t", lambda x: propagate_numeric(SLOW, x, 1.0).amplitudes.tolist(), 3.0),
    "sample_trajectory-t_max": ("t_max", lambda x: sample_trajectory(FAMILY, x, 20).stats.energy_uncertainty.tolist(), 2.0),
    "build_ml_family-E": ("E", lambda x: build_ml_family(x, 1.0).H.entries.tolist(), 2.0),
    "build_ml_family-theta": ("theta", lambda x: build_ml_family(1.0, x).H.entries.tolist(), 2.0),
    "choose_theta-delta": ("delta", lambda x: choose_theta(x, 1.0), 0.0),
    "choose_theta-L": ("L", lambda x: choose_theta(0.5, x), 1.0),
    "choose_theta-margin": ("margin", lambda x: choose_theta(0.5, 1.0, x), 1.0),
    "spec-delta": ("delta", lambda x: RefutationSpec(x, 1.0, 1.0, 1.0), 0.0),
    "spec-L": ("L", lambda x: RefutationSpec(0.5, x, 1.0, 1.0), 1.0),
    "spec-E": ("E", lambda x: RefutationSpec(0.5, 1.0, x, 1.0), 1.0),
    "spec-theta": ("theta", lambda x: RefutationSpec(0.5, 1.0, 1.0, x), 1.0),
    "refute-delta": ("delta", lambda x: run_ml_refutation(x, 1.0, 1.0, samples=20), 0.0),
    "refute-L": ("L", lambda x: run_ml_refutation(0.5, x, 1.0, samples=20), 1.0),
    "refute-E": ("E", lambda x: run_ml_refutation(0.5, 1.0, x, samples=20), 1.0),
    "refute-margin": ("margin", lambda x: run_ml_refutation(0.5, 1.0, 1.0, x, samples=20), 1.0),
    "bd-delta": ("delta", lambda x: run_bd_nonsaturation(LEVELS, UNIFORM, x, samples=20), 0.0),
    "sweep-delta": ("delta", lambda x: sweep(deltas=(0.5, x)), 0.0),
    "sweep-isolated_fraction": ("isolated_fraction", lambda x: sweep(deltas=(0.5,), isolated_fraction=x), 1.0),
    "random_coupled_system-dim": ("dim", lambda x: random_coupled_system(np.random.default_rng(3), x).H.entries.tolist(), None),
}

NOT_REAL = [True, False, np.bool_(True), "1", None, 1j, np.array(1.0), np.array([1.0]), math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("case", list(CASES))
def test_a_value_that_is_not_an_allowed_real_number_is_a_domain_error(case):
    name, call, _ = CASES[case]
    for value in NOT_REAL:
        try:
            call(value)
        except DomainError as exc:
            assert re.search(rf"\b{name}\b", str(exc)), (value, str(exc))
        else:
            pytest.fail(f"{case} accepted {value!r}")


@pytest.mark.parametrize("case", [case for case, (_, _, good) in CASES.items() if good is not None])
def test_an_int_and_a_numpy_float_give_the_float_result(case):
    _, call, good = CASES[case]
    expected = repr(call(good))
    assert repr(call(int(good))) == expected
    assert repr(call(np.float64(good))) == expected


def test_a_numpy_integer_dim_gives_the_int_result():
    _, call, _ = CASES["random_coupled_system-dim"]
    assert call(np.int64(3)) == call(3)


# A real number is judged by the float it becomes: one beyond the float range, or one that
# rounds out of the rule, is a DomainError naming the argument and the rule.
BEYOND_THE_FLOAT = {
    "int-above-the-float-range": ("L", "be positive and finite", lambda: choose_theta(0.5, 10**400)),
    "int-too-long-to-print": ("t_max", "be positive and finite", lambda: first_passage(FAMILY, 0.5, -10**5000)),
    "fraction-that-rounds-to-zero": (
        "t_max", "be positive and finite", lambda: sample_trajectory(FAMILY, Fraction(1, 10**400), 20)
    ),
}


@pytest.mark.parametrize("case", list(BEYOND_THE_FLOAT))
def test_a_real_number_is_judged_by_its_float(case):
    name, phrase, call = BEYOND_THE_FLOAT[case]
    with pytest.raises(DomainError, match=rf"^{name} must {phrase}, got "):
        call()
