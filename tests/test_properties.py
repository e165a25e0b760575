"""Property searches over the paper's claims.

Each search is derandomized and keeps no example database, so a run
explores the same inputs every time.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsl import run_ml_refutation

# 10^x for x uniform in [-3, 3]
LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(delta=st.floats(0.0, 0.999), L=LOG_UNIFORM, E=LOG_UNIFORM)
@example(delta=0.0, L=1e-4, E=1.0)
def test_refute_ml_beats_every_hypothesis(delta, L, E):
    # L/E stays at or above 1e-6, where the margin 0.09 L/E clears the absolute 1e-9 slack
    report = run_ml_refutation(delta, L, E, samples=200)
    assert report.tau < L / E and report.violated
    assert report.margins["mt_saturation"] <= 1e-8 * max(1.0, report.tau)
    assert report.max_energy_drift <= 1e-9 * max(1.0, E)
