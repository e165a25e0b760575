import dataclasses

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import qsl.sweeps


@pytest.fixture(autouse=True, scope="session")
def hypothesis_home(tmp_path_factory):
    """Keep Hypothesis's storage out of the checkout: it writes `.hypothesis/constants/` even with no database."""
    set_hypothesis_home_dir(tmp_path_factory.mktemp("hypothesis"))


@pytest.fixture
def first_cell_violates(monkeypatch):
    """Give a sweep's first evaluated cell mt = tau + 1e-6; the list holds that faked report."""
    faked = []

    def evaluate(*args, **kwargs):
        report = qsl.evaluate_bounds(*args, **kwargs)
        if faked:
            return report
        faked.append(dataclasses.replace(report, mt=report.tau_actual + 1e-6))
        return faked[0]

    monkeypatch.setattr(qsl.sweeps, "evaluate_bounds", evaluate)
    return faked
