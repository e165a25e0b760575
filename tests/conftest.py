import dataclasses

import pytest

import qsl.sweeps


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
