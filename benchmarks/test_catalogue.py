"""Every catalogue entry, run once under pytest-benchmark timing.

Each run archives its table under ``benchmarks/results/`` and asserts the
entry's shape claims; see :mod:`repro.harness.experiments`.
"""

import pytest
from bench_common import emit

from repro.harness.experiments import CATALOGUE


@pytest.mark.parametrize("experiment", CATALOGUE, ids=lambda e: e.id)
def test_experiment(once, experiment):
    data = once(experiment.run)
    emit(experiment.result, experiment.render(data))
    assert experiment.failures(data) == []
