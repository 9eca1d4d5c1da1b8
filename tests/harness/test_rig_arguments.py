"""An echo rig given an argument it cannot run with fails with an error
that names that argument."""

import pytest

from repro.harness.runner import EchoRig


@pytest.mark.parametrize("kwargs, message", [
    ({"num_threads": 0}, "num_threads must be >= 1, got 0"),
    ({"server_service_ns": -5}, "server_service_ns must be >= 0, got -5"),
])
def test_rig_rejects_out_of_range_argument(kwargs, message):
    with pytest.raises(ValueError, match=message):
        EchoRig(**kwargs)


def test_run_inside_the_warm_up_names_it():
    # 100 RPCs finish well inside the default 100 us warm-up.
    with pytest.raises(ValueError, match=r"all 100 completions .*"
                                         r"warmup_ns=100000"):
        EchoRig(batch_size=4).closed_loop(nreq=100)
