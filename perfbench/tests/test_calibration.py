"""The host-speed calibration scales op times by the readings around them.

    python3 -m pytest perfbench/tests -q
"""

import pytest

import calibration
import workloads as W


@pytest.mark.parametrize("name", sorted(calibration.KERNELS))
def test_kernel_reading_is_positive(name):
    assert calibration.kernel_seconds(name) > 0.0


def test_scaled_divides_by_the_mean_reading():
    ref = calibration.REFERENCE_S["small"]
    # readings at half speed on both sides halve the reported time
    assert calibration.scaled(1.0, 2 * ref, 2 * ref, "small") == pytest.approx(0.5)
    # the mean of the two readings, not either one
    assert calibration.scaled(1.0, ref, 3 * ref, "small") == pytest.approx(0.5)
    assert calibration.scaled(1.0, ref, ref, "small") == pytest.approx(1.0)


def test_every_workload_names_a_kernel():
    for cls in W.WORKLOADS.values():
        assert cls.CALIBRATION in calibration.KERNELS

