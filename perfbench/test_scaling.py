"""Times are scaled by the calibration kernel's time beside each operation.

    python3 -m pytest perfbench/test_scaling.py -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from calibrate import REFERENCE_S, kernel, timed  # noqa: E402


def test_kernel_at_reference_speed_leaves_times_as_measured():
    lat_ms, walls = run._scaled([0.5], [[0.1, 0.3]], [[REFERENCE_S, REFERENCE_S]])
    assert lat_ms == pytest.approx([100.0, 300.0])
    assert walls == pytest.approx([0.5])


def test_each_operation_is_scaled_by_the_kernel_before_and_after_it():
    # the host slows to half speed after the first operation
    cal = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    lat_ms, walls = run._scaled([0.4], [[0.1, 0.15, 0.15]], [cal])
    assert lat_ms == pytest.approx([100.0, 100.0, 75.0])
    # a round is scaled by its operations' factors, weighted by their time
    assert walls == pytest.approx([0.275])


def test_calibration_that_does_not_pair_with_the_operations_is_refused():
    with pytest.raises(run.BenchError):
        run._scaled([0.5], [[0.1, 0.3]], [[REFERENCE_S]])


def test_kernel_is_deterministic_and_timed():
    assert kernel() == kernel()
    assert timed() > 0
