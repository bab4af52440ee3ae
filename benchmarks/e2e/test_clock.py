"""The reference-speed clock: scaling by the units around an interval."""

import pytest

from clock import REFERENCE_S, Clock


def clock_with(units):
    """A clock whose calibration units ran at ``(midpoint, cpu seconds)``."""
    clock = Clock()
    for mid, cpu in units:
        clock._mids.append(mid)
        clock._cpu.append(cpu)
    return clock


def test_an_interval_on_a_host_at_half_speed_counts_half():
    clock = clock_with([(float(t), 2 * REFERENCE_S) for t in range(10)])
    assert clock.scaled([2.25, 2.75]) == pytest.approx(0.25)


def test_each_piece_is_scaled_by_the_speed_around_it():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S
    units = [(t / 100, slow if t < 500 else fast) for t in range(1000)]
    clock = clock_with(units)
    # One second at half speed, then one at full speed, less the units inside.
    inside = sum(1 for mid, _ in units if 4.0 <= mid <= 6.0) * REFERENCE_S
    assert clock.scaled([4.0, 6.0]) == pytest.approx(0.5 + 1.0 - inside, rel=0.02)


def test_real_units_give_a_positive_time():
    clock = Clock()
    clock.calibrate()
    with clock.timed() as interval:
        sum(range(10000))
    clock.calibrate()
    assert 0 < clock.scaled(interval) < 1
    assert clock.calibration_s((interval[0] - 1, interval[1] + 1)) > 0
