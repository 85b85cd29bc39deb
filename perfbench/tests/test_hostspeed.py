import pytest

from common import REFERENCE_MS, HostSpeed


def test_factor_scales_to_the_reference_time():
    speed = HostSpeed()
    # The host ran the reference at half speed (twice REFERENCE_MS) in
    # most windows: timings are halved, rates doubled.
    speed.samples = {0: [REFERENCE_MS * 2e-3] * 3 + [REFERENCE_MS * 1e-3]}
    assert speed.factor == pytest.approx(0.5)


def test_each_vcpu_weighs_the_same():
    speed = HostSpeed()
    # One vCPU at reference speed, one three times slower: on average
    # twice the reference time.
    speed.samples = {0: [REFERENCE_MS * 1e-3] * 5,
                     1: [REFERENCE_MS * 3e-3] * 2}
    assert speed.reference_ms == pytest.approx(2 * REFERENCE_MS)
    assert speed.factor == pytest.approx(0.5)


def test_sampling_times_the_reference():
    speed = HostSpeed()
    speed.sample(3)
    times = [t for cpu in speed.samples.values() for t in cpu]
    assert len(times) == 3
    assert all(t > 0 for t in times)
    assert speed.factor > 0
