"""Latency/throughput metric helpers."""

import pytest

from repro.spe.metrics import (
    LatencyRecorder,
    ThroughputMeter,
    summarize,
)


def test_summary_five_numbers():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.minimum == 1.0
    assert s.median == 3.0
    assert s.maximum == 5.0
    assert s.q1 == 2.0
    assert s.q3 == 4.0
    assert s.mean == 3.0
    assert s.count == 5


def test_summary_interpolated_quantiles():
    s = summarize([0.0, 10.0])
    assert s.q1 == pytest.approx(2.5)
    assert s.median == pytest.approx(5.0)
    assert s.q3 == pytest.approx(7.5)


def test_summary_single_sample():
    s = summarize([7.0])
    assert s.minimum == s.q1 == s.median == s.q3 == s.maximum == 7.0


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_unsorted_input():
    s = summarize([5.0, 1.0, 3.0])
    assert s.minimum == 1.0
    assert s.maximum == 5.0


def test_as_row_scaling():
    s = summarize([0.001, 0.002, 0.003])
    row = s.as_row(scale=1000.0)
    assert row["median"] == pytest.approx(2.0)
    assert row["count"] == 3


def test_latency_recorder():
    rec = LatencyRecorder()
    for value in (0.1, 0.2, 0.3):
        rec.record(value)
    assert len(rec) == 3
    assert rec.summary().median == pytest.approx(0.2)
    rec.clear()
    assert len(rec) == 0


def test_throughput_meter():
    meter = ThroughputMeter()
    meter.start()
    meter.add(100)
    meter.stop()
    assert meter.count == 100
    assert meter.per_second() > 0
    assert meter.elapsed() > 0


def test_throughput_meter_auto_start():
    meter = ThroughputMeter()
    meter.add(5)
    assert meter.count == 5
    assert meter.elapsed() > 0


def test_throughput_meter_never_started_reads_zero():
    meter = ThroughputMeter()
    assert meter.elapsed() == 0.0
    assert meter.per_second() == 0.0  # must not raise ZeroDivisionError


def test_throughput_meter_live_read_without_stop():
    meter = ThroughputMeter()
    meter.start()
    meter.add(50)
    live = meter.per_second()
    assert live > 0
    assert meter.elapsed() > 0
    # still live: a later read covers a longer interval, so the rate drops
    import time

    time.sleep(0.01)
    assert meter.elapsed() >= 0.01
    assert meter.per_second() < live


def test_throughput_meter_stop_freezes_interval():
    import time

    meter = ThroughputMeter()
    meter.start()
    meter.add(10)
    meter.stop()
    frozen = meter.elapsed()
    time.sleep(0.01)
    assert meter.elapsed() == frozen
    assert meter.per_second() == pytest.approx(10 / frozen)


def test_operator_stats_timing_histogram():
    from repro.spe.metrics import OperatorStats

    stats = OperatorStats(name="op")
    assert stats.timing_counts is None  # off by default: zero-overhead path
    stats.enable_timing((0.001, 0.1))
    stats.record_time(0.0005)
    stats.record_time(0.05)
    stats.record_time(5.0)
    assert stats.timing_counts == [1, 1, 1]
    assert stats.timing_total == 3
    # idempotent for the same bounds; conflicting bounds rejected
    stats.enable_timing((0.001, 0.1))
    assert stats.timing_total == 3
    with pytest.raises(Exception):
        stats.enable_timing(())


def _loop_bucket(bounds, seconds):
    """The hand-written binary search the timing histogram used to run."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if bounds[mid] < seconds:
            lo = mid + 1
        else:
            hi = mid
    return lo


def test_timing_buckets_match_the_binary_search_at_every_bound():
    import math

    from repro.obs import DEFAULT_TIME_BUCKETS
    from repro.spe.metrics import OperatorStats

    stats = OperatorStats(name="op")
    stats.enable_timing(DEFAULT_TIME_BUCKETS)
    bounds = stats.timing_bounds
    expected = [0] * (len(bounds) + 1)
    for bound in bounds:
        for value in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)):
            stats.record_time(value, 3)
            expected[_loop_bucket(bounds, value)] += 3
    assert stats.timing_counts == expected
    assert stats.timing_total == 9 * len(bounds)
