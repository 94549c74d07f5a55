"""Tests of the benchmark harness: the percentile rule, host correction,
span self time and failure counting.

    python3 -m pytest perfbench/tests
"""

import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refkernels  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402


# -- percentile rule -------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert not stats.reportable(19, 50)
    assert stats.reportable(20, 50)
    assert not stats.reportable(99, 90)
    assert stats.reportable(100, 90)


def test_latency_summary_reports_only_reportable_percentiles():
    summary = stats.latency_summary([float(i) for i in range(99)])
    assert summary["n"] == 99
    assert summary["p50"] == 49.0
    assert summary["p50_beyond"] == 49
    assert "p90" not in summary and "p99" not in summary

    summary = stats.latency_summary([float(i) for i in range(100)])
    assert summary["p90"] == pytest.approx(89.1)
    assert summary["p90_beyond"] == 10
    assert stats.latency_summary([1.0] * 19) == {"n": 19}


def test_percentile_interpolates_like_numpy():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# -- host correction ---------------------------------------------------------------


def test_host_factor_scales_to_the_nominal_host():
    # the run's host took twice the nominal reference time: halve its times
    assert stats.host_factor(1.0, 2.0) == 0.5
    assert 8.0 * stats.host_factor(1.5, 3.0) == 4.0
    with pytest.raises(ValueError):
        stats.host_factor(1.0, 0.0)


def test_local_refs_follow_a_host_speed_change():
    # five ops; the host halves its speed after the second op
    gaps = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]]
    assert stats.local_refs(gaps, 1) == [1.0, 1.5, 2.0, 2.0, 2.0]
    # whole run: twelve samples, one trimmed at each end
    assert stats.local_refs(gaps, None) == pytest.approx([1.7] * 5)
    times = [10.0, 10.0, 20.0, 20.0, 20.0]
    corrected = [t * stats.host_factor(1.0, r)
                 for t, r in zip(times, stats.local_refs(gaps, 1))]
    assert corrected[0] == corrected[2] == corrected[4] == 10.0


def test_trimmed_mean_drops_outliers():
    assert stats.trimmed_mean([1.0] * 8 + [0.0, 100.0]) == 1.0
    assert stats.trimmed_mean([1.0, 3.0]) == 2.0


def test_reference_is_invalid_while_another_thread_runs():
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with pytest.raises(refkernels.InvalidReference):
            refkernels.time_kernel(refkernels.python_kernel, 1)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert len(refkernels.time_kernel(refkernels.python_kernel, 3)) == 3


# -- spans -------------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),      # overlaps a: together they cover [1, 5]
        ("a", 6.0, 7.0, 0, 0),
        ("c", 1.5, 2.5, 1, 0),      # grandchild, only a's own children count
        ("a", 6.2, 6.8, 3, 0),      # nested call of the same function
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 0.4, 1.0, 0.6])
    assert [stats.outermost(spans, i) for i in range(len(spans))] == [
        True, True, True, True, True, False]


# -- failure counting --------------------------------------------------------------


class _Flaky:
    inputs = [0, 1, 2]

    def op(self, i):
        if i == 1:
            raise ZeroDivisionError("op broke")
        return i

    def check(self, i, out):
        if out == 2:
            raise RuntimeError("wrong answer")
        return 15.0


def test_every_failure_is_counted():
    tally = stats.Tally()
    results = [worker._attempt(_Flaky(), tally, i) for i in range(3)]
    assert [acc for _, acc in results] == [15.0, None, None]
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "ZeroDivisionError" in tally.reasons[0]
    assert "RuntimeError" in tally.reasons[1]


def test_measure_counts_failures_and_keeps_host_samples():
    record = worker.measure(_Flaky(), refkernels.python_kernel, 1, 0.0, 20, False)
    assert record["attempted"] == len(record["op_ms"]) == 20
    assert record["failed"] == sum(1 for k in range(record["attempted"]) if k % 3)
    assert len(record["ref_gaps_ms"]) == record["attempted"] + 1
