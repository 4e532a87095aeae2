"""The shared stats helpers both faults and streaming reduce through."""

import pytest

from repro.analysis.stats import (
    degradation_metrics,
    delivered_fraction,
    latency_percentiles,
    percentile,
    violation_counts,
)
from repro.verify.oracles import Violation


class TestPercentile:
    def test_nearest_rank_basics(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 50) == 5
        assert percentile(values, 99) == 10
        assert percentile(values, 100) == 10
        assert percentile(values, 1) == 1

    def test_result_is_an_observed_value(self):
        values = [3, 7, 100]
        for q in (1, 25, 50, 75, 99):
            assert percentile(values, q) in values

    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_unsorted_input_ok(self):
        assert percentile([9, 1, 5], 50) == 5

    def test_presorted_skips_the_sort_but_agrees(self):
        values = [9, 1, 5, 5, 2]
        ordered = sorted(values)
        for q in (1, 25, 50, 75, 99, 100):
            assert percentile(ordered, q, presorted=True) == percentile(values, q)

    def test_presorted_trusts_the_caller(self):
        # presorted=True must not re-sort: on deliberately unsorted input
        # it indexes the sequence as-is (this is the contract, not a bug).
        assert percentile([9, 1, 5], 50, presorted=True) == 1
        assert percentile([9, 1, 5], 50) == 5


#: Nearest-rank goldens: (sample, q) -> pinned output.  These pin the
#: exact rank rule (ceil(q/100 * len), clamped to [1, len], 1-indexed on
#: the ascending sample) so the single-sort refactor of
#: latency_percentiles provably changed nothing.
PERCENTILE_GOLDENS = {
    ((4, 1, 3, 2, 5), 1): 1,
    ((4, 1, 3, 2, 5), 20): 1,
    ((4, 1, 3, 2, 5), 21): 2,
    ((4, 1, 3, 2, 5), 50): 3,
    ((4, 1, 3, 2, 5), 99): 5,
    ((4, 1, 3, 2, 5), 100): 5,
    ((7,), 50): 7,
    ((7,), 99): 7,
    ((10, 10, 20), 50): 10,
    ((10, 10, 20), 67): 20,
    (tuple(range(100, 0, -1)), 50): 50,
    (tuple(range(100, 0, -1)), 95): 95,
    (tuple(range(100, 0, -1)), 99): 99,
}


class TestPercentileGoldens:
    def test_pinned_nearest_rank_outputs(self):
        for (sample, q), expected in PERCENTILE_GOLDENS.items():
            assert percentile(list(sample), q) == expected, (sample, q)

    def test_latency_percentiles_matches_pins(self):
        sample = (4, 1, 3, 2, 5)
        row = latency_percentiles(list(sample), (50, 99))
        assert row == {"latency_p50": 3, "latency_p99": 5}


class TestLatencyPercentiles:
    def test_default_keys(self):
        row = latency_percentiles([1, 2, 3])
        assert set(row) == {"latency_p50", "latency_p99"}

    def test_custom_quantiles(self):
        row = latency_percentiles(range(1, 101), (50, 95, 99))
        assert row == {"latency_p50": 50, "latency_p95": 95, "latency_p99": 99}

    def test_empty_gives_nones(self):
        assert latency_percentiles([]) == {"latency_p50": None, "latency_p99": None}


class TestViolationCounts:
    def test_buckets_by_oracle(self):
        violations = [
            Violation("queue-bound", 1, "a"),
            Violation("queue-bound", 2, "b"),
            Violation("conservation", 2, "c"),
        ]
        assert violation_counts(violations) == {"queue-bound": 2, "conservation": 1}

    def test_empty(self):
        assert violation_counts([]) == {}


class TestDegradation:
    def test_delivered_fraction_empty_instance(self):
        assert delivered_fraction(0, 0) == 1.0
        assert delivered_fraction(3, 4) == 0.75

    def test_row_shape_and_extra_merge(self):
        row = degradation_metrics(
            delivered=3,
            total=4,
            latencies=[2, 5, 9],
            dropped=1,
            extra={"retransmissions": 7},
        )
        assert row == {
            "delivered_fraction": 0.75,
            "latency_p50": 5,
            "latency_p99": 9,
            "dropped_packets": 1,
            "retransmissions": 7,
        }
