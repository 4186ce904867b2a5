"""Utilities: percentiles, rolling histograms, logging."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.utils import (
    RollingHistogram,
    RunLogger,
    percentile,
)


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        for q in (0, 10, 50, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(np.percentile(values, q))

    def test_single_value_and_bad_inputs(self):
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRollingHistogram:
    def test_totals_cover_all_window_covers_recent(self):
        hist = RollingHistogram(capacity=4)
        for value in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]:
            hist.add(value)
        assert hist.count == 6
        assert hist.mean() == pytest.approx(35.0)  # over all six
        assert hist.max() == 60.0
        assert sorted(hist.window) == [30.0, 40.0, 50.0, 60.0]  # last four
        assert hist.percentile(100) == 60.0
        assert hist.percentile(0) == 30.0  # 10/20 already evicted

    def test_summary_labels_and_empty_behaviour(self):
        hist = RollingHistogram()
        assert hist.summary()["count"] == 0.0
        assert hist.percentile(50) == 0.0
        hist.add(2.0)
        summary = hist.summary(percentiles=(50, 99.9))
        assert summary["p50"] == 2.0
        assert summary["p99_9"] == 2.0
        with pytest.raises(ValueError):
            RollingHistogram(capacity=0)

    def test_merge_combines_lifetime_stats_exactly(self):
        a, b = RollingHistogram(capacity=8), RollingHistogram(capacity=8)
        for value in [1.0, 2.0, 3.0]:
            a.add(value)
        for value in [10.0, 20.0]:
            b.add(value)
        a.merge(b)
        assert a.count == 5
        assert a.mean() == pytest.approx(36.0 / 5)
        assert a.max() == 20.0
        assert sorted(a.window) == [1.0, 2.0, 3.0, 10.0, 20.0]
        assert b.count == 2  # the merged-from histogram is untouched

    def test_merge_over_capacity_keeps_a_fair_slice_of_both(self):
        a, b = RollingHistogram(capacity=4), RollingHistogram(capacity=4)
        for value in [1.0, 2.0, 3.0, 4.0]:
            a.add(value)
        for value in [100.0, 200.0, 300.0, 400.0]:
            b.add(value)
        a.merge(b)
        assert a.count == 8
        assert len(a.window) == 4
        assert any(value < 10 for value in a.window)
        assert any(value > 10 for value in a.window)

    def test_merge_with_empty_is_identity(self):
        a, b = RollingHistogram(capacity=4), RollingHistogram(capacity=4)
        a.add(5.0)
        a.merge(b)
        assert a.count == 1 and a.max() == 5.0
        b.merge(a)
        assert b.count == 1 and b.max() == 5.0


class TestLogger:
    def test_messages_and_metrics_recorded(self):
        logger = RunLogger("test")
        logger("hello")
        logger.log("world")
        logger.record_metric("loss", 1.0)
        logger.record_metric("loss", 0.5)
        assert len(logger.entries) == 2
        assert logger.metric_series("loss") == [1.0, 0.5]
        assert logger.last_metric("loss") == 0.5
        assert logger.last_metric("missing") is None
        assert "loss" in logger.summary()

    def test_stream_mirroring(self):
        stream = io.StringIO()
        logger = RunLogger("mirror", stream=stream)
        logger("message one")
        assert "message one" in stream.getvalue()
