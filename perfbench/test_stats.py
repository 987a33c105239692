"""The benchmark's own arithmetic, span recorder and calibration.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import pytest

from perfbench import calibration, stats
from perfbench.spans import NullRecorder, Span, SpanRecorder


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "test")


class TestSelfTime:
    def test_nested_children(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("a.inner", 2.0, 3.0, 1),
            _span("b", 5.0, 6.0, 0),
        ]
        assert stats.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
        assert sum(stats.self_times(spans)) == 10.0

    def test_overlapping_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("x", 1.0, 5.0, 0),
            _span("y", 3.0, 7.0, 0),
        ]
        assert stats.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("late", 8.0, 12.0, 0),
            _span("before", -3.0, -1.0, 0),
        ]
        assert stats.self_times(spans)[0] == pytest.approx(8.0)

    def test_by_name_sums_every_span_of_a_name(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("w", 1.0, 2.0, 0),
            _span("w", 3.0, 5.0, 0),
        ]
        assert stats.self_time_by_name(spans) == {
            "root": pytest.approx(7.0), "w": pytest.approx(3.0)}

    def test_covered_merges_touching_intervals(self):
        assert stats.covered([(0, 1), (1, 2), (4, 5)], 0, 10) == 3


class TestReportablePercentile:
    def test_samples_beyond(self):
        assert stats.samples_beyond(1000, 99.0) == 10
        assert stats.samples_beyond(999, 99.0) == 9
        assert stats.samples_beyond(10_000, 99.9) == 10
        assert stats.samples_beyond(20, 50.0) == 10

    def test_rule_needs_ten_beyond(self):
        assert stats.reportable(1000, 99.0)
        assert not stats.reportable(999, 99.0)
        assert not stats.reportable(19, 50.0)
        assert stats.reportable(20, 50.0)

    def test_highest_reportable_tail(self):
        # 10^4 reads carry a p999, one fewer only a p99; 999 not even that.
        assert stats.reportable(10_000, 99.9)
        assert not stats.reportable(9_999, 99.9)
        assert stats.reportable(9_999, 99.0)
        assert not stats.reportable(999, 99.0)
        assert stats.reportable(999, 90.0)



class TestFailedShare:
    def test_nothing_attempted(self):
        assert stats.failed_share(0, 0) == 0.0

    def test_share(self):
        assert stats.failed_share(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(1, 0), (-1, 5), (2, -1)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            stats.failed_share(failed, attempted)


class TestParallelEfficiency:
    def test_full_use(self):
        assert stats.parallel_efficiency(8.0, 4.0, 2) == 1.0

    def test_idle_workers(self):
        assert stats.parallel_efficiency(8.0, 5.0, 2) == pytest.approx(0.8)

    def test_serial(self):
        assert stats.parallel_efficiency(3.0, 4.0, 1) == 0.75

    @pytest.mark.parametrize("wall, workers", [(0.0, 2), (-1.0, 2), (1.0, 0)])
    def test_rejects_degenerate(self, wall, workers):
        with pytest.raises(ValueError):
            stats.parallel_efficiency(1.0, wall, workers)


class _Target:
    def work(self, n):
        return list(range(n))


class TestSpanRecorder:
    def test_wrap_records_and_restores(self):
        recorder = SpanRecorder("r")
        original = _Target.__dict__["work"]
        with recorder.wrap(_Target, "work", "t.work",
                           items=lambda args, result: len(result)):
            with recorder.span("root"):
                assert _Target().work(3) == [0, 1, 2]
                _Target().work(5)
        assert _Target.__dict__["work"] is original
        root, first, second = recorder.spans
        assert (root.parent, first.parent, second.parent) == (-1, 0, 0)
        assert (first.items, second.items) == (3, 5)
        assert first.start <= first.end <= second.start <= root.end
        assert sum(stats.self_times(recorder.spans)) == pytest.approx(
            root.end - root.start)

    def test_wrap_restores_after_an_exception(self):
        recorder = SpanRecorder("r")
        original = _Target.__dict__["work"]
        with pytest.raises(TypeError):
            with recorder.wrap(_Target, "work", "t.work"):
                _Target().work("x")
        assert _Target.__dict__["work"] is original
        assert recorder.spans[0].end >= recorder.spans[0].start

    def test_null_recorder_span_is_a_no_op(self):
        with NullRecorder().span("x") as span:
            assert span is None


class TestCalibration:
    def test_scaled_uses_the_mean_of_both_calibrations(self):
        ref = calibration.REFERENCE_CALIBRATION_S
        assert calibration.scaled(2.0, ref, ref) == pytest.approx(2.0)
        assert calibration.scaled(2.0, ref, 3 * ref) == pytest.approx(1.0)

    def test_sampler_samples_until_the_block_ends(self):
        with calibration.Sampler() as sampler:
            pass            # even an instant block gets one sample
        assert not sampler._thread.is_alive()
        assert len(sampler._samples) >= 1
        assert sampler.calibration_s() > 0
