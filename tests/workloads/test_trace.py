"""Tests for demand-trace replay."""

import numpy as np
import pytest

from repro.workloads.synthetic import SineWorkload
from repro.workloads.trace import TraceWorkload


class TestReplay:
    def _trace(self):
        return TraceWorkload(
            1,
            times=[0.0, 10.0, 20.0],
            demands=np.array([[0.1], [0.5], [0.9]]),
        )

    def test_zero_order_hold(self):
        w = self._trace()
        assert w.demand(0, 0.0) == 0.1
        assert w.demand(0, 9.99) == 0.1
        assert w.demand(0, 10.0) == 0.5
        assert w.demand(0, 25.0) == 0.9  # holds last value

    def test_loop_mode_wraps(self):
        w = TraceWorkload(
            1,
            times=[0.0, 10.0, 20.0],
            demands=np.array([[0.1], [0.5], [0.9]]),
            loop=True,
        )
        assert w.demand(0, 21.0) == pytest.approx(0.1)
        assert w.demand(0, 31.0) == pytest.approx(0.5)

    def test_replays_a_sampled_workload(self):
        src = SineWorkload(1, period=40.0)
        ts = np.arange(0.0, 40.0, 1.0)
        replay = TraceWorkload(
            1, times=ts, demands=np.array([[src.demand(0, float(t))] for t in ts])
        )
        for t in ts:
            assert replay.demand(0, float(t)) == pytest.approx(src.demand(0, float(t)))

    def test_start_time_shift(self):
        w = TraceWorkload(
            1, times=[0.0, 10.0], demands=np.array([[0.2], [0.8]]), start_time=100.0
        )
        assert w.demand(0, 50.0) == 0.0
        assert w.demand(0, 100.0) == 0.2
        assert w.demand(0, 110.0) == 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceWorkload(1, times=[], demands=np.zeros((0, 1)))
        with pytest.raises(ValueError):
            TraceWorkload(1, times=[0.0, 0.0], demands=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            TraceWorkload(1, times=[0.0], demands=np.array([[1.5]]))
        with pytest.raises(ValueError):
            TraceWorkload(2, times=[0.0], demands=np.array([[0.5]]))
        with pytest.raises(IndexError):
            self._trace().demand(3, 0.0)
