"""Unit tests for the thread->core affinity model."""

import numpy as np
import pytest

from repro.sched.affinity import AffinityModel


class TestPlacement:
    def test_deterministic_given_seed(self):
        a = AffinityModel(8, seed=3)
        b = AffinityModel(8, seed=3)
        tids = list(range(10))
        utils = [1.0] * 10
        for _ in range(5):
            assert a.step(tids, utils, 1.0) == b.step(tids, utils, 1.0)

    def test_cores_in_range(self):
        a = AffinityModel(4, seed=0)
        cores = a.step(list(range(20)), [0.0] * 20, 1.0)
        assert all(0 <= c < 4 for c in cores)

    def test_busy_threads_migrate_less(self):
        a = AffinityModel(16, seed=5)
        tids = list(range(200))
        busy = [1.0] * 200
        idle = [0.0] * 200
        before = a.step(tids, busy, 1.0)
        after = a.step(tids, busy, 1.0)
        busy_moves = sum(1 for c, d in zip(before, after) if c != d)

        b = AffinityModel(16, seed=5)
        before = b.step(tids, idle, 1.0)
        after = b.step(tids, idle, 1.0)
        idle_moves = sum(1 for c, d in zip(before, after) if c != d)
        assert busy_moves < idle_moves

    def test_forget_reassigns(self):
        a = AffinityModel(1024, seed=9)
        first = a.step([1, 2], [1.0, 1.0], 1.0)
        a.forget(1)
        # dt = 0 allows no migration, so only the forgotten thread is re-placed
        again = a.step([1, 2], [1.0, 1.0], 0.0)
        assert again[1] == first[1]
        assert 0 <= again[0] < 1024

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AffinityModel(2).step([1, 2], [0.5], 1.0)
        with pytest.raises(ValueError):
            AffinityModel(2).load_per_core([0, 1], [0.5])

    def test_invalid_cpu_count(self):
        with pytest.raises(ValueError):
            AffinityModel(0)


class TestLoadPerCore:
    def test_conserves_total_load(self):
        a = AffinityModel(4, seed=2)
        tids = list(range(8))
        utils = [0.5] * 8
        load = a.load_per_core(a.step(tids, utils, 1.0), utils)
        assert sum(load) == pytest.approx(4.0, rel=0.01)

    def test_clipped_to_unit_interval(self):
        a = AffinityModel(2, seed=2)
        utils = [1.0] * 10
        load = np.asarray(a.load_per_core(a.step(list(range(10)), utils, 1.0), utils))
        assert np.all(load <= 1.0 + 1e-9)
        assert np.all(load >= 0.0)

    def test_saturated_node_all_cores_full(self):
        a = AffinityModel(4, seed=2)
        utils = [1.0] * 16
        load = a.load_per_core(a.step(list(range(16)), utils, 1.0), utils)
        assert np.allclose(load, 1.0)
