"""Thread → core placement model.

The controller estimates a vCPU's virtual frequency from the frequency of
the core the thread *last ran on* (``/proc/<tid>/stat`` field 39).  The
paper's §III-B1 assumption is that heavily loaded threads migrate rarely
while lightly loaded threads move often — and that under load all cores
run at about the same frequency, so occasional stale locations are
harmless.  This model reproduces exactly that: sticky placement for busy
threads, frequent rebalancing for idle ones, deterministic via a seeded
RNG.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: Threads above this utilisation are considered "busy" and sticky.
BUSY_THRESHOLD: float = 0.5

#: Per-tick migration probability for busy / idle threads.
BUSY_MIGRATION_P: float = 0.02
IDLE_MIGRATION_P: float = 0.5


class AffinityModel:
    """Tracks which core each thread last ran on.

    Per-tick work is plain Python over the host's threads and cores: at
    4-64 cores a NumPy call's fixed cost outweighs its arithmetic.  The
    RNG draws are whole-tick vectors, and only a tick with an overloaded
    core takes array arithmetic, whose overflow and headroom totals must
    stay NumPy sums (pairwise from eight values up).
    """

    def __init__(self, num_cpus: int, seed: int = 0) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        self.num_cpus = num_cpus
        self._rng = np.random.default_rng(seed)
        self._placement: Dict[int, int] = {}

    def forget(self, tid: int) -> None:
        self._placement.pop(tid, None)

    def step(self, tids: Sequence[int], utilisations: Sequence[float], dt: float) -> List[int]:
        """Advance placement one tick; returns the (new) core per thread.

        ``utilisations`` are per-thread fractions of one core consumed in
        the elapsed tick.  Migration probabilities are scaled by ``dt`` so
        the model is tick-size independent.  A thread seen for the first
        time takes its drawn core.
        """
        n = len(tids)
        if n != len(utilisations):
            raise ValueError("tids and utilisations length mismatch")
        scale = min(dt, 1.0)
        p_busy = BUSY_MIGRATION_P * scale
        p_idle = IDLE_MIGRATION_P * scale
        draws = self._rng.random(n).tolist()
        targets = self._rng.integers(self.num_cpus, size=n).tolist()
        placement = self._placement
        cores: List[int] = []
        for tid, u, r, core in zip(tids, utilisations, draws, targets):
            if r < (p_busy if u >= BUSY_THRESHOLD else p_idle) or tid not in placement:
                placement[tid] = core
            else:
                core = placement[tid]
            cores.append(core)
        return cores

    def load_per_core(self, cores: Sequence[int], utilisations: Sequence[float]) -> List[float]:
        """Aggregate thread utilisation onto cores (for the DVFS model).

        ``cores`` are the threads' placements as :meth:`step` returned
        them, in the same order as ``utilisations``.  CFS load-balances
        continuously, so in addition to the discrete placement we spread
        each thread's load over its core with any overflow shared evenly
        — giving smooth per-core utilisation that still correlates with
        placement.
        """
        if len(cores) != len(utilisations):
            raise ValueError("cores and utilisations length mismatch")
        load = [0.0] * self.num_cpus
        for core, u in zip(cores, utilisations):
            load[core] += u
        if max(load) <= 1.0 and min(load) >= 0.0:
            return load  # nothing to shave: the overflow is exactly 0
        # Kernel load balancing: shave overload above 1.0 and spread it.
        # (np.add.reduce is the pairwise sum np.sum runs, minus its wrapper.)
        clipped = np.array(load)
        excess = clipped - 1.0
        np.maximum(excess, 0.0, out=excess)
        np.minimum(clipped, 1.0, out=clipped)
        np.maximum(clipped, 0.0, out=clipped)
        headroom = 1.0 - clipped
        overflow = np.add.reduce(excess)
        total_headroom = np.add.reduce(headroom)
        if overflow > 0 and total_headroom > 0:
            headroom *= min(1.0, overflow / total_headroom)
            clipped += headroom
        return clipped.tolist()
