"""The NumPy host-substrate models, kept for differential tests.

These are the array formulations of the per-tick host models: the DVFS
governor (:class:`DvfsModel`), thread placement (:class:`AffinityModel`),
the two-call ``/proc`` update (:class:`ReferenceProcFS`) and the tail of
``Node.step`` that wires them together (:func:`node_step`).  They are
the readable statement of what :mod:`repro.hw.cpu`,
:mod:`repro.sched.affinity`, :mod:`repro.cgroups.procfs` and
:meth:`repro.hw.node.Node.step` compute with plain floats; the two must
agree bit for bit, RNG draws included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cgroups.procfs import USER_HZ, ProcFS
from repro.hw.cpu import GOVERNOR_HEADROOM, TRACKING_RATE
from repro.sched.affinity import BUSY_MIGRATION_P, BUSY_THRESHOLD, IDLE_MIGRATION_P


class DvfsModel:
    """Vectorised frequency dynamics for all cores of one node."""

    def __init__(
        self,
        num_cpus: int,
        fmax_mhz: float,
        fmin_mhz: float,
        jitter_mhz: float = 0.0,
        seed: int = 0,
        domain_size: int = 1,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        if not 0 < fmin_mhz <= fmax_mhz:
            raise ValueError("need 0 < fmin <= fmax")
        if jitter_mhz < 0:
            raise ValueError("jitter must be >= 0")
        if domain_size <= 0 or num_cpus % domain_size != 0:
            raise ValueError(
                f"domain_size must divide num_cpus ({num_cpus}), got {domain_size}"
            )
        self.num_cpus = num_cpus
        self.fmax_mhz = fmax_mhz
        self.fmin_mhz = fmin_mhz
        self.jitter_mhz = jitter_mhz
        self.domain_size = domain_size
        self._rng = np.random.default_rng(seed)
        self._freqs = np.full(num_cpus, fmin_mhz, dtype=np.float64)

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Current per-core frequencies (read-only view)."""
        view = self._freqs.view()
        view.flags.writeable = False
        return view

    def freqs_khz(self) -> np.ndarray:
        return self.freqs_mhz * 1000.0

    def step(self, core_utilisation: Sequence[float], dt: float) -> np.ndarray:
        """Advance one tick given per-core utilisation in [0, 1]."""
        util = np.asarray(core_utilisation, dtype=np.float64)
        if util.shape != (self.num_cpus,):
            raise ValueError(
                f"expected {self.num_cpus} utilisations, got shape {util.shape}"
            )
        if np.any(util < -1e-9) or np.any(util > 1.0 + 1e-9):
            raise ValueError("core utilisation must be within [0, 1]")
        util = np.clip(util, 0.0, 1.0)
        if self.domain_size > 1:
            # Cores in one DVFS domain share a clock; the governor picks
            # the domain frequency for its *hottest* core (as Zen does
            # per CCX), so a single busy core drags its siblings up.
            domains = util.reshape(-1, self.domain_size)
            util = np.repeat(domains.max(axis=1), self.domain_size)
        target = np.clip(
            GOVERNOR_HEADROOM * self.fmax_mhz * util, self.fmin_mhz, self.fmax_mhz
        )
        alpha = 1.0 - np.exp(-TRACKING_RATE * dt)
        self._freqs += alpha * (target - self._freqs)
        if self.jitter_mhz > 0:
            n_domains = self.num_cpus // self.domain_size
            noise = np.repeat(
                self._rng.normal(0.0, self.jitter_mhz, n_domains), self.domain_size
            )
            self._freqs = np.clip(
                self._freqs + noise * np.sqrt(min(dt, 1.0)),
                self.fmin_mhz,
                self.fmax_mhz,
            )
        return self.freqs_mhz

    def mean_mhz(self) -> float:
        return float(self._freqs.mean())

    def std_mhz(self) -> float:
        """Cross-core frequency spread (the paper's 'average variance')."""
        return float(self._freqs.std())


class AffinityModel:
    """Tracks which core each thread last ran on."""

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
        the model is tick-size independent.
        """
        if len(tids) != len(utilisations):
            raise ValueError("tids and utilisations length mismatch")
        cores: List[int] = []
        util = np.asarray(utilisations, dtype=np.float64)
        busy = util >= BUSY_THRESHOLD
        p_move = np.where(busy, BUSY_MIGRATION_P, IDLE_MIGRATION_P) * min(dt, 1.0)
        moves = self._rng.random(len(tids)) < p_move
        targets = self._rng.integers(self.num_cpus, size=len(tids))
        for tid, mv, target in zip(tids, moves, targets):
            if mv or tid not in self._placement:
                self._placement[tid] = int(target)
            cores.append(self._placement[tid])
        return cores

    def load_per_core(self, cores: Sequence[int], utilisations: Sequence[float]) -> np.ndarray:
        """Aggregate thread utilisation onto cores (for the DVFS model).

        ``cores`` are the threads' placements as :meth:`step` returned
        them, in the same order as ``utilisations``.  CFS load-balances
        continuously, so in addition to the discrete placement we spread
        each thread's load over its core with any overflow shared evenly
        — giving smooth per-core utilisation that still correlates with
        placement.
        """
        load = np.zeros(self.num_cpus)
        np.add.at(load, np.asarray(cores, dtype=np.intp), np.asarray(utilisations, dtype=np.float64))
        # Kernel load balancing: shave overload above 1.0 and spread it.
        overflow = np.clip(load - 1.0, 0.0, None).sum()
        load = np.clip(load, 0.0, 1.0)
        headroom = 1.0 - load
        total_headroom = headroom.sum()
        if overflow > 0 and total_headroom > 0:
            load += headroom * min(1.0, overflow / total_headroom)
        return load


class ReferenceProcFS(ProcFS):
    """``ProcFS`` with the two separate per-thread updates, one Python
    call per thread (``ThreadColumns.account`` is the array form)."""

    def set_processor(self, tid: int, core: int) -> None:
        self.threads.processor[self.row(tid)] = core

    def charge(self, tid: int, cpu_seconds: float) -> None:
        """Account CPU time to the thread's utime (in USER_HZ ticks)."""
        if cpu_seconds < 0:
            raise ValueError("negative CPU time")
        self.threads.utime[self.row(tid)] += int(round(cpu_seconds * USER_HZ))


def reference_node(spec, seed: int = 0):
    """A :class:`repro.hw.node.Node` built on this module's models, for
    :func:`node_step`; it draws the same RNG streams as ``Node(spec, seed)``."""
    from repro.hw.node import Node

    node = Node(spec, seed=seed)
    node.procfs = ReferenceProcFS()
    node.dvfs = DvfsModel(
        num_cpus=spec.logical_cpus,
        fmax_mhz=spec.fmax_mhz,
        fmin_mhz=spec.fmin_mhz,
        jitter_mhz=spec.freq_jitter_mhz,
        seed=seed,
        domain_size=spec.freq_domain_size,
    )
    node.affinity = AffinityModel(spec.logical_cpus, seed=seed + 1)
    return node


def node_step(node, dt: float) -> np.ndarray:
    """``Node.step`` over the models above; returns the per-core load.

    ``node`` is a :class:`repro.hw.node.Node` whose ``procfs``,
    ``affinity`` and ``dvfs`` are this module's classes.
    """
    entities = node.entities
    node.runnable_threads = sum(1 for e in entities if e.demand > 0.05)
    node.scheduler.schedule(entities, dt)

    tids = [e.tid for e in entities]
    utils = [e.allocated / dt for e in entities]
    for ent in entities:
        node.procfs.charge(ent.tid, ent.allocated)
    cores = node.affinity.step(tids, utils, dt)
    for tid, core in zip(tids, cores):
        node.procfs.set_processor(tid, core)

    core_load = node.affinity.load_per_core(cores, utils)
    node.dvfs.step(core_load, dt)
    node.sysfs.update(node.dvfs.freqs_khz())

    node_util = float(np.mean(core_load)) if len(core_load) else 0.0
    node.energy.step(node_util, node.dvfs.mean_mhz(), dt)
    node.clock_s += dt
    return core_load
