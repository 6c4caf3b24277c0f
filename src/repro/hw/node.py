"""A physical machine: cores + kernel surfaces wired together.

A :class:`Node` owns everything a real host would expose to the paper's
controller — a cgroup filesystem, /proc, cpufreq sysfs — plus the models
behind them (CFS scheduler, DVFS, affinity, energy).  The simulation
engine pushes workload demand into scheduling entities and calls
:meth:`Node.step`; the controller only ever reads/writes the ``fs``,
``procfs`` and ``sysfs`` surfaces, exactly as on a real machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.cgroups.procfs import ProcFS
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.hw.cpu import DvfsModel
from repro.hw.energy import EnergyMeter, PowerModel
from repro.hw.nodespecs import NodeSpec
from repro.sched.affinity import AffinityModel
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity

#: KVM/libvirt machine slice where VM cgroups live.
MACHINE_SLICE = "/machine.slice"


class Node:
    """One simulated physical machine."""

    def __init__(
        self,
        spec: NodeSpec,
        *,
        cgroup_version: CgroupVersion = CgroupVersion.V2,
        seed: int = 0,
        cache: "Optional[object]" = None,
    ) -> None:
        self.spec = spec
        #: Optional LLC contention model (repro.hw.cache); None disables it.
        self.cache = cache
        self.runnable_threads: int = 0
        self.fs = CgroupFS(cgroup_version)
        self.fs.makedirs(MACHINE_SLICE)
        self.procfs = ProcFS()
        self.dvfs = DvfsModel(
            num_cpus=spec.logical_cpus,
            fmax_mhz=spec.fmax_mhz,
            fmin_mhz=spec.fmin_mhz,
            jitter_mhz=spec.freq_jitter_mhz,
            seed=seed,
            domain_size=spec.freq_domain_size,
        )
        self.sysfs = CpuFreqSysFS(
            freqs_khz=self.dvfs.freqs_khz(),
            min_khz=spec.fmin_mhz * 1000.0,
            max_khz=spec.fmax_mhz * 1000.0,
        )
        self.affinity = AffinityModel(spec.logical_cpus, seed=seed + 1)
        self.scheduler = CfsScheduler(self.fs, spec.logical_cpus)
        self.energy = EnergyMeter(PowerModel.for_spec(spec))
        self.clock_s: float = 0.0
        self._entities: Dict[int, SchedEntity] = {}
        #: The thread rows of the last step's tids, and the /proc, its
        #: generation and the tids they were looked up for.
        self._thread_rows: Optional[np.ndarray] = None
        self._thread_key: Tuple[object, int, List[int]] = (None, -1, [])

    # -- entity registry (populated by the hypervisor) ---------------------------

    def register_entity(self, entity: SchedEntity) -> None:
        if entity.tid in self._entities:
            raise ValueError(f"tid {entity.tid} already registered")
        self._entities[entity.tid] = entity

    def unregister_entity(self, tid: int) -> None:
        self._entities.pop(tid, None)
        self.affinity.forget(tid)

    def entity(self, tid: int) -> SchedEntity:
        return self._entities[tid]

    @property
    def entities(self) -> List[SchedEntity]:
        return list(self._entities.values())

    # -- simulation ---------------------------------------------------------------

    def step(self, dt: float) -> None:
        """Advance the machine by ``dt`` wall-seconds.

        Entity demands must have been set by the workload layer before
        the call; on return every entity's ``allocated`` holds the CPU
        time it received, every cgroup's ``cpu.stat`` is charged, the
        /proc and cpufreq surfaces are refreshed, and the energy meter
        has integrated the interval.  Threads are accounted with one
        scatter into the /proc thread columns.  The scheduler reuses its
        compiled cgroup plan unless a cgroup was created or removed or an
        entity registered, unregistered or moved since the last step.
        """
        entities = self.entities
        self.scheduler.schedule(entities, dt)

        runnable = 0
        tids: List[int] = []
        allocated: List[float] = []
        for ent in entities:
            if ent.demand > 0.05:
                runnable += 1
            tids.append(ent.tid)
            allocated.append(ent.allocated)
        self.runnable_threads = runnable
        utils = [a / dt for a in allocated]

        cores = self.affinity.step(tids, utils, dt)
        procfs = self.procfs
        key = (procfs, procfs.generation, tids)
        if key != self._thread_key:
            self._thread_rows = procfs.rows(tids)
            self._thread_key = key
        procfs.threads.account(
            self._thread_rows, np.array(allocated), np.array(cores, dtype=np.int64)
        )

        core_load = self.affinity.load_per_core(cores, utils)
        self.dvfs.step(core_load, dt)
        self.sysfs.update(self.dvfs.freqs_khz())

        # np.mean's own reduction and division, without its wrapper.
        node_util = float(np.add.reduce(core_load)) / len(core_load)
        self.energy.step(node_util, self.dvfs.mean_mhz(), dt)
        self.clock_s += dt

    # -- controller-facing helpers ---------------------------------------------------

    def core_frequency_mhz(self, core: int) -> float:
        """Frequency of one core in MHz (reads through sysfs like the controller)."""
        return self.sysfs.scaling_cur_freq(core) / 1000.0

    def last_core_of(self, tid: int) -> int:
        """Core a thread last ran on (reads through /proc like the controller)."""
        procfs = self.procfs
        return int(procfs.threads.processor[procfs.row(tid)])

    def effective_mhz(self, freq_mhz: float) -> float:
        """Work-rate at ``freq_mhz`` after LLC contention (if modelled).

        Cache pressure slows instruction throughput, not the clock — the
        controller's frequency estimate is deliberately unaffected.
        """
        if self.cache is None:
            return freq_mhz
        return self.cache.effective_mhz(freq_mhz, self.runnable_threads)
