"""Batched host-backend I/O layer — all kernel-surface traffic for one node.

The paper reports that ~4 ms of the 5 ms iteration cost is *monitoring*
(§IV-A2): per-vCPU ``cpu.stat``, ``/proc/<tid>/stat`` and
``scaling_cur_freq`` reads dominate the loop.  The seed port repeated
that pattern — one filesystem call per file per tick, a fresh directory
walk every iteration, and an unconditional ``cpu.max`` write per vCPU
(kept as the test reference ``tests/core/backend_reference.py``).

:class:`HostBackend` owns every read and write the controller issues
against one node's kernel surfaces and batches them.  It keeps one
tid→cgroup topology, in full-walk order: per vCPU its path, VM, tid,
cgroup node and column row.  Both read routes read it, and both check
its liveness one way (the tree generation, then node identity), so a
cgroup recreated under the same name is re-walked by either.

* :meth:`sample_all` — stage 1 of both engines: one
  :class:`SampleBatch` of NumPy columns in the topology's slot order
  (shared with :class:`~repro.core.soa.VcpuTable`).  The fast route
  reads usage and last core as slices of the host's cgroup and thread
  columns by the topology's rows — the simulated equivalent of an
  io_uring-batched read — on a v1 or v2 hierarchy alike.  VM churn
  does not cost it a full walk: the topology is patched, walking only
  the VMs that are new or recreated (one ``readdir`` plus one
  ``cgroup.threads`` read per vCPU) and dropping the departed VMs'.
* the per-file scan that :meth:`sample_all` falls back to for
  discovery, teardown races and armed fault plans (faults inject at the
  per-file seam, which the fast route would bypass).  After one full
  walk, a scan costs one ``readdir`` of the machine slice (the churn
  guard), one ``cpu.stat`` read and one ``/proc/<tid>/stat`` read per
  vCPU, and one ``scaling_cur_freq`` read per *distinct core*.  On VM
  churn (a changed VM set, a recreated cgroup, or a teardown race
  observed mid-scan) it re-walks every VM.
* :meth:`write_caps` — the one cap-write pass for both engines:
  coalesced ``cpu.max`` (v1: quota/period) writes over parallel
  path/quota columns that skip values already in place, so a converged
  controller writes nothing at all.  An optional dirty mask lets the
  bulk engine hand over only the rows whose quota changed.  Unless a
  fault plan is armed, the quotas go straight into the cgroup quota
  column (:mod:`repro.cgroups.columns`) by the topology's rows.
* cumulative syscall-count stats (:attr:`HostBackend.stats`) so the
  saving is measurable, not asserted.

The sample *values* are the same on every route: caching only removes
re-reads of immutable data (a vCPU cgroup's single KVM tid) and
duplicate reads of the same core's frequency within one batch, and v1
``cpuacct.usage`` renders the same usage column in ns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cgroups.cpu import parse_cpu_stat
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.cgroups.procfs import ProcFS, parse_stat_line
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.core.units import period_us

#: Default KVM/libvirt machine slice (mirrors repro.hw.node.MACHINE_SLICE
#: without importing the hw layer from core).
DEFAULT_MACHINE_SLICE = "/machine.slice"


@dataclass(frozen=True)
class VCpuSample:
    """Stage-1 output for one vCPU at one controller iteration."""

    vm_name: str
    vcpu_index: int
    cgroup_path: str
    tid: int
    consumed_cycles: float  # u_{i,j,t}: µs of CPU in the last period
    core: int
    core_freq_mhz: float
    vfreq_mhz: float  # estimated virtual frequency


@dataclass(frozen=True)
class VCpuSlot:
    """One vCPU of the cached topology: ``node`` is its cgroup as
    discovered (``node.parent`` the VM's) and ``row`` its column row."""

    vm_name: str
    vcpu_index: int
    cgroup_path: str
    tid: int
    node: Any
    row: int


class _Topology:
    """The one tid→cgroup map both stage-1 routes read: ``slots`` in
    full-walk order and the columns built from them.

    ``vms`` is the machine-slice listing it was built for (``None`` once
    invalidated), ``gen`` the tree generation its nodes were last seen
    live at, and ``paths`` the one list object every batch hands out.
    """

    __slots__ = (
        "vms", "slots", "gen", "paths", "vm_names", "rows", "row_of",
        "vcpu_idx", "tids", "thread_rows", "proc_gen", "prev",
    )

    def __init__(self, vms: List[str], slots: List[VCpuSlot], gen: int) -> None:
        self.vms: Optional[List[str]] = vms
        self.slots = slots
        self.gen = gen
        self.paths = [s.cgroup_path for s in slots]
        self.vm_names = [s.vm_name for s in slots]
        rows = [s.row for s in slots]
        self.rows = np.array(rows, dtype=np.intp)
        self.row_of = dict(zip(self.paths, rows))
        self.vcpu_idx = np.array([s.vcpu_index for s in slots], dtype=np.int64)
        self.tids = np.array([s.tid for s in slots], dtype=np.int64)
        #: Thread rows, looked up at the /proc generation ``proc_gen``.
        self.thread_rows: Optional[np.ndarray] = None
        self.proc_gen = -1
        #: Usage baselines per slot (NaN: none), gathered from
        #: ``HostBackend._prev_usage`` by the fast route's first read;
        #: until then (the scan walked it) the topology is no patch base.
        self.prev: Optional[np.ndarray] = None


@dataclass
class SampleBatch:
    """One monitoring pass as parallel NumPy columns (bulk stage 1).

    Rows follow the backend's cached topology order and stay stable
    tick over tick while the VM set is unchanged — ``paths`` is the
    *same list object* across such ticks, so callers may key caches on
    its identity.  The fast path and the per-file scan give
    bit-identical values on the same node state (proved by the bulk
    parity tests).
    """

    period_s: float
    paths: List[str]
    vm_names: List[str]
    vcpu_indices: np.ndarray  # int64
    tids: np.ndarray  # int64
    consumed: np.ndarray  # float64, u_{i,j,t} µs over the period
    cores: np.ndarray  # int64
    core_freq_mhz: np.ndarray  # float64
    vfreq_mhz: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.paths)

    def to_samples(self, indices: Optional[Sequence[int]] = None) -> List[VCpuSample]:
        """Materialise (a subset of) the batch as VCpuSample objects."""
        rows = range(len(self.paths)) if indices is None else indices
        return [
            VCpuSample(
                vm_name=self.vm_names[i],
                vcpu_index=int(self.vcpu_indices[i]),
                cgroup_path=self.paths[i],
                tid=int(self.tids[i]),
                consumed_cycles=float(self.consumed[i]),
                core=int(self.cores[i]),
                core_freq_mhz=float(self.core_freq_mhz[i]),
                vfreq_mhz=float(self.vfreq_mhz[i]),
            )
            for i in rows
        ]

    @classmethod
    def from_samples(
        cls, samples: Sequence[VCpuSample], period_s: float
    ) -> "SampleBatch":
        n = len(samples)
        return cls(
            period_s=period_s,
            paths=[s.cgroup_path for s in samples],
            vm_names=[s.vm_name for s in samples],
            vcpu_indices=np.fromiter(
                (s.vcpu_index for s in samples), dtype=np.int64, count=n
            ),
            tids=np.fromiter((s.tid for s in samples), dtype=np.int64, count=n),
            consumed=np.fromiter(
                (s.consumed_cycles for s in samples), dtype=np.float64, count=n
            ),
            cores=np.fromiter((s.core for s in samples), dtype=np.int64, count=n),
            core_freq_mhz=np.fromiter(
                (s.core_freq_mhz for s in samples), dtype=np.float64, count=n
            ),
            vfreq_mhz=np.fromiter(
                (s.vfreq_mhz for s in samples), dtype=np.float64, count=n
            ),
        )


@dataclass
class BackendStats:
    """Cumulative kernel-surface operation counters for one backend.

    Each field counts one class of would-be syscalls on a real host:
    a cgroupfs ``read()``/``write()``/``readdir()``, a ``/proc`` stat
    read, or a cpufreq sysfs read.  ``cap_writes_skipped`` counts
    ``cpu.max`` writes elided because the value was already in place;
    ``topology_rescans`` counts full directory walks.
    """

    fs_reads: int = 0
    fs_writes: int = 0
    fs_listdirs: int = 0
    proc_reads: int = 0
    sysfs_reads: int = 0
    cap_writes_skipped: int = 0
    topology_rescans: int = 0
    #: vCPUs skipped mid-scan (gone cgroup, dead tid, or — in tolerant
    #: mode — a transient read error on one of its files).
    vcpu_skips: int = 0
    #: Whole VM directories that vanished between readdir and descent.
    vm_skips: int = 0
    #: Transient read errors absorbed in tolerant mode (EIO and kin).
    read_errors: int = 0
    #: ``cpu.max`` writes that failed with a non-ENOENT error
    #: (recorded in :attr:`HostBackend.last_write_errors`).
    write_errors: int = 0

    @property
    def total_ops(self) -> int:
        """All filesystem operations actually issued (skips excluded)."""
        return (
            self.fs_reads
            + self.fs_writes
            + self.fs_listdirs
            + self.proc_reads
            + self.sysfs_reads
        )

    def copy(self) -> "BackendStats":
        return BackendStats(**self.as_dict())

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __sub__(self, other: "BackendStats") -> "BackendStats":
        return BackendStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __add__(self, other: "BackendStats") -> "BackendStats":
        return BackendStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )


def vm_component(path: str, machine_slice: str = DEFAULT_MACHINE_SLICE) -> Optional[str]:
    """The VM directory component of a vCPU cgroup path.

    ``/machine.slice/vm-1/vcpu0`` → ``vm-1``;
    ``/machine.slice/foo/vm-1/vcpu0`` → ``foo`` (NOT ``vm-1`` — exact
    component matching is what fixes the old substring-based
    ``unregister_vm``).  Returns ``None`` for paths outside the slice.
    """
    prefix = machine_slice.rstrip("/") + "/"
    if not path.startswith(prefix):
        return None
    rest = path[len(prefix):]
    return rest.split("/", 1)[0] if rest else None


class HostBackend:
    """Batched, counted access to one node's kernel surfaces.

    ``procfs``/``sysfs`` may be ``None`` for write-only users (cap
    writes alone); monitoring through such a backend raises.
    """

    def __init__(
        self,
        fs: CgroupFS,
        procfs: Optional[ProcFS] = None,
        sysfs: Optional[CpuFreqSysFS] = None,
        *,
        machine_slice: str = DEFAULT_MACHINE_SLICE,
    ) -> None:
        self.fs = fs
        self.procfs = procfs
        self.sysfs = sysfs
        self.machine_slice = machine_slice
        #: Absorb transient kernel-surface errors (EIO/EBUSY) instead of
        #: raising out of the batch: failed sample reads skip the vCPU,
        #: failed cap writes land in :attr:`last_write_errors`.  Off by
        #: default — the seed behaviour is fail-fast — and switched on
        #: by a controller running with a
        #: :class:`~repro.core.resilience.ResiliencePolicy`.
        self.tolerate_errors = False
        self.stats = BackendStats()
        #: Per-path errors of the latest :meth:`write_caps` batch
        #: (tolerant mode only; vanished cgroups are not errors).
        self.last_write_errors: Dict[str, OSError] = {}
        #: The cached tid→cgroup map; ``None`` until a walk completes.
        self._topology: Optional[_Topology] = None
        #: The paths list of the latest scan batch.
        self._scan_paths: List[str] = []
        self._usage_base: Dict[str, float] = {}
        #: ``(paths, usage)`` of the latest fast-path batch, not yet
        #: folded into ``_usage_base`` (see :attr:`_prev_usage`).
        self._pending_usage: Optional[Tuple[List[str], np.ndarray]] = None
        self._last_cap: Dict[str, Tuple[int, int]] = {}
        #: The cgroup node each vCPU path named when it was last
        #: discovered; kept across topologies (and VM departures) so a
        #: path that comes back on a new cgroup is recognised.
        self._cgroup_of: Dict[str, Any] = {}
        #: Paths whose quota record the latest :meth:`sample_all` dropped
        #: because a new cgroup was found behind them (see
        #: :meth:`_check_cgroup`).
        self.recreated: List[str] = []

    # -- counted primitives -----------------------------------------------------

    def read_file(self, path: str) -> str:
        self.stats.fs_reads += 1
        return self.fs.read(path)

    def write_file(self, path: str, content: str) -> None:
        self.stats.fs_writes += 1
        self.fs.write(path, content)

    def listdir(self, path: str) -> List[str]:
        self.stats.fs_listdirs += 1
        return self.fs.listdir(path)

    def read_thread_stat(self, tid: int) -> str:
        self.stats.proc_reads += 1
        return self.procfs.read_stat(tid)

    def core_freq_khz(self, core: int) -> int:
        self.stats.sysfs_reads += 1
        return self.sysfs.scaling_cur_freq(core)

    @property
    def _prev_usage(self) -> Dict[str, float]:
        """Per-path usage baselines (``cpu.stat`` ``usage_usec``).

        The fast route keeps its baselines as a column and leaves the
        latest one pending; it is folded in here, the one way every
        dict reader (the per-file scan, a new topology's first fast
        read, ``forget``, snapshots, controller reset) reaches the
        baselines.
        """
        pending = self._pending_usage
        if pending is not None:
            self._pending_usage = None
            paths, usage = pending
            self._usage_base.update(zip(paths, usage.tolist()))
        return self._usage_base

    # -- topology cache ---------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the cached tid→cgroup map stale (call on VM churn).

        The per-file scan re-walks every VM on its next pass.  The fast
        route patches a map it has read instead: VMs whose cgroups are
        unchanged keep their slots, and only new or recreated VMs are
        walked.
        """
        topo = self._topology
        if topo is None or topo.prev is None:
            # Not read by the fast route yet: no base to patch from.
            self._topology = None
        else:
            topo.vms = None

    def forget_usage(self, vcpu_path: str) -> None:
        """Drop the usage baseline for a vCPU cgroup.

        The cgroup may still exist (the caller is only resetting its
        monitoring state), so the topology is marked stale rather than
        edited — the next sample rediscovers whatever is actually on
        disk, and a surviving row reads "no previous sample" (0
        consumed), exactly as after a full walk.
        """
        self._prev_usage.pop(vcpu_path, None)
        self.invalidate()

    def forget_vcpu(self, vcpu_path: str) -> None:
        """Drop all cached state (usage baseline + cap) for a vCPU."""
        self.forget_usage(vcpu_path)
        self._last_cap.pop(vcpu_path, None)
        self._cgroup_of.pop(vcpu_path, None)

    def _stale_vms(self, topo: _Topology) -> Set[str]:
        """The VMs of ``topo`` with a vCPU cgroup removed or replaced
        since discovery: the liveness rule of both routes.

        Free while no cgroup was created or removed since ``topo`` was
        last seen live; otherwise one node-identity check per slot,
        through the uncounted lookup :meth:`_check_cgroup` makes.
        """
        generation = self.fs.root.generation
        if topo.gen == generation:
            return set()
        try:
            vm_nodes = self.fs.node(self.machine_slice).children
        except FileNotFoundError:
            vm_nodes = {}
        stale = {
            s.vm_name
            for s in topo.slots
            if vm_nodes.get(s.vm_name) is not s.node.parent
            or s.node.parent.children.get(s.node.name) is not s.node
        }
        if not stale:
            topo.gen = generation
        return stale

    def _patch(self, topo: _Topology, vm_names: List[str]) -> Optional[_Topology]:
        """The fast route's discovery: re-point ``topo`` at the listing
        ``vm_names`` and cache the result.

        A listed VM whose cgroups are all still ``topo``'s nodes keeps
        its slots; every other listed VM (new, or recreated under the
        same name) is walked: one ``readdir``, then per vCPU
        :meth:`_read_slot`.  The departed VMs' slots are dropped, and
        slots come out in full-walk order.  ``None`` (the caller falls
        back to the scan's walk) on any ``OSError`` or a vCPU with no
        thread yet.
        """
        stale = self._stale_vms(topo)
        kept: Dict[str, List[VCpuSlot]] = {}
        for slot in topo.slots:
            if slot.vm_name not in stale:
                kept.setdefault(slot.vm_name, []).append(slot)
        slots: List[VCpuSlot] = []
        try:
            for vm_name in vm_names:
                if vm_name in kept:
                    slots.extend(kept[vm_name])
                    continue
                vm_path = f"{self.machine_slice}/{vm_name}"
                for child in self.listdir(vm_path):
                    if not child.startswith("vcpu"):
                        continue
                    slot = self._read_slot(vm_name, child, f"{vm_path}/{child}")
                    if slot is None:
                        return None
                    slots.append(slot)
        except OSError:
            return None
        self._topology = _Topology(vm_names, slots, self.fs.root.generation)
        return self._topology

    def _skip_vcpu(self, exc: OSError) -> bool:
        """Count a vCPU skipped on ``exc``; ``True`` if it was torn down
        (cgroup gone or thread dead).  Any other error is transient
        (EIO and kin) and re-raised outside tolerant mode."""
        if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
            self.stats.vcpu_skips += 1
            return True
        if not self.tolerate_errors:
            raise exc
        self.stats.read_errors += 1
        self.stats.vcpu_skips += 1
        return False

    # -- batch-entry hooks (fault-injection seam) -------------------------------

    def _begin_sample_batch(self, period_s: float) -> float:
        """Called exactly once when a :meth:`sample_all` batch starts,
        whichever path serves it.  Subclasses (the fault injector) advance
        their tick clock and perturb the effective period here; the
        base backend passes the period through unchanged.
        """
        return period_s

    def _begin_write_batch(self) -> None:
        """Called exactly once when a :meth:`write_caps` batch starts."""

    def _direct_io_ok(self) -> bool:
        """Whether the fast route may bypass the per-file primitives.
        The fault injector vetoes this whenever a plan is armed —
        faults hit the per-file seam, which the column reads and
        writes would never consult."""
        return True

    # -- per-file scan ----------------------------------------------------------

    def _sample_batched(self, period_s: float) -> List[VCpuSample]:
        """The per-file scan over the cached topology (see module doc).

        VM teardown races with the scan on a real host (a cgroup listed
        by readdir may be gone by the time its files are opened, and a
        tid may have exited before its ``/proc/<tid>/stat`` is read);
        such vCPUs are silently skipped, exactly as a production monitor
        must.
        """
        if not self.fs.exists(self.machine_slice):
            self._topology = None
            return []
        topo = self._topology
        if (
            topo is None
            or topo.vms is None
            # Churn guard: one readdir of the slice instead of a walk.
            or self.listdir(self.machine_slice) != topo.vms
            or self._stale_vms(topo)
        ):
            self._topology = None
            return self._walk(period_s)
        samples = []
        freq_khz_by_core: Dict[int, int] = {}
        dead: List[str] = []
        prev_usage = self._prev_usage
        for slot in topo.slots:
            path = slot.cgroup_path
            try:
                usage = self._read_usage_usec(path)
                prev = prev_usage.get(path, usage)
                prev_usage[path] = usage
                samples.append(self._finish_sample(
                    slot, max(0.0, usage - prev), period_s, freq_khz_by_core
                ))
            except OSError as exc:
                # Torn down between scans: drop its state.  A transient
                # error skips it for one tick but keeps slot and baseline.
                if self._skip_vcpu(exc):
                    dead.append(path)
        for path in dead:
            self.forget_usage(path)
            try:
                self._check_cgroup(path)
            except FileNotFoundError:
                pass  # gone: the next write fails and drops the record
        return samples

    def _walk(self, period_s: float) -> List[VCpuSample]:
        """The scan's full walk (discovery), sampling each vCPU as it is
        walked (its usage read first); caches the topology if complete.

        A VM or vCPU torn down mid-walk (or, in tolerant mode, one with
        a transient read error) is skipped, as is a vCPU with no thread
        yet; if anything was, nothing is cached.
        """
        self.stats.topology_rescans += 1
        vm_names = self.listdir(self.machine_slice)
        samples: List[VCpuSample] = []
        slots: List[VCpuSlot] = []
        complete = True
        freq_khz_by_core: Dict[int, int] = {}
        prev_usage = self._prev_usage
        for vm_name in vm_names:
            vm_path = f"{self.machine_slice}/{vm_name}"
            try:
                children = self.listdir(vm_path)
            except FileNotFoundError:
                self.stats.vm_skips += 1
                complete = False
                continue  # VM destroyed mid-walk
            for child in children:
                if not child.startswith("vcpu"):
                    continue
                vcpu_path = f"{vm_path}/{child}"
                try:
                    usage = self._read_usage_usec(vcpu_path)
                    prev = prev_usage.get(vcpu_path, usage)
                    prev_usage[vcpu_path] = usage
                    slot = self._read_slot(vm_name, child, vcpu_path)
                    if slot is None:
                        complete = False
                        continue
                    samples.append(self._finish_sample(
                        slot, max(0.0, usage - prev), period_s, freq_khz_by_core
                    ))
                except OSError as exc:
                    if self._skip_vcpu(exc):
                        self.forget_usage(vcpu_path)
                    complete = False
                    continue
                slots.append(slot)
        if complete:
            self._topology = _Topology(vm_names, slots, self.fs.root.generation)
        return samples

    def _finish_sample(
        self,
        slot: VCpuSlot,
        consumed: float,
        period_s: float,
        freq_khz_by_core: Dict[int, int],
    ) -> VCpuSample:
        core = parse_stat_line(self.read_thread_stat(slot.tid)).processor
        khz = freq_khz_by_core.get(core)
        if khz is None:
            khz = self.core_freq_khz(core)
            freq_khz_by_core[core] = khz
        core_freq_mhz = khz / 1000.0
        share = min(consumed / period_us(period_s), 1.0)
        return VCpuSample(
            vm_name=slot.vm_name,
            vcpu_index=slot.vcpu_index,
            cgroup_path=slot.cgroup_path,
            tid=slot.tid,
            consumed_cycles=consumed,
            core=core,
            core_freq_mhz=core_freq_mhz,
            vfreq_mhz=share * core_freq_mhz,
        )

    # -- kernel-surface readers -------------------------------------------------

    def _read_usage_usec(self, vcpu_path: str) -> float:
        if self.fs.version is CgroupVersion.V2:
            stat = parse_cpu_stat(self.read_file(f"{vcpu_path}/cpu.stat"))
            return float(stat["usage_usec"])
        nanos = int(self.read_file(f"{vcpu_path}/cpuacct.usage").strip())
        return nanos / 1000.0

    def _read_slot(self, vm_name: str, child: str, vcpu_path: str) -> Optional[VCpuSlot]:
        """Discover one vCPU cgroup: its thread (``None`` if it holds none
        yet), cgroup node and column row."""
        fname = "cgroup.threads" if self.fs.version is CgroupVersion.V2 else "tasks"
        content = self.read_file(f"{vcpu_path}/{fname}").split()
        if not content:
            return None
        node = self._check_cgroup(vcpu_path)
        # KVM vCPU cgroups hold exactly one thread (paper §III-B1).
        return VCpuSlot(
            vm_name=vm_name,
            vcpu_index=int(child[len("vcpu"):]),
            cgroup_path=vcpu_path,
            tid=int(content[0]),
            node=node,
            row=node.cpu.row,
        )

    def _check_cgroup(self, vcpu_path: str) -> Any:
        """The cgroup node of ``vcpu_path``; drops the quota record of a
        path that names a new cgroup.

        Runs at discovery (only discovery reads the tid) and when the
        scan finds a vCPU dead, never on a steady tick.  A cgroup torn
        down and recreated under the same name is a different node; its
        ``cpu.max`` is the kernel default again, so the record must go
        for the quota to be rewritten.  A dead thread in a surviving
        cgroup keeps the record.  The lookup is the same uncounted
        directory query as the scan's machine-slice check, so it draws
        no injected fault.  Raises :class:`FileNotFoundError` if the
        cgroup is gone.
        """
        node = self.fs.node(vcpu_path)
        if self._cgroup_of.setdefault(vcpu_path, node) is not node:
            self._cgroup_of[vcpu_path] = node
            if self._last_cap.pop(vcpu_path, None) is not None:
                self.recreated.append(vcpu_path)
        return node

    # -- bulk-array monitoring --------------------------------------------------

    def sample_all(self, period_s: float = 1.0) -> SampleBatch:
        """One monitoring pass over all hosted vCPUs, as columns.

        The fast route amortises the per-vCPU work into a few array
        operations over the topology's rows and patches the topology on
        VM churn, on a v1 or v2 hierarchy alike; whenever the topology
        is unknown or dead (first tick, recreated cgroup, teardown
        race, failed patch) or direct I/O is vetoed (armed fault plan),
        the batch is built from the per-file scan instead, with the same
        values.
        """
        period_s = self._begin_sample_batch(period_s)
        self.recreated.clear()
        if self._direct_io_ok():
            batch = self._sample_all_fast(period_s)
            if batch is not None:
                return batch
            # The scan re-walks from scratch.
            self._topology = None
        try:
            samples = self._sample_batched(period_s)
        except OSError:
            # A failure outside the per-vCPU loops (e.g. the machine
            # slice readdir itself).  Tolerant mode degrades to "nothing
            # observed this tick" — the resilience layer carries samples
            # forward — instead of killing the controller.
            if not self.tolerate_errors:
                raise
            self.stats.read_errors += 1
            self.invalidate()
            samples = []
        batch = SampleBatch.from_samples(samples, period_s)
        # Unchanged paths keep their list object: the topology's, or,
        # while walks stay incomplete, the previous scan batch's.
        topo = self._topology
        known = topo.paths if topo is not None else self._scan_paths
        if batch.paths == known:
            batch.paths = known
        self._scan_paths = batch.paths
        return batch

    def _sample_all_fast(self, period_s: float) -> Optional[SampleBatch]:
        """Array sampling by the topology's rows; ``None`` → use the scan."""
        topo = self._topology
        if topo is None or not self.fs.exists(self.machine_slice):
            return None
        # Churn guard, same single readdir as the scan.  A changed
        # listing (or an invalidate() since the last batch) patches the
        # topology instead of re-walking.
        vm_names = self.listdir(self.machine_slice)
        if vm_names != topo.vms:
            # A topology this route has not read yet (``prev`` unset:
            # the scan walked it) is re-walked, not patched.
            if topo.prev is None:
                return None
            topo = self._patch(topo, vm_names)
            if topo is None:
                return None
        elif self._stale_vms(topo):
            # A cgroup was recreated under a listed name: re-resolve
            # through the scan's walk, as the scan itself would.
            return None
        n = len(topo.slots)
        procfs = self.procfs
        if topo.proc_gen != procfs.generation:
            try:
                topo.thread_rows = procfs.rows([s.tid for s in topo.slots])
            except ProcessLookupError:
                # A vCPU thread exited between scans; nothing committed
                # yet, so the per-file scan resamples and skips it as usual.
                return None
            topo.proc_gen = procfs.generation
        usage = self.fs.root.table.usage[topo.rows].astype(np.float64)
        cores = procfs.threads.processor[topo.thread_rows]
        self.stats.fs_reads += n
        self.stats.proc_reads += n
        prev = topo.prev
        if prev is None:
            prev_usage = self._prev_usage
            prev = np.array(
                [prev_usage.get(p, np.nan) for p in topo.paths], dtype=np.float64
            )
        prev_eff = np.where(np.isnan(prev), usage, prev)
        consumed = usage - prev_eff
        np.maximum(consumed, 0.0, out=consumed)
        topo.prev = usage
        self._pending_usage = (topo.paths, usage)
        # One frequency read per distinct core, as in the scan.
        khz_of = np.zeros(int(cores.max()) + 1 if n else 1, dtype=np.float64)
        distinct = np.unique(cores)
        khz_of[distinct] = self.sysfs.scaling_cur_freqs(distinct)
        self.stats.sysfs_reads += distinct.size
        core_freq_mhz = khz_of[cores] / 1000.0
        share = np.minimum(consumed / period_us(period_s), 1.0)
        return SampleBatch(
            period_s=period_s,
            paths=topo.paths,
            vm_names=topo.vm_names,
            vcpu_indices=topo.vcpu_idx,
            tids=topo.tids,
            consumed=consumed,
            cores=cores,
            core_freq_mhz=core_freq_mhz,
            vfreq_mhz=share * core_freq_mhz,
        )

    # -- coalesced capping writes ----------------------------------------------

    def quota_in_force(self, vcpu_path: str, enforcement_period_us: int) -> int:
        """The quota last written for ``vcpu_path`` with that period, or
        -1 when unknown (never written, forgotten or failed)."""
        key = self._last_cap.get(vcpu_path)
        return key[0] if key is not None and key[1] == enforcement_period_us else -1

    def write_cap_one(
        self, vcpu_path: str, quota_us: int, enforcement_period_us: int
    ) -> None:
        """Write one vCPU's quota, skipping if already in place.

        Raises :class:`FileNotFoundError` if the cgroup vanished (and
        drops the stale cache entry so a recreated cgroup is rewritten).
        """
        key = (int(quota_us), int(enforcement_period_us))
        if self._last_cap.get(vcpu_path) == key:
            self.stats.cap_writes_skipped += 1
            return
        try:
            if self.fs.version is CgroupVersion.V2:
                self.write_file(f"{vcpu_path}/cpu.max", f"{key[0]} {key[1]}")
            else:
                self.write_file(f"{vcpu_path}/cpu.cfs_period_us", str(key[1]))
                self.write_file(f"{vcpu_path}/cpu.cfs_quota_us", str(key[0]))
        except OSError:
            # The on-disk value is now unknown (the v1 pair may be
            # half-applied): drop the cache entry so a retry or a
            # recreated cgroup is rewritten unconditionally.
            self._last_cap.pop(vcpu_path, None)
            raise
        self._last_cap[vcpu_path] = key

    def write_caps(
        self,
        paths: Sequence[str],
        quota_us: Sequence[int],
        enforcement_period_us: int,
        dirty: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Coalesced quota writes; returns the rows not in force after it.

        ``paths``/``quota_us`` are parallel.  A quota already in force
        is skipped.  A caller that tracks the quotas in force itself
        (the bulk engine) may pass a ``dirty`` mask: only true rows are
        handed over, while clean rows count as
        :attr:`BackendStats.cap_writes_skipped` without the per-path
        lookup.  The result lists the indices of handed-over rows whose
        quota is not in force afterwards: cgroups that vanished
        mid-batch (teardown races the loop on a real host) and, in
        tolerant mode, transient write errors (EIO/EBUSY), which are
        also recorded per path in :attr:`last_write_errors` instead of
        aborting the batch, so the controller can retry exactly the
        failed subset.

        With direct I/O allowed the quotas go straight into the cgroup
        columns (:meth:`_write_caps_direct`); under an armed fault plan
        every row goes through :meth:`write_cap_one` and the file seam,
        where the plan draws its write faults.
        """
        self._begin_write_batch()
        self.last_write_errors = {}
        if dirty is None:
            rows: Sequence[int] = range(len(paths))
        else:
            rows = dirty.nonzero()[0].tolist()
            self.stats.cap_writes_skipped += len(paths) - len(rows)
        enf = int(enforcement_period_us)
        if self._direct_io_ok():
            rows = self._write_caps_direct(paths, quota_us, enf, rows, dirty is None)
        return self._write_caps_seam(paths, quota_us, enf, rows)

    def _write_caps_seam(
        self, paths: Sequence[str], quota_us: Sequence[int], enf: int, rows: Sequence[int]
    ) -> List[int]:
        """:meth:`write_caps` through :meth:`write_cap_one`, row by row."""
        missed: List[int] = []
        for i in rows:
            path = paths[i]
            try:
                self.write_cap_one(path, int(quota_us[i]), enf)
            except FileNotFoundError:
                missed.append(i)
            except OSError as exc:
                if not self.tolerate_errors:
                    raise
                self.stats.write_errors += 1
                self.last_write_errors[path] = exc
                missed.append(i)
        return missed

    def _write_caps_direct(
        self,
        paths: Sequence[str],
        quota_us: Sequence[int],
        enf: int,
        rows: Sequence[int],
        check: bool,
    ) -> List[int]:
        """:meth:`write_caps` straight into the quota columns.

        Each row is decided once: a masked row was dirty in the
        caller's mask, and without a mask (``check``) a row is skipped
        when its ``_last_cap`` record already holds the quota.  Rows
        written count one ``fs_writes`` each (two on v1, quota and
        period) and update ``_last_cap``, as through the seam.  Returns
        the rows whose cgroup has no live row in the topology (not
        sampled, or created or removed since), for the seam, so they
        fail or land exactly as a file write would.
        """
        stats = self.stats
        last = self._last_cap
        topo = self._topology
        row_of = (
            topo.row_of if topo is not None and not self._stale_vms(topo) else {}
        )
        quotas = (
            quota_us.tolist() if isinstance(quota_us, np.ndarray)
            else [int(q) for q in quota_us]
        )
        seam: List[int] = []
        targets: List[int] = []
        written: List[str] = []
        values: List[int] = []
        for i in rows:
            path = paths[i]
            quota = quotas[i]
            if check and last.get(path) == (quota, enf):
                stats.cap_writes_skipped += 1
                continue
            target = row_of.get(path)
            if target is None:
                seam.append(i)
                continue
            targets.append(target)
            written.append(path)
            values.append(quota)
        if targets:
            table = self.fs.root.table
            table.quota[targets] = values
            table.period[targets] = enf
            last.update(zip(written, [(q, enf) for q in values]))
            files = 1 if self.fs.version is CgroupVersion.V2 else 2
            stats.fs_writes += files * len(targets)
        return seam
