"""Batched host-backend I/O layer — all kernel-surface traffic for one node.

The paper reports that ~4 ms of the 5 ms iteration cost is *monitoring*
(§IV-A2): per-vCPU ``cpu.stat``, ``/proc/<tid>/stat`` and
``scaling_cur_freq`` reads dominate the loop.  The seed port repeated
that pattern — one filesystem call per file per tick, a fresh directory
walk every iteration, and an unconditional ``cpu.max`` write per vCPU
(kept as the test reference ``tests/core/backend_reference.py``).

:class:`HostBackend` owns every read and write the controller issues
against one node's kernel surfaces and batches them:

* :meth:`sample_all` — stage 1 of both engines: one
  :class:`SampleBatch` of NumPy columns in a stable slot order (the
  cached topology order, shared with :class:`~repro.core.soa.VcpuTable`).
  The fast path reads usage and last core as slices of the host's
  cgroup and thread columns through cached row indices — the simulated
  equivalent of an io_uring-batched read — with no per-vCPU string
  parse.  VM churn does not cost it a
  full walk: the cached topology is patched from the last handle cache,
  walking only the VMs that are new or whose cgroup changed (one
  ``readdir`` plus one ``cgroup.threads`` read per vCPU) and dropping
  the departed VMs' slots.
* the per-file scan that :meth:`sample_all` falls back to whenever the
  topology is unknown, the cgroup hierarchy is v1, or a fault plan is
  armed (faults inject at the per-file seam, which the handle path
  would bypass).  After one full walk (discovery), a scan costs one
  ``readdir`` of the machine slice (the churn guard), one ``cpu.stat``
  read and one ``/proc/<tid>/stat`` read per vCPU, and one
  ``scaling_cur_freq`` read per *distinct core* — ``cgroup.threads``
  is never re-read while the topology is stable.  On VM churn (a
  changed VM set, or a teardown race observed mid-scan) it re-walks
  every VM.
* :meth:`write_caps` — the one cap-write pass for both engines:
  coalesced ``cpu.max`` (v1: quota/period) writes over parallel
  path/quota columns that skip values already in place, so a converged
  controller writes nothing at all.  An optional dirty mask lets the
  bulk engine hand over only the rows whose quota changed.  Where the
  fast path may read through handles, the quotas go straight into the
  cgroup quota column (:mod:`repro.cgroups.columns`) through the same
  handle cache; elsewhere each is one file write.
* cumulative syscall-count stats (:attr:`HostBackend.stats`) so the
  saving is measurable, not asserted; a caller wanting one batch's
  delta subtracts a copy taken before it.

The sample *values* are the same on every path: caching only removes
re-reads of immutable data (a vCPU cgroup's single KVM tid) and
duplicate reads of the same core's frequency within one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    """One entry of the cached tid→cgroup topology map."""

    vm_name: str
    vcpu_index: int
    cgroup_path: str
    tid: int


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
        self._topology: Optional[List[VCpuSlot]] = None
        self._topology_vms: Optional[List[str]] = None
        self._prev_usage: Dict[str, float] = {}
        self._last_cap: Dict[str, Tuple[int, int]] = {}
        #: The cgroup node each vCPU path named when it was discovered.
        self._cgroup_of: Dict[str, Any] = {}
        #: Paths whose quota record the latest :meth:`sample_all` dropped
        #: because a new cgroup was found behind them (see
        #: :meth:`_check_cgroup`).
        self.recreated: List[str] = []
        #: ``paths`` of the latest per-file scan batch, handed out again
        #: while the scan sees the same vCPUs (see :class:`SampleBatch`).
        self._scan_paths: Optional[List[str]] = None
        self._bulk_handles: Optional[Dict[str, Any]] = None

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

    # -- topology cache ---------------------------------------------------------

    def invalidate(self) -> None:
        """Mark the cached tid→cgroup map stale (call on VM churn).

        The per-file scan re-walks every VM on its next pass.  The fast
        path patches the map from its last handle cache instead: VMs
        whose cgroups are unchanged keep their slots, and only new or
        recreated VMs are walked.
        """
        self._topology = None
        self._topology_vms = None

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
        """Whether the handle-based bulk fast path may bypass the
        per-file primitives.  The fault injector vetoes this whenever a
        plan is armed — faults hit the per-file seam, which cached
        handles would never consult."""
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
            self.invalidate()
            return []
        if self._topology is not None:
            # Churn guard: one readdir of the slice instead of a walk.
            if self.listdir(self.machine_slice) != self._topology_vms:
                self.invalidate()
        if self._topology is None:
            self.stats.topology_rescans += 1
            return self._sample_walk(period_s)
        samples: List[VCpuSample] = []
        freq_khz_by_core: Dict[int, int] = {}
        dead: List[str] = []
        for slot in self._topology:
            path = slot.cgroup_path
            try:
                usage = self._read_usage_usec(path)
                prev = self._prev_usage.get(path, usage)
                self._prev_usage[path] = usage
                samples.append(self._finish_sample(
                    slot, max(0.0, usage - prev), period_s, freq_khz_by_core
                ))
            except OSError as exc:
                if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
                    # vCPU torn down between scans: drop its state.
                    self.stats.vcpu_skips += 1
                    dead.append(path)
                elif self.tolerate_errors:
                    # Transient error (EIO and kin): skip this vCPU for
                    # one tick but keep its topology slot and baseline.
                    self.stats.read_errors += 1
                    self.stats.vcpu_skips += 1
                else:
                    raise
        for path in dead:
            self.forget_usage(path)
            self._check_cgroup(path)
        if dead:
            self.invalidate()
        return samples

    def _sample_walk(self, period_s: float) -> List[VCpuSample]:
        """Full directory walk (discovery); caches the topology when
        complete."""
        samples: List[VCpuSample] = []
        slots: List[VCpuSlot] = []
        complete = True
        if not self.fs.exists(self.machine_slice):
            return samples
        vm_names = self.listdir(self.machine_slice)
        freq_khz_by_core: Dict[int, int] = {}
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
                    prev = self._prev_usage.get(vcpu_path, usage)
                    self._prev_usage[vcpu_path] = usage
                    consumed = max(0.0, usage - prev)
                    tid = self._read_tid(vcpu_path)
                    if tid is None:
                        complete = False
                        continue
                    slot = VCpuSlot(
                        vm_name=vm_name,
                        vcpu_index=int(child[len("vcpu"):]),
                        cgroup_path=vcpu_path,
                        tid=tid,
                    )
                    samples.append(
                        self._finish_sample(
                            slot, consumed, period_s, freq_khz_by_core
                        )
                    )
                except OSError as exc:
                    if isinstance(exc, (FileNotFoundError, ProcessLookupError)):
                        self.stats.vcpu_skips += 1
                        self.forget_usage(vcpu_path)
                    elif self.tolerate_errors:
                        self.stats.read_errors += 1
                        self.stats.vcpu_skips += 1
                    else:
                        raise
                    complete = False
                    continue
                slots.append(slot)
        if complete:
            self._topology = slots
            self._topology_vms = vm_names
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

    def _read_tid(self, vcpu_path: str) -> Optional[int]:
        fname = "cgroup.threads" if self.fs.version is CgroupVersion.V2 else "tasks"
        content = self.read_file(f"{vcpu_path}/{fname}").split()
        if not content:
            return None
        self._check_cgroup(vcpu_path)
        # KVM vCPU cgroups hold exactly one thread (paper §III-B1).
        return int(content[0])

    def _check_cgroup(self, vcpu_path: str) -> None:
        """Drop the quota record of a path that names a new cgroup.

        Runs at discovery (only discovery reads the tid) and when the
        scan finds a vCPU dead, never on a steady tick.  A cgroup torn
        down and recreated under the same name is a different node; its
        ``cpu.max`` is the kernel default again, so the record must go
        for the quota to be rewritten.  A dead thread in a surviving
        cgroup keeps the record.  The lookup is the same uncounted
        directory query as the scan's machine-slice check, so it draws
        no injected fault.
        """
        try:
            node = self.fs.node(vcpu_path)
        except FileNotFoundError:
            return  # gone: the next write fails and drops the record
        if self._cgroup_of.setdefault(vcpu_path, node) is not node:
            self._cgroup_of[vcpu_path] = node
            if self._last_cap.pop(vcpu_path, None) is not None:
                self.recreated.append(vcpu_path)

    # -- bulk-array monitoring --------------------------------------------------

    def sample_all(self, period_s: float = 1.0) -> SampleBatch:
        """One monitoring pass over all hosted vCPUs, as columns.

        The fast path amortises the per-vCPU work into a few array
        operations over cached cgroup/proc handles and patches the
        topology on VM churn; whenever the topology is unknown (first
        tick, teardown race, failed patch), the hierarchy is v1, or
        direct I/O is vetoed (armed fault plan), the batch is built
        from the per-file scan instead, with the same values.
        """
        period_s = self._begin_sample_batch(period_s)
        self.recreated.clear()
        if (
            self.fs.version is CgroupVersion.V2
            and self.procfs is not None
            and self.sysfs is not None
            and self._direct_io_ok()
        ):
            batch = self._sample_all_fast(period_s)
            if batch is not None:
                return batch
            # The scan re-walks from scratch; a stale handle cache is no
            # base to patch from later.
            self._bulk_handles = None
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
        if batch.paths == self._scan_paths:
            batch.paths = self._scan_paths
        else:
            self._scan_paths = batch.paths
        return batch

    def _sample_all_fast(self, period_s: float) -> Optional[SampleBatch]:
        """Array sampling over cached handles; ``None`` → use the scan."""
        cache = self._bulk_handles
        if self._topology is None and cache is None:
            return None
        if not self.fs.exists(self.machine_slice):
            return None
        # Churn guard, same single readdir as the scan.  A changed
        # listing (or an invalidate() since the last batch) patches the
        # topology from the last handle cache instead of re-walking.
        vm_names = self.listdir(self.machine_slice)
        if vm_names != self._topology_vms and (
            cache is None or not self._patch_topology(cache, vm_names)
        ):
            self.invalidate()
            return None
        topo = self._topology
        if cache is None or cache["topo"] is not topo:
            cache = self._build_bulk_handles(topo)
            if cache is None:
                self.invalidate()
                return None
            self._bulk_handles = cache
        elif not self._validate_bulk_handles(cache):
            # A cgroup was torn down (or recreated under the same name)
            # since the handles were cached: re-resolve through the
            # path-based scan so teardown races behave identically.
            self.invalidate()
            return None
        n = len(topo)
        procfs = self.procfs
        if cache["proc_gen"] != procfs.generation:
            try:
                cache["thread_rows"] = procfs.rows(cache["tids_list"])
            except ProcessLookupError:
                # A vCPU thread exited between scans; nothing committed
                # yet, so the per-file scan resamples and skips it as usual.
                self.invalidate()
                return None
            cache["proc_gen"] = procfs.generation
        usage = self.fs.root.table.usage[cache["rows"]].astype(np.float64)
        cores = procfs.threads.processor[cache["thread_rows"]]
        self.stats.fs_reads += n
        self.stats.proc_reads += n
        prev = cache["prev"]
        prev_eff = np.where(np.isnan(prev), usage, prev)
        consumed = usage - prev_eff
        np.maximum(consumed, 0.0, out=consumed)
        cache["prev"] = usage
        self._prev_usage.update(zip(cache["paths"], usage.tolist()))
        # One frequency read per distinct core, as in the scan.
        khz_of = np.zeros(int(cores.max()) + 1 if n else 1, dtype=np.float64)
        distinct = np.unique(cores)
        khz_of[distinct] = self.sysfs.scaling_cur_freqs(distinct)
        self.stats.sysfs_reads += distinct.size
        core_freq_mhz = khz_of[cores] / 1000.0
        share = np.minimum(consumed / period_us(period_s), 1.0)
        return SampleBatch(
            period_s=period_s,
            paths=cache["paths"],
            vm_names=cache["vms"],
            vcpu_indices=cache["vcpu_idx"],
            tids=cache["tids"],
            consumed=consumed,
            cores=cores,
            core_freq_mhz=core_freq_mhz,
            vfreq_mhz=share * core_freq_mhz,
        )

    def _patch_topology(self, cache: Dict[str, Any], vm_names: List[str]) -> bool:
        """Re-point the cached topology at the machine-slice listing
        ``vm_names``, starting from the topology ``cache`` was built for.

        A listed VM whose cgroup node and vCPU nodes are still the
        cached ones keeps its slots; every other listed VM (new, or
        recreated under the same name) is walked with one ``readdir``
        and one ``cgroup.threads`` read per vCPU; the departed VMs'
        slots are dropped.  Slots come out in full-walk order, so
        ``paths`` and every sample-order reduction are unchanged.
        Returns ``False`` (the caller falls back to the full walk) on
        any ``OSError`` or a vCPU with no thread yet.
        """
        kept: Dict[str, List[VCpuSlot]] = {}
        changed = set()
        slots: List[VCpuSlot] = []
        try:
            children = self.fs.node(self.machine_slice).children
            for slot, (vm_node, child, vcpu_node) in zip(
                cache["topo"], cache["entries"]
            ):
                kept.setdefault(slot.vm_name, []).append(slot)
                if (
                    children.get(slot.vm_name) is not vm_node
                    or vm_node.children.get(child) is not vcpu_node
                ):
                    changed.add(slot.vm_name)
            for vm_name in vm_names:
                if vm_name in kept and vm_name not in changed:
                    slots.extend(kept[vm_name])
                    continue
                vm_path = f"{self.machine_slice}/{vm_name}"
                for child in self.listdir(vm_path):
                    if not child.startswith("vcpu"):
                        continue
                    vcpu_path = f"{vm_path}/{child}"
                    tid = self._read_tid(vcpu_path)
                    if tid is None:
                        return False
                    slots.append(
                        VCpuSlot(
                            vm_name=vm_name,
                            vcpu_index=int(child[len("vcpu"):]),
                            cgroup_path=vcpu_path,
                            tid=tid,
                        )
                    )
        except OSError:
            return False
        self._topology = slots
        self._topology_vms = vm_names
        return True

    def _build_bulk_handles(self, topo: List[VCpuSlot]) -> Optional[Dict[str, Any]]:
        """Resolve per-slot cgroup handles once per stable topology."""
        try:
            machine = self.fs.node(self.machine_slice)
        except FileNotFoundError:
            return None
        vm_nodes: Dict[str, Any] = {}
        rows: List[int] = []
        entries: List[Tuple[Any, str, Any]] = []
        paths: List[str] = []
        vms: List[str] = []
        for slot in topo:
            vm_node = vm_nodes.get(slot.vm_name)
            if vm_node is None:
                vm_node = machine.children.get(slot.vm_name)
                if vm_node is None:
                    return None
                vm_nodes[slot.vm_name] = vm_node
            child = slot.cgroup_path.rsplit("/", 1)[1]
            vcpu_node = vm_node.children.get(child)
            if vcpu_node is None:
                return None
            rows.append(vcpu_node.cpu.row)
            entries.append((vm_node, child, vcpu_node))
            paths.append(slot.cgroup_path)
            vms.append(slot.vm_name)
        n = len(topo)
        return {
            "topo": topo,
            "vm_items": list(vm_nodes.items()),
            "entries": entries,
            # The tree generation the handles were last seen live at.
            "gen": self.fs.root.generation,
            "rows": np.array(rows, dtype=np.intp),
            "row_of": dict(zip(paths, rows)),
            # Thread rows, looked up at the /proc generation "proc_gen".
            "thread_rows": None,
            "proc_gen": -1,
            "paths": paths,
            "vms": vms,
            "vcpu_idx": np.fromiter(
                (s.vcpu_index for s in topo), dtype=np.int64, count=n
            ),
            "tids_list": [s.tid for s in topo],
            "tids": np.fromiter((s.tid for s in topo), dtype=np.int64, count=n),
            "prev": np.array(
                [self._prev_usage.get(p, np.nan) for p in paths], dtype=np.float64
            ),
        }

    def _validate_bulk_handles(self, cache: Dict[str, Any]) -> bool:
        """Whether every cached handle (and so its column row) is live.

        Free while no cgroup was created or removed since the last
        check; otherwise one identity check per handle.
        """
        generation = self.fs.root.generation
        if cache["gen"] == generation:
            return True
        try:
            machine = self.fs.node(self.machine_slice)
        except FileNotFoundError:
            return False
        children = machine.children
        for name, vm_node in cache["vm_items"]:
            if children.get(name) is not vm_node:
                return False
        for vm_node, child, vcpu_node in cache["entries"]:
            if vm_node.children.get(child) is not vcpu_node:
                return False
        cache["gen"] = generation
        return True

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

        On a v2 hierarchy with direct I/O allowed the quotas go straight
        into the cgroup columns (:meth:`_write_caps_direct`); otherwise
        every row goes through :meth:`write_cap_one` and the file seam,
        where an armed fault plan draws its write faults.
        """
        self._begin_write_batch()
        self.last_write_errors = {}
        if dirty is None:
            rows: Sequence[int] = range(len(paths))
        else:
            rows = dirty.nonzero()[0].tolist()
            self.stats.cap_writes_skipped += len(paths) - len(rows)
        enf = int(enforcement_period_us)
        if self.fs.version is CgroupVersion.V2 and self._direct_io_ok():
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
        written count one ``fs_writes`` each and update ``_last_cap``,
        as through the seam.  Returns the rows whose cgroup has no live
        handle in the stage-1 cache (not sampled, or created or removed
        since), for the seam, so they fail or land exactly as a file
        write would.
        """
        stats = self.stats
        last = self._last_cap
        cache = self._bulk_handles
        row_of = (
            cache["row_of"]
            if cache is not None and self._validate_bulk_handles(cache)
            else {}
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
            stats.fs_writes += len(targets)
        return seam
