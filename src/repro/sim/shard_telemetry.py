"""Shared-memory telemetry lane for the sharded control plane.

Pickling every per-node :class:`~repro.core.controller.ControllerReport`
across the process boundary each tick would cost, at 1000 nodes / 50k
VMs, tens of megabytes of sample lists and allocation dicts per second
— the IPC alone blows the 1 s control period.  So each
:class:`~repro.sim.node_manager.ShardedNodeManager` worker owns one
``multiprocessing.shared_memory`` segment and publishes fixed-width
NumPy blocks into it after every barrier tick; the parent maps the same
segment once and reads cluster aggregates (stage timings, Eq. 7
guarantee/capacity accounts, backend syscall counters, invariant
totals) with zero copies and zero pickling.  Full reports stay in the
worker and are fetched lazily — ``ShardedNodeManager.fetch_report`` —
only for ``explain`` / flight-recorder flows.

Segment layout (all offsets in bytes, one segment per shard)::

    header     int64[8]    [catalog_version, n_nodes, node_cap,
                            ticks, seq, 0, 0, 0]
    t          float64[1]  control time of the published tick
    backend    int64[11]   BackendStats counters (BACKEND_FIELDS order)
    invariants int64[2]    (checks, violations) shard totals
    nodes      float64[node_cap, NODE_F]   NODE_FIELDS columns

The *catalog* (the shard's node ids, in row order) crosses the process
boundary as a pickled tuple only when ``catalog_version`` changes —
steady-state ticks ship just the segment name and two ints.  When the
node population outgrows the segment the worker allocates a doubled
segment under a fresh name and unlinks the old one; the parent re-maps
on the name change.

Resource-tracker note: every process that merely *attaches* a segment
still registers it with a ``resource_tracker`` (the well-known CPython
double-clean-up wart).  A process tree only shares one tracker if the
parent's tracker is already running when workers launch — forked
children inherit its fd and ``spawn`` ships the fd in the preparation
data — so :class:`~repro.sim.node_manager.ShardedNodeManager.start`
calls ``resource_tracker.ensure_running()`` *before* creating its
pools (otherwise worker and parent each lazily start a private
tracker, and the parent's attach-registration is never balanced —
a phantom-leak warning at exit).  With the tracker shared,
registration is set-idempotent and the creating worker's unlink is
the single clean-up point; the parent must NOT unregister on top of
it (double-unregister ``KeyError`` inside the tracker).
:class:`ShardTelemetryReader` keeps an ``untrack=`` escape hatch for
attaching from a process that genuinely runs its own tracker.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.backend import BackendStats
from repro.core.controller import StageTimings

#: Order of the BackendStats counters inside the int64 backend block.
BACKEND_FIELDS: Tuple[str, ...] = tuple(BackendStats().as_dict())

#: Columns of the per-node float64 block.
NODE_FIELDS: Tuple[str, ...] = (
    "monitor_s",
    "estimate_s",
    "credits_s",
    "auction_s",
    "distribute_s",
    "enforce_s",
    "alloc_cycles",      # sum of this tick's allocations (cycles)
    "guarantee_mhz",     # Eq. 7 LHS: summed registered vfreq guarantees
    "capacity_mhz",      # Eq. 7 RHS: num_cpus x F_MAX
    "violations",        # cumulative invariant violations (-1: no oracle)
    "checks",            # cumulative invariant checks
    "num_vms",
    "errored",           # 1.0 when this node's tick raised this round
)

NODE_F = len(NODE_FIELDS)
_HDR_N = 8
_N_BACKEND = len(BACKEND_FIELDS)

#: ``header`` slot indices.
H_CATALOG_VERSION, H_N_NODES, H_NODE_CAP, H_TICKS = range(4)
#: Sequence counter (seqlock): the writer holds it *odd* while
#: mutating rows and bumps it back to even once the tick is fully
#: published.  A reader that wants a consistent cross-block snapshot
#: (:meth:`ShardTelemetryReader.stable_snapshot`) copies the rows only
#: between two equal even reads — the barrier-tick parent never
#: actually retries (publish happens before the future resolves), but
#: a streaming scraper attached mid-tick can.
H_SEQ = 4

#: One shard's catalog: its node ids in block order.
Catalog = Tuple[str, ...]


def _segment_size(node_cap: int) -> int:
    return (
        _HDR_N * 8          # header
        + 8                 # t
        + _N_BACKEND * 8    # backend counters
        + 2 * 8             # invariant totals
        + node_cap * NODE_F * 8
    )


class _Blocks:
    """NumPy views over one mapped segment (no copies)."""

    def __init__(self, shm: shared_memory.SharedMemory, node_cap: int):
        buf = shm.buf
        off = 0
        self.header = np.ndarray((_HDR_N,), dtype=np.int64, buffer=buf, offset=off)
        off += _HDR_N * 8
        self.t = np.ndarray((1,), dtype=np.float64, buffer=buf, offset=off)
        off += 8
        self.backend = np.ndarray(
            (_N_BACKEND,), dtype=np.int64, buffer=buf, offset=off
        )
        off += _N_BACKEND * 8
        self.invariants = np.ndarray((2,), dtype=np.int64, buffer=buf, offset=off)
        off += 2 * 8
        self.nodes = np.ndarray(
            (node_cap, NODE_F), dtype=np.float64, buffer=buf, offset=off
        )


class ShardTelemetryWriter:
    """Worker-side publisher: one segment, reused across ticks."""

    def __init__(self, *, min_node_cap: int = 8) -> None:
        self._min_node_cap = min_node_cap
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._blocks: Optional[_Blocks] = None
        self._node_cap = 0
        self._catalog: Optional[Catalog] = None
        self.catalog_version = 0
        self.ticks = 0
        #: Seqlock counter — survives segment growth (a fresh segment
        #: starts at the writer's current even value, never back at 0).
        self._seq = 0

    # -- segment lifecycle ----------------------------------------------------

    def _ensure_capacity(self, n_nodes: int) -> None:
        if self._shm is not None and n_nodes <= self._node_cap:
            return
        node_cap = max(self._min_node_cap, self._node_cap)
        while node_cap < n_nodes:
            node_cap *= 2
        fresh = shared_memory.SharedMemory(
            create=True, size=_segment_size(node_cap)
        )
        self.close(unlink=True)  # drop the outgrown segment, if any
        self._shm = fresh
        self._node_cap = node_cap
        self._blocks = _Blocks(fresh, node_cap)

    def close(self, *, unlink: bool) -> None:
        """Release (and optionally destroy) the current segment."""
        if self._shm is None:
            return
        self._blocks = None
        self._shm.close()
        if unlink:
            self._shm.unlink()
        self._shm = None

    @property
    def segment_name(self) -> Optional[str]:
        return self._shm.name if self._shm is not None else None

    # -- publishing -----------------------------------------------------------

    def publish(
        self, manager, t: float
    ) -> Tuple[str, int, Optional[Catalog]]:
        """Write one tick's telemetry; returns what the parent needs.

        ``manager`` is the in-worker :class:`~repro.sim.node_manager.
        NodeManager` after its barrier tick.  Returns ``(segment_name,
        catalog_version, catalog)`` with ``catalog=None`` whenever the
        node set is unchanged — the steady-state tick payload is two
        ints and a string.
        """
        controllers = manager.controllers
        node_ids = tuple(sorted(controllers))

        self._ensure_capacity(len(node_ids))
        blocks = self._blocks
        assert blocks is not None
        # Seqlock write-side: odd while the rows below are in flux.
        self._seq += 1
        blocks.header[H_SEQ] = self._seq

        catalog: Optional[Catalog] = None
        if node_ids != self._catalog:
            self._catalog = node_ids
            self.catalog_version += 1
            catalog = node_ids

        nodes = blocks.nodes
        for slot, node_id in enumerate(node_ids):
            ctrl = controllers[node_id]
            report = manager.last_reports.get(node_id)
            row = nodes[slot]
            if report is not None:
                tm = report.timings
                row[0:6] = (
                    tm.monitor, tm.estimate, tm.credits,
                    tm.auction, tm.distribute, tm.enforce,
                )
                alloc_total = 0.0
                for cycles in report.allocations.values():
                    alloc_total += cycles
                row[6] = alloc_total
            else:
                row[0:7] = 0.0
            vfreqs = getattr(ctrl, "_vm_vfreq", None) or {}
            row[7] = sum(vfreqs.values())
            row[8] = getattr(ctrl, "num_cpus", 0) * getattr(ctrl, "fmax_mhz", 0.0)
            checker = getattr(ctrl, "invariant_checker", None)
            if checker is not None:
                row[9] = checker.violations_total
                row[10] = checker.checks_total
            else:
                row[9] = -1.0
                row[10] = 0.0
            row[11] = len(vfreqs)
            row[12] = 1.0 if node_id in manager.last_errors else 0.0

        stats = manager.backend_stats().as_dict()
        blocks.backend[:] = [stats[k] for k in BACKEND_FIELDS]
        blocks.invariants[:] = manager.invariant_totals()
        blocks.t[0] = t
        self.ticks += 1
        header = blocks.header
        header[H_N_NODES] = len(node_ids)
        header[H_NODE_CAP] = self._node_cap
        header[H_TICKS] = self.ticks
        # Version last: a reader that sees the new version sees the rows.
        header[H_CATALOG_VERSION] = self.catalog_version
        # Seqlock release: back to even — the published tick is stable.
        self._seq += 1
        header[H_SEQ] = self._seq
        return self._shm.name, self.catalog_version, catalog  # type: ignore[union-attr]


class TornSnapshotError(RuntimeError):
    """A shard's seqlock stayed odd or moving through every retry.

    The writer died mid-publish or publishes without pause; the
    shard's rows cannot be read this scrape.
    """


class ShardTelemetryReader:
    """Parent-side view over one shard's segment (re-maps on growth)."""

    def __init__(self, *, untrack: bool = False) -> None:
        self._untrack = untrack
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._blocks: Optional[_Blocks] = None
        self._segment_name: Optional[str] = None
        self.catalog_version = 0
        self.node_ids: Tuple[str, ...] = ()
        #: Cumulative seqlock retries across ``stable_snapshot`` calls
        #: (zero on the barrier-tick path; the torn-read tests assert
        #: the retry loop actually spins when a publish is in flight).
        self.snapshot_retries = 0

    def update(
        self, segment_name: str, catalog_version: int,
        catalog: Optional[Catalog],
    ) -> None:
        """Track one tick's publication (attach / re-map as needed)."""
        if segment_name != self._segment_name:
            self.close()
            shm = shared_memory.SharedMemory(name=segment_name)
            # The worker that created the segment owns the unlink; under
            # spawn this process's own tracker must forget the name or
            # it re-unlinks at exit (see module docstring).
            if self._untrack:
                try:
                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
            self._shm = shm
            self._segment_name = segment_name
            header = np.ndarray((_HDR_N,), dtype=np.int64, buffer=shm.buf)
            self._blocks = _Blocks(shm, int(header[H_NODE_CAP]))
        if catalog is not None:
            self.node_ids = catalog
        self.catalog_version = catalog_version

    def close(self) -> None:
        if self._shm is not None:
            self._blocks = None
            self._shm.close()
            self._shm = None
            self._segment_name = None

    def unlink(self) -> None:
        """Destroy the mapped segment — dead-worker recovery only.

        Normally the worker that created a segment unlinks it; this is
        the parent-side fallback when that worker died without cleanup.
        """
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    # -- typed accessors ------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self._shm is not None

    @property
    def seq(self) -> int:
        """Current seqlock value (odd: a publish is in flight)."""
        return int(self._blocks.header[H_SEQ])  # type: ignore[union-attr]

    def stable_snapshot(
        self,
        *,
        max_retries: int = 64,
        on_retry=None,
    ) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """A torn-read-free copy of this shard's published tick.

        Returns ``(node_ids, nodes, backend, invariants)`` where the
        arrays are *copies* taken between two equal even reads of the
        sequence counter — the seqlock read side.  If the writer is
        mid-``publish`` (odd counter, or the counter moved while we
        copied) the read retries, calling ``on_retry(attempt)`` first
        when given (the torn-read tests use that hook to complete the
        in-flight publish deterministically).  Raises
        :class:`TornSnapshotError` after ``max_retries`` failed attempts.
        """
        blocks = self._blocks
        assert blocks is not None, "reader not attached"
        header = blocks.header
        for attempt in range(max_retries):
            begin = int(header[H_SEQ])
            if begin % 2 == 0:
                n_nodes = int(header[H_N_NODES])
                nodes = blocks.nodes[:n_nodes].copy()
                backend = blocks.backend.copy()
                invariants = blocks.invariants.copy()
                if int(header[H_SEQ]) == begin:
                    self.snapshot_retries += attempt
                    return self.node_ids[:n_nodes], nodes, backend, invariants
            if on_retry is not None:
                on_retry(attempt)
        self.snapshot_retries += max_retries
        raise TornSnapshotError(
            f"shard telemetry snapshot torn {max_retries} times in a row "
            "(writer publishing continuously?)"
        )

    @property
    def t(self) -> float:
        return float(self._blocks.t[0])  # type: ignore[union-attr]

    @property
    def ticks(self) -> int:
        return int(self._blocks.header[H_TICKS])  # type: ignore[union-attr]

    def node_block(self) -> np.ndarray:
        """(n_nodes, NODE_F) view — rows follow ``node_ids`` order."""
        blocks = self._blocks
        assert blocks is not None, "reader not attached"
        return blocks.nodes[: int(blocks.header[H_N_NODES])]

    def backend_stats(self) -> BackendStats:
        blocks = self._blocks
        assert blocks is not None, "reader not attached"
        counters = blocks.backend.tolist()
        return BackendStats(**dict(zip(BACKEND_FIELDS, counters)))

    def invariant_totals(self) -> Tuple[int, int]:
        blocks = self._blocks
        assert blocks is not None, "reader not attached"
        return int(blocks.invariants[0]), int(blocks.invariants[1])

    def stage_timings(self) -> StageTimings:
        """Summed per-stage wall-clock across this shard's nodes."""
        nodes = self.node_block()
        sums = nodes[:, 0:6].sum(axis=0)
        return StageTimings(
            monitor=float(sums[0]),
            estimate=float(sums[1]),
            credits=float(sums[2]),
            auction=float(sums[3]),
            distribute=float(sums[4]),
            enforce=float(sums[5]),
        )

    def violations_by_node(self) -> Dict[str, int]:
        """Cumulative violations per node; oracle-less nodes omitted."""
        nodes = self.node_block()
        out: Dict[str, int] = {}
        for slot, node_id in enumerate(self.node_ids):
            violations = nodes[slot, 9]
            if violations >= 0:
                out[node_id] = int(violations)
        return out
