"""Multi-node control plane.

The paper's controller is strictly per-node — each instance owns one
host's kernel surfaces and never looks across the rack (§III-B).  What
a deployment still needs is the thin layer above: something that holds
N per-node controllers, fires their iterations together, and exposes
aggregate health (stage timings, syscall budgets) to the operator.
:class:`NodeManager` is that layer.

Because controllers are share-nothing — each one touches only its own
node's cgroupfs/procfs/sysfs — their ticks can run concurrently on a
thread pool without any cross-node ordering concerns: the reports of a
parallel tick are identical to running the same controllers back to
back.  One ``tick(t)`` is a barrier: it returns only when every node's
iteration has finished, mirroring the per-period cadence of the
single-node engines.

Serially, the manager runs its bulk-engine controllers of equal
config as one group through a :class:`~repro.core.bulk.BulkExecutor`:
their per-vCPU state moves into one shared
:class:`~repro.core.soa.SlotArena`, and the array stages become one
pass over the group instead of one per host.  Each host keeps its own
controller, market and report, and the reports are those of ticking
the hosts one by one; only a batched stage's wall time is shared out,
by vCPU rows (see :class:`~repro.core.timings.StageTimings`).  This
speeds up a simulated cluster; a real host runs its own controller.

Controllers are any :class:`~repro.core.api.Controller`; the manager
additionally surfaces backend batch statistics for controllers that
expose a :class:`~repro.core.backend.HostBackend` (duck-typed — a
controller without ``.backend`` simply contributes nothing).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import resource_tracker
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.api import Controller
from repro.core.backend import BackendStats
from repro.core.bulk import BulkExecutor, Outcome
from repro.core.config import ControllerConfig
from repro.core.controller import (
    ControllerReport,
    StageTimings,
    VirtualFrequencyController,
)
from repro.core.soa import SlotArena
from repro.obs.logging import get_logger
from repro.sim.shard_telemetry import (
    Catalog,
    ShardTelemetryReader,
    ShardTelemetryWriter,
)

log = get_logger("repro.node_manager")


class TickResult(Dict[str, ControllerReport]):
    """Per-node reports of one control-plane tick, plus failures.

    Behaves exactly like the plain dict :meth:`NodeManager.tick` used
    to return (existing callers index and iterate it unchanged);
    :attr:`errors` carries the exception of every node whose tick
    raised this round, keyed by node id.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.errors: Dict[str, BaseException] = {}


class NodeManager:
    """Runs N per-node controllers as one control plane.

    ``parallel=False`` (or a single node) ticks serially in
    registration order, running batchable controllers as groups (see
    the module docstring) — cheaper than threads for the small hosts of
    a shard.  ``parallel=True`` ticks every controller's own ``tick``
    on a thread pool.
    """

    def __init__(
        self,
        controllers: Optional[Dict[str, Controller]] = None,
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> None:
        self.controllers: Dict[str, Controller] = dict(controllers or {})
        self.parallel = parallel
        self.max_workers = max_workers
        self.last_reports: Dict[str, ControllerReport] = {}
        #: Exceptions of the latest tick, keyed by node id (reset each
        #: tick) — a failed node never aborts the barrier.
        self.last_errors: Dict[str, BaseException] = {}
        #: Cumulative failed-tick count per node id.
        self.error_counts: Dict[str, int] = {}
        self.ticks = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Shared slot arenas of the serial batched path, by history
        #: length, and the group executors, by first node id.
        self._arenas: Dict[int, SlotArena] = {}
        self._executors: Dict[str, BulkExecutor] = {}

    # -- node registry ----------------------------------------------------------

    def add_node(self, node_id: str, controller: Controller) -> None:
        if node_id in self.controllers:
            raise ValueError(f"node already managed: {node_id}")
        self.controllers[node_id] = controller

    def remove_node(self, node_id: str) -> Controller:
        controller = self.controllers.pop(node_id)
        self.last_reports.pop(node_id, None)
        self.last_errors.pop(node_id, None)
        self._leave_arena(controller)
        return controller

    def replace_node(self, node_id: str, controller: Controller) -> Controller:
        """Swap in a fresh controller for a node (crash recovery).

        The old controller is returned; error history for the node is
        kept — the replacement is the *recovery*, not amnesia.
        """
        if node_id not in self.controllers:
            raise KeyError(f"node not managed: {node_id}")
        old = self.controllers[node_id]
        self.controllers[node_id] = controller
        self.last_errors.pop(node_id, None)
        self._leave_arena(old)
        log.info(
            "node controller replaced",
            extra={
                "node": node_id,
                "errors": self.error_counts.get(node_id, 0),
            },
        )
        return old

    @property
    def num_nodes(self) -> int:
        return len(self.controllers)

    # -- VM routing -------------------------------------------------------------

    def register_vm(
        self,
        node_id: str,
        vm_name: str,
        vfreq_mhz: float,
        *,
        tenant: Optional[str] = None,
    ) -> None:
        """Declare a VM on the named node."""
        self.controllers[node_id].register_vm(vm_name, vfreq_mhz, tenant=tenant)

    def unregister_vm(self, node_id: str, vm_name: str) -> None:
        self.controllers[node_id].unregister_vm(vm_name)

    # -- the control plane tick -------------------------------------------------

    def tick(self, t: float, node_ids: Optional[List[str]] = None) -> TickResult:
        """One iteration on every (selected) node; barrier semantics.

        Returns the per-node reports (a :class:`TickResult` — a dict,
        as before), also kept in :attr:`last_reports`, which holds this
        tick's reports only: a node whose tick raised, or that was left
        out of ``node_ids``, has none there.  Reports are
        independent of execution order because controllers share no
        state — verified by the node-manager integration tests.

        Faults are isolated per node: a controller whose tick raises
        (crashed process, dead kernel surface) is recorded in
        ``result.errors`` / :attr:`last_errors` and every other node
        still completes its iteration on time.  The failed controller
        stays registered so the operator can ``replace_node`` it after
        a snapshot restore.
        """
        ids = list(self.controllers) if node_ids is None else list(node_ids)
        result = TickResult()
        self.last_errors = {}
        if self.parallel and len(ids) > 1:
            # Threads must not share arena columns.
            self._release_arenas()
            futures = {
                node_id: self._pool().submit(self.controllers[node_id].tick, t)
                for node_id in ids
            }
            for node_id, future in futures.items():
                try:
                    result[node_id] = future.result()
                except Exception as exc:
                    self._record_error(node_id, exc, result)
        else:
            outcomes = self._tick_serial(ids, t)
            for node_id in ids:
                outcome = outcomes[node_id]
                if isinstance(outcome, BaseException):
                    self._record_error(node_id, outcome, result)
                else:
                    result[node_id] = outcome
        self.last_reports = dict(result)
        self.ticks += 1
        return result

    def _tick_serial(self, ids: List[str], t: float) -> Dict[str, Outcome]:
        """One serial barrier tick; batchable nodes run as groups.

        A bulk-engine :class:`VirtualFrequencyController` without a
        resilience policy or a patched ``tick`` joins the group of
        nodes with an equal config, whose stages a
        :class:`~repro.core.bulk.BulkExecutor` runs as array passes over
        the group's shared :class:`~repro.core.soa.SlotArena`.  Every
        other controller runs its own ``tick``.  Reports are identical
        either way (the executor's contract).
        """
        outcomes: Dict[str, Outcome] = {}
        groups: List[Tuple[ControllerConfig, List[str]]] = []
        for node_id in ids:
            ctrl = self.controllers[node_id]
            if (
                type(ctrl) is VirtualFrequencyController
                and ctrl._table is not None
                and ctrl.resilience is None
                and "tick" not in ctrl.__dict__
            ):
                cfg = ctrl.config
                for group_cfg, members in groups:
                    if group_cfg is cfg or group_cfg == cfg:
                        members.append(node_id)
                        break
                else:
                    groups.append((cfg, [node_id]))
                continue
            try:
                outcomes[node_id] = ctrl.tick(t)
            except Exception as exc:
                outcomes[node_id] = exc
        executors: Dict[str, BulkExecutor] = {}
        for cfg, members in groups:
            arena = self._arenas.get(cfg.history_len)
            if arena is None:
                arena = self._arenas[cfg.history_len] = SlotArena(
                    cfg.history_len
                )
            ctrls = [self.controllers[node_id] for node_id in members]
            for ctrl in ctrls:
                ctrl.use_arena(arena)
            executor = executors[members[0]] = (
                self._executors.get(members[0]) or BulkExecutor()
            )
            for node_id, ctrl, outcome in zip(
                members, ctrls, executor.tick(ctrls, t)
            ):
                if isinstance(outcome, BaseException):
                    ctrl.tick_failed(outcome)
                outcomes[node_id] = outcome
        self._executors = executors
        return outcomes

    def _leave_arena(self, controller: Controller) -> None:
        """Give a controller on a shared arena a private one again."""
        table = getattr(controller, "_table", None)
        if table is not None and table.arena in self._arenas.values():
            controller.use_arena(None)

    def _release_arenas(self) -> None:
        """Take every controller off the shared arenas."""
        if self._arenas:
            for controller in self.controllers.values():
                self._leave_arena(controller)
            self._arenas = {}
            self._executors = {}

    def _record_error(
        self, node_id: str, exc: BaseException, result: TickResult
    ) -> None:
        result.errors[node_id] = exc
        self.last_errors[node_id] = exc
        self.error_counts[node_id] = self.error_counts.get(node_id, 0) + 1
        log.error(
            "node tick failed: %s: %s", type(exc).__name__, exc,
            extra={
                "node": node_id,
                "errors": self.error_counts[node_id],
            },
        )
        # Duck-typed flight-recorder trigger: any controller carrying an
        # observability hub gets a black-box dump of its final ticks
        # (idempotent — the controller's own wrapper usually dumped
        # already; the recorder dedupes per newest frame).
        obs = getattr(self.controllers.get(node_id), "obs", None)
        if obs is not None:
            obs.on_node_error(node_id, exc)

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            workers = self.max_workers or min(32, max(1, len(self.controllers)))
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="node-tick"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "NodeManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- aggregate telemetry ----------------------------------------------------

    def aggregate_timings(self) -> StageTimings:
        """Summed per-stage wall-clock across the latest reports."""
        total = StageTimings()
        for report in self.last_reports.values():
            t = report.timings
            total.monitor += t.monitor
            total.estimate += t.estimate
            total.credits += t.credits
            total.auction += t.auction
            total.distribute += t.distribute
            total.enforce += t.enforce
        return total

    def backend_stats(self) -> BackendStats:
        """Summed syscall counters across all nodes' backends."""
        total = BackendStats()
        for controller in self.controllers.values():
            backend = getattr(controller, "backend", None)
            if backend is not None:
                total = total + backend.stats
        return total

    def invariant_totals(self) -> Tuple[int, int]:
        """(checks, violations) summed over nodes with inline oracles.

        Zero/zero when no controller runs with ``check_invariants``;
        a non-zero second element is the cluster-wide page-an-operator
        signal behind ``vfreq_invariant_violations_total``.
        """
        checks = violations = 0
        for controller in self.controllers.values():
            checker = getattr(controller, "invariant_checker", None)
            if checker is not None:
                checks += checker.checks_total
                violations += checker.violations_total
        return checks, violations

    def invariant_violations_by_node(self) -> Dict[str, int]:
        """Cumulative violation count per node (inline oracles only).

        Nodes without an inline checker are omitted — the rebalancer's
        :class:`~repro.rebalance.arrays.ClusterStateArrays` snapshot
        reads this to weight guarantee pressure with observed violations.
        """
        out: Dict[str, int] = {}
        for node_id, controller in self.controllers.items():
            checker = getattr(controller, "invariant_checker", None)
            if checker is not None:
                out[node_id] = checker.violations_total
        return out


# -- sharded (multi-process) control plane --------------------------------------
#
# Above a few hundred nodes the thread-pool barrier saturates on the
# GIL: every controller tick is pure Python over NumPy arrays, so
# threads serialize exactly where the work is.  The sharded manager
# splits the node set into groups, builds each group *inside* a worker
# process (controllers hold kernel-surface handles and RNG state that
# must never cross a pickle boundary), and ticks the groups in a
# :class:`~concurrent.futures.ProcessPoolExecutor`.
#
# Affinity is structural: each shard owns a dedicated single-worker
# executor, so every task for that shard lands on the process holding
# its state.  Only the shard *factory* crosses the process boundary on
# the way in (a picklable module-level callable); each tick, what comes
# back is the error map plus the name of a shared-memory segment the
# worker published its telemetry into (:mod:`repro.sim.shard_telemetry`).


class Shard:
    """What a shard factory builds inside its worker process.

    ``controllers`` maps node id to a live per-node controller;
    ``pre_tick`` (optional) runs in-worker before every barrier tick —
    the hook simulations use to advance node workloads by one period
    (mirroring the ``node.step(dt); manager.tick(t)`` cadence of the
    in-process drivers).  Neither the controllers nor the hook is ever
    pickled; only the factory that creates them is.
    """

    def __init__(
        self,
        controllers: Dict[str, Controller],
        pre_tick: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.controllers = controllers
        self.pre_tick = pre_tick


#: Per-worker singleton: the shard this process owns.  Safe as a module
#: global because every shard executor runs ``max_workers=1``.
_WORKER_SHARD: Optional[Tuple[Shard, NodeManager]] = None

#: Per-worker telemetry segment, created on the first tick and reused
#: (same buffers) for every tick after.
_WORKER_TELEMETRY: Optional[ShardTelemetryWriter] = None


def _shard_build(
    factory: Callable[[], Union[Shard, Dict[str, Controller]]],
) -> List[str]:
    """(worker) Build the shard's node group; return its node ids."""
    global _WORKER_SHARD
    built = factory()
    shard = built if isinstance(built, Shard) else Shard(dict(built))
    _WORKER_SHARD = (shard, NodeManager(shard.controllers, parallel=False))
    return sorted(shard.controllers)


def _shard_tick_telemetry(
    t: float,
) -> Tuple[Dict[str, Tuple[str, str]], str, int, Optional[Catalog]]:
    """(worker) One barrier tick over this worker's node group,
    published into shared memory.

    Per-node reports stay in this process (``fetch_report`` pulls one
    on demand); what crosses the pickle boundary is the error map —
    exceptions flattened to ``(type_name, message)`` pairs, since live
    exception objects may drag unpicklable controller state through
    their traceback frames — the segment name and the catalog version,
    plus the catalog itself only when it changed.
    """
    global _WORKER_TELEMETRY
    shard, manager = _WORKER_SHARD  # type: ignore[misc]
    if shard.pre_tick is not None:
        shard.pre_tick(t)
    result = manager.tick(t)
    errors = {
        node_id: (type(exc).__name__, str(exc))
        for node_id, exc in result.errors.items()
    }
    if _WORKER_TELEMETRY is None:
        _WORKER_TELEMETRY = ShardTelemetryWriter()
    name, version, catalog = _WORKER_TELEMETRY.publish(manager, t)
    return errors, name, version, catalog


def _shard_fetch_report(node_id: str) -> Optional[ControllerReport]:
    """(worker) One node's latest full report (lazy explain path)."""
    return _WORKER_SHARD[1].last_reports.get(node_id)  # type: ignore[index]


def _shard_close_telemetry() -> None:
    """(worker) Destroy this worker's telemetry segment, if any."""
    global _WORKER_TELEMETRY
    if _WORKER_TELEMETRY is not None:
        _WORKER_TELEMETRY.close(unlink=True)
        _WORKER_TELEMETRY = None


def _shard_register_vm(
    node_id: str, vm_name: str, vfreq_mhz: float, tenant: Optional[str]
) -> None:
    _WORKER_SHARD[1].register_vm(  # type: ignore[index]
        node_id, vm_name, vfreq_mhz, tenant=tenant
    )


def _shard_unregister_vm(node_id: str, vm_name: str) -> None:
    _WORKER_SHARD[1].unregister_vm(node_id, vm_name)  # type: ignore[index]


class RemoteNodeError(RuntimeError):
    """A node tick failure reconstructed from a worker process.

    Carries the original exception's type name and message; the live
    object stayed in the worker (tracebacks don't pickle cleanly and
    may reference controller internals).
    """

    def __init__(self, exc_type: str, message: str) -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


class ShardedNodeManager:
    """Runs node groups in worker processes; one barrier per tick.

    Same contract as :class:`NodeManager`, except that per-node
    reports are fetched on demand (see below) — failed nodes land in
    ``result.errors`` without aborting the barrier, and the aggregate telemetry methods
    (``aggregate_timings`` / ``backend_stats`` / ``invariant_totals``)
    report cluster-wide sums.  Fault isolation is two-level: a node
    whose tick raises is contained by the in-worker :class:`NodeManager`
    (its shard's other nodes still report), and a shard whose *process*
    dies marks all of its nodes failed while the remaining shards
    complete; ``restart_shard`` rebuilds a dead shard from its factory.

    ``shard_factories`` maps shard id to a picklable zero-argument
    callable (module-level function or :func:`functools.partial` of
    one) returning either a :class:`Shard` or a plain
    ``{node_id: controller}`` dict.  Groups are built lazily inside the
    workers on first use — construct, then tick.

    Each tick, workers publish compact per-node arrays into a
    ``multiprocessing.shared_memory`` segment
    (:mod:`repro.sim.shard_telemetry`) and ``tick`` returns an *empty*
    :class:`TickResult` (errors still populated).  Aggregate telemetry
    — ``aggregate_timings`` / ``backend_stats`` / ``invariant_totals``
    / ``invariant_violations_by_node`` — reads the mapped segments with
    no extra round trips, and a full report is fetched on demand via
    :meth:`fetch_report`.  This is what keeps a 1000-node tick inside
    the 1 s control period.  ``telemetry`` only accepts ``"shared"``;
    the keyword stays because existing callers (the benchmark driver
    among them) pass it.

    Observability stays per-node and in-worker: the inner manager's
    flight-recorder trigger fires in the process that owns the hub, so
    black-box dumps land exactly as they do single-process.  What this
    layer aggregates is the summed telemetry.
    """

    def __init__(
        self,
        shard_factories: Mapping[
            str, Callable[[], Union[Shard, Dict[str, Controller]]]
        ],
        *,
        mp_context: Optional[str] = None,
        telemetry: str = "shared",
    ) -> None:
        if not shard_factories:
            raise ValueError("at least one shard factory is required")
        if telemetry != "shared":
            raise ValueError(f"telemetry must be 'shared', got {telemetry!r}")
        self.shard_factories = dict(shard_factories)
        methods = multiprocessing.get_all_start_methods()
        method = mp_context or ("fork" if "fork" in methods else "spawn")
        self._ctx = multiprocessing.get_context(method)
        self._pools: Dict[str, ProcessPoolExecutor] = {}
        #: node ids per shard, learned from the in-worker build.
        self.nodes_by_shard: Dict[str, List[str]] = {}
        self.last_reports: Dict[str, ControllerReport] = {}
        self.last_errors: Dict[str, BaseException] = {}
        self.error_counts: Dict[str, int] = {}
        self.ticks = 0
        self._started = False
        self._backend_stats = BackendStats()
        self._invariant_totals = (0, 0)
        #: Telemetry segment views, one per shard.
        self.readers: Dict[str, ShardTelemetryReader] = {}

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Spin up one single-worker pool per shard and build in-worker."""
        if self._started:
            return
        # Start the parent's resource tracker *before* the pools fork:
        # forked workers then inherit it, making it the one shared
        # tracker the segment-cleanup bookkeeping assumes (see the
        # shard_telemetry module docstring).  Without this, worker and
        # parent each lazily start their own tracker and the parent's
        # attach-registration is never balanced, warning about a
        # phantom leak at exit.
        resource_tracker.ensure_running()
        futures = {}
        for shard_id, factory in self.shard_factories.items():
            pool = ProcessPoolExecutor(max_workers=1, mp_context=self._ctx)
            self._pools[shard_id] = pool
            futures[shard_id] = pool.submit(_shard_build, factory)
        for shard_id, future in futures.items():
            self.nodes_by_shard[shard_id] = future.result()
        self._started = True
        log.info(
            "sharded control plane started",
            extra={
                "shards": len(self._pools),
                "nodes": self.num_nodes,
            },
        )

    def restart_shard(self, shard_id: str) -> None:
        """Rebuild a dead shard's worker from its factory (recovery)."""
        pool = self._pools.pop(shard_id, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        reader = self.readers.pop(shard_id, None)
        if reader is not None:
            # The dead worker never got to unlink its segment; do it
            # here so restarts don't leak /dev/shm files.
            reader.unlink()
            reader.close()
        fresh = ProcessPoolExecutor(max_workers=1, mp_context=self._ctx)
        self._pools[shard_id] = fresh
        self.nodes_by_shard[shard_id] = fresh.submit(
            _shard_build, self.shard_factories[shard_id]
        ).result()

    def close(self) -> None:
        """Shut down workers and reset to a cleanly re-start()able state.

        Telemetry segments are unlinked in-worker *before* the pools go
        down, and every per-run registry (``nodes_by_shard``,
        ``last_reports`` / ``last_errors`` / ``error_counts``, telemetry
        sums, tick count) is cleared — a closed manager behaves exactly
        like a freshly constructed one, so ``close(); start()`` round
        trips (each ``start`` rebuilds the shards from their factories).
        """
        for shard_id, pool in self._pools.items():
            try:
                pool.submit(_shard_close_telemetry).result(timeout=30)
            except Exception:
                pass  # dead worker: nothing left to unlink in-process
            pool.shutdown(wait=True)
        for reader in self.readers.values():
            reader.close()
        self._pools = {}
        self.readers = {}
        self.nodes_by_shard = {}
        self.last_reports = {}
        self.last_errors = {}
        self.error_counts = {}
        self.ticks = 0
        self._backend_stats = BackendStats()
        self._invariant_totals = (0, 0)
        self._started = False

    def __enter__(self) -> "ShardedNodeManager":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def num_nodes(self) -> int:
        return sum(len(ids) for ids in self.nodes_by_shard.values())

    @property
    def num_shards(self) -> int:
        return len(self.shard_factories)

    def shard_of(self, node_id: str) -> str:
        for shard_id, ids in self.nodes_by_shard.items():
            if node_id in ids:
                return shard_id
        raise KeyError(f"node not managed: {node_id}")

    # -- VM routing -------------------------------------------------------------

    def register_vm(
        self,
        node_id: str,
        vm_name: str,
        vfreq_mhz: float,
        *,
        tenant: Optional[str] = None,
    ) -> None:
        self.start()
        shard_id = self.shard_of(node_id)
        self._pools[shard_id].submit(
            _shard_register_vm, node_id, vm_name, vfreq_mhz, tenant
        ).result()

    def unregister_vm(self, node_id: str, vm_name: str) -> None:
        self.start()
        shard_id = self.shard_of(node_id)
        self._pools[shard_id].submit(
            _shard_unregister_vm, node_id, vm_name
        ).result()

    # -- the control plane tick -------------------------------------------------

    def tick(self, t: float) -> TickResult:
        """One iteration on every node of every shard; barrier semantics.

        The result carries errors only; everything else lands in the
        shared-memory segments (see the class docstring).
        """
        self.start()
        self.last_errors = {}
        result = TickResult()
        futures = {
            shard_id: pool.submit(_shard_tick_telemetry, t)
            for shard_id, pool in self._pools.items()
        }
        stats = BackendStats()
        checks = violations = 0
        for shard_id, future in futures.items():
            try:
                errors, segment, version, catalog = future.result()
            except Exception as exc:
                self.shard_failed(shard_id, exc, result)
                continue
            reader = self.readers.get(shard_id)
            if reader is None:
                # start() launched the parent's resource tracker before
                # the pools, so fork AND spawn workers share it (spawn
                # ships the tracker fd in its preparation data) — the
                # creating worker's unlink is the single clean-up point
                # and the parent must not unregister on top of it.
                reader = self.readers[shard_id] = ShardTelemetryReader()
            reader.update(segment, version, catalog)
            for node_id, (exc_type, message) in errors.items():
                self._record_error(
                    node_id, RemoteNodeError(exc_type, message), result
                )
            shard_totals = reader.invariant_totals()
            stats = stats + reader.backend_stats()
            checks += shard_totals[0]
            violations += shard_totals[1]
        self._backend_stats = stats
        self._invariant_totals = (checks, violations)
        self.ticks += 1
        return result

    def fetch_report(self, node_id: str) -> Optional[ControllerReport]:
        """Pull one node's latest full report from its worker (lazy).

        The explain / flight-recorder escape hatch: the compact arrays
        cover every aggregate, and the rare flow that needs sample
        lists or per-path allocations pays one pickle for exactly one
        node.  :attr:`last_reports` caches what was fetched, nothing
        else.  ``None`` when the node has not completed a tick.
        """
        self.start()
        shard_id = self.shard_of(node_id)
        report = self._pools[shard_id].submit(
            _shard_fetch_report, node_id
        ).result()
        if report is not None:
            self.last_reports[node_id] = report
        return report

    def shard_failed(
        self,
        shard_id: str,
        exc: BaseException,
        result: Optional[TickResult] = None,
    ) -> None:
        """Mark every node of a shard failed for the latest tick.

        A shard whose process died, or whose telemetry could not be
        read (a torn shared-memory snapshot, see
        :meth:`repro.obs.slo.SLOPlane.observe_cluster`), lands in
        :attr:`last_errors` and :attr:`error_counts` node by node.
        """
        result = TickResult() if result is None else result
        for node_id in self.nodes_by_shard.get(shard_id, []):
            self._record_error(node_id, exc, result)

    def _record_error(
        self, node_id: str, exc: BaseException, result: TickResult
    ) -> None:
        result.errors[node_id] = exc
        self.last_errors[node_id] = exc
        self.error_counts[node_id] = self.error_counts.get(node_id, 0) + 1
        log.error(
            "node tick failed: %s: %s", type(exc).__name__, exc,
            extra={
                "node": node_id,
                "errors": self.error_counts[node_id],
            },
        )

    # -- aggregate telemetry ----------------------------------------------------

    def aggregate_timings(self) -> StageTimings:
        """Summed per-stage wall-clock across the latest tick, read
        from the mapped telemetry blocks — no round trips."""
        total = StageTimings()
        for reader in self.readers.values():
            shard = reader.stage_timings()
            total.monitor += shard.monitor
            total.estimate += shard.estimate
            total.credits += shard.credits
            total.auction += shard.auction
            total.distribute += shard.distribute
            total.enforce += shard.enforce
        return total

    def backend_stats(self) -> BackendStats:
        """Cluster-wide syscall counters (as of the latest tick)."""
        return self._backend_stats

    def invariant_totals(self) -> Tuple[int, int]:
        """(checks, violations) cluster-wide (as of the latest tick)."""
        return self._invariant_totals

    def invariant_violations_by_node(self) -> Dict[str, int]:
        """Per-node cumulative violation counts, merged across shards.

        Reads the mapped telemetry blocks directly — zero round trips,
        which is what lets the rebalancer snapshot a 1000-node cluster
        every round.  A dead shard contributes what it last published
        (its nodes are already flagged via ``error_counts``); the
        counters are cumulative in-worker, so the next successful tick
        catches the totals up.
        """
        out: Dict[str, int] = {}
        for reader in self.readers.values():
            out.update(reader.violations_by_node())
        return out
