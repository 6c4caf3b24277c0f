"""The three benchmark clusters, driven only through public entry points.

Each cluster class exposes the same small surface to the benchmark loop
in :mod:`bench`:

* ``__init__`` — cluster build, VM provisioning, observer attach and
  shard start (with the warm-up periods, what ``setup_s`` times);
* ``period(t)`` — exactly one 1 s control period, the timed interval;
* ``after_period(tally, in_window=...)`` — bookkeeping outside the
  timed interval: node-period and failure counts, the paper-equation
  oracle (checked builds), and inside the check window the allocation
  digest and work counters; returns the period's raw per-layer seconds;
* ``sla_sample()`` (in-process clusters) — the guarantee checks of the
  period just run, also outside the timed interval.

A *traced* build places timing wrappers from this package in the
program's duck-typed slots (observer hooks, the rebalancer slot, node
``step`` / manager ``tick`` / shared-memory reader methods, the
operator's and the simulation's ``run``, VM provisioning and
registration) and adds nothing else.  A *checked* build adds the
oracle and counts; only on ``fleet`` does checking change what runs
inside a period (the shard controllers run their inline oracle and
keep per-sample reports), so traced builds are never checked.
Decisions are bit-identical across all three kinds of build, which the
digest comparison in :mod:`bench` asserts on every run.
"""

from __future__ import annotations

import functools
import hashlib
import math
import resource
import time
from dataclasses import replace
from multiprocessing import RawArray
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.billing.meter import BillingEngine
from repro.checking.invariants import InvariantChecker
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.cluster import Cluster
from repro.hw.node import Node
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability
from repro.obs.slo import SLOConfig, SLOPlane
from repro.placement.constraints import VcpuCountConstraint
from repro.rebalance.loop import RebalanceLoop
from repro.sim.arrivals import CloudOperator
from repro.sim.cluster_engine import ClusterSimulation
from repro.sim.node_manager import NodeManager, Shard, ShardedNodeManager
from repro.virt.hypervisor import Hypervisor

from inputs import CYCLE, ChurnInputs, StaticInputs

perf = time.perf_counter

#: Every controller runs the bulk engine with the paper's evaluation knobs.
CONFIG = ControllerConfig.paper_evaluation(engine="bulk")
#: Obs hub with decision ledger and span tracing; the flight recorder
#: is off so alert-triggered black-box dumps never touch the disk.
OBS = ObsConfig(flight_recorder_ticks=0)
STAGES = ("monitor", "estimate", "credits", "auction", "distribute", "enforce")
OBSERVERS = (("obs", "obs.hub"), ("billing", "billing.meter"), ("slo", "obs.slo"))
#: Rebalance rounds run every this many control periods on ``churn``.
REBALANCE_EVERY = 5


class Layers:
    """Seconds per layer for the period in flight (raw wall clock)."""

    def __init__(self) -> None:
        self.now: Dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        self.now[name] = self.now.get(name, 0.0) + seconds

    def take(self) -> Dict[str, float]:
        out, self.now = self.now, {}
        return out


def timed(fn, layers: Layers, name: str):
    """``fn`` wrapped so every call adds its wall time to ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            layers.add(name, perf() - start)

    return wrapper


class TimedObserver:
    """Sits in a controller's observer slot and times ``on_tick``."""

    def __init__(self, inner, layers: Layers, name: str) -> None:
        self._inner = inner
        self._layers = layers
        self._name = name

    def on_tick(self, controller, report, tick: int) -> None:
        start = perf()
        self._inner.on_tick(controller, report, tick)
        self._layers.add(self._name, perf() - start)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TimedRebalancer:
    """Sits in ``ClusterSimulation.rebalancer`` and splits each round."""

    def __init__(self, loop: RebalanceLoop, layers: Layers) -> None:
        self._loop = loop
        self._layers = layers

    def maybe_rebalance(self, cluster, control_tick: int):
        start = perf()
        plan = self._loop.maybe_rebalance(cluster, control_tick)
        total = perf() - start
        if plan is not None:
            snapshot = self._loop.snapshot_durations[-1]
            planning = self._loop.plan_durations[-1]
            self._layers.add("rebalance.snapshot", snapshot)
            self._layers.add("rebalance.plan", planning)
            self._layers.add("rebalance.oracle_execute", total - snapshot - planning)
        return plan

    def __getattr__(self, attr):
        return getattr(self._loop, attr)


def attach_observers(ctrl, node_id: str, layers: Optional[Layers]) -> None:
    """Obs hub, billing and an SLO plane on one controller."""
    Observability.attach(ctrl, OBS)
    BillingEngine.attach(ctrl, node_id=node_id)
    SLOPlane.attach(ctrl, node=node_id)
    if layers is not None:
        for slot, name in OBSERVERS:
            setattr(ctrl, slot, TimedObserver(getattr(ctrl, slot), layers, name))


def make_controller(node: Node, config: ControllerConfig) -> VirtualFrequencyController:
    return VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=node.spec.logical_cpus,
        fmax_mhz=node.spec.fmax_mhz,
        config=config,
    )


def sla_sample(vms, fmax_mhz: float, dt: float = 1.0) -> Tuple[int, int]:
    """(checks, violations) of one period, per VM.

    The ground-truth SLA criterion of
    :class:`repro.sim.arrivals.CloudOperator` (which ``churn`` runs
    itself): a VM-period is checked when one of its vCPUs demands at
    least its Eq. 2 guarantee — ``vfreq / F_MAX`` of a core — and
    violated when the scheduler delivered less than 98 % of it.
    """
    checks = violations = 0
    for vm in vms:
        share = vm.template.vfreq_mhz / fmax_mhz
        wanting = starved = False
        for vcpu in vm.vcpus:
            if vcpu.entity.demand + 1e-9 < share:
                continue
            wanting = True
            if vcpu.entity.allocated / dt < 0.98 * share:
                starved = True
        if wanting:
            checks += 1
            violations += starved
    return checks, violations


def market_sold(report) -> float:
    """Cycles sold by this tick's stage-4 auction."""
    if report.auction is None:
        return 0.0
    return report.market_initial - report.auction.market_left


def feed_reports(digest, reports) -> None:
    """Fold one period's per-node allocations into the digest."""
    for node_id in sorted(reports):
        allocations = reports[node_id].allocations
        digest.update(node_id.encode())
        digest.update(np.array(
            [allocations[p] for p in sorted(allocations)], dtype=np.float64
        ).tobytes())


class Tally:
    """Correctness and work counts gathered outside the timed interval."""

    def __init__(self) -> None:
        self.digest = hashlib.blake2b(digest_size=16)
        self.node_periods = 0
        self.failed = 0
        self.errors: List[str] = []
        self.sla_checks = 0
        self.sla_violations = 0
        self.market_sold = 0.0
        self.ledger_records = 0
        self.oracle_checks = 0
        self.violations = 0

    def node_errors(self, errors: Dict[str, BaseException], n_nodes: int) -> None:
        self.node_periods += n_nodes
        self.failed += len(errors)
        for node_id, exc in sorted(errors.items())[:3]:
            if len(self.errors) < 10:
                self.errors.append(f"{node_id}: {type(exc).__name__}: {exc}")

    def oracle(self, checker: InvariantChecker, report) -> None:
        violations = checker.check(report)
        self.oracle_checks += 1
        if violations:
            self.violations += 1
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(str(violations[0]))

    def sla(self, checks: int, violations: int) -> None:
        self.sla_checks += checks
        self.sla_violations += violations


class _ReportCluster:
    """Shared per-period bookkeeping for in-process clusters."""

    controllers: Dict[str, VirtualFrequencyController]
    layers: Layers

    def _after_reports(self, reports, errors, tally: Tally, in_window: bool) -> Dict[str, float]:
        tally.node_errors(errors, len(self.controllers))
        checked = bool(self.checkers)
        for node_id in sorted(reports):
            report = reports[node_id]
            if checked:
                tally.oracle(self.checkers[node_id], report)
                if in_window:
                    tally.market_sold += market_sold(report)
                    ledger = self.controllers[node_id].obs.ledger.ticks
                    tally.ledger_records += len(ledger[-1]["decisions"]) if ledger else 0
        if in_window:
            feed_reports(tally.digest, reports)
        for ctrl in self.controllers.values():
            ctrl.reports.clear()
        layers = self.layers.take()
        if self.traced:
            stages = 0.0
            for report in reports.values():
                for stage in STAGES:
                    seconds = getattr(report.timings, stage)
                    layers[f"core.{stage}"] = layers.get(f"core.{stage}", 0.0) + seconds
                    stages += seconds
            observers = sum(layers.get(name, 0.0) for _, name in OBSERVERS)
            layers["sim.dispatch_wait"] = layers["sim.tick"] - stages - observers
        return layers

    def spans_emitted(self) -> int:
        return sum(c.obs.tracer.spans_emitted for c in self.controllers.values())


class DenseCluster(_ReportCluster):
    """CHICLET hosts with the eval1 mix, one serial NodeManager."""

    def __init__(self, inp: StaticInputs, *, traced: bool, checked: bool) -> None:
        self.traced = traced
        self.layers = Layers()
        self.fmax_mhz = inp.spec.fmax_mhz
        self.nodes: List[Node] = []
        self.hypervisors: List[Hypervisor] = []
        self.controllers: Dict[str, VirtualFrequencyController] = {}
        self.vcpus = []
        for h, host in enumerate(inp.hosts):
            node_id = f"node-{h:04d}"
            node = Node(inp.spec, seed=h)
            hypervisor = Hypervisor(node, enforce_admission=False)
            ctrl = make_controller(node, CONFIG)
            attach_observers(ctrl, node_id, self.layers if traced else None)
            for name, tpl in host:
                vm = hypervisor.provision(tpl, name)
                ctrl.register_vm(name, tpl.vfreq_mhz, tenant=tpl.tenant)
                self.vcpus.extend(vm.vcpus)
            self.nodes.append(node)
            self.hypervisors.append(hypervisor)
            self.controllers[node_id] = ctrl
        self.checkers = (
            {k: InvariantChecker(c) for k, c in self.controllers.items()}
            if checked else {}
        )
        self.manager = NodeManager(self.controllers, parallel=False)
        self.rows = inp.rows
        self.result = None

    @property
    def n_vcpus(self) -> int:
        return len(self.vcpus)

    def sla_sample(self) -> Tuple[int, int]:
        vms = [vm for hypervisor in self.hypervisors for vm in hypervisor.vms]
        return sla_sample(vms, self.fmax_mhz)

    def period(self, t: int) -> None:
        start = perf()
        for vcpu, demand in zip(self.vcpus, self.rows[t % CYCLE]):
            vcpu.set_demand(demand)
        applied = perf()
        for node in self.nodes:
            node.step(1.0)
        stepped = perf()
        self.result = self.manager.tick(float(t))
        layers = self.layers
        layers.add("hw.demand_apply", applied - start)
        layers.add("hw.step", stepped - applied)
        layers.add("sim.tick", perf() - stepped)

    def after_period(self, tally: Tally, *, in_window: bool) -> Dict[str, float]:
        return self._after_reports(self.result, self.result.errors, tally, in_window)

    def backend_stats(self):
        return self.manager.backend_stats()

    def peak_rss_kb(self) -> float:
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def close(self) -> None:
        self.manager.close()


# -- fleet: many small hosts in worker processes ------------------------------

#: What the forked shard workers inherit (set before each ``start``).
_FLEET: Dict[str, object] = {}
#: Per-shard stats columns in the shared RawArray.
F_DEMAND, F_STEP, F_CHECKS, F_VIOLATIONS, F_SOLD, F_RSS_KB, F_FIELDS = range(7)
FLEET_SHARDS = 2


def _shard_stats(shard: int) -> np.ndarray:
    stats = np.frombuffer(_FLEET["stats"], dtype=np.float64)
    return stats.reshape(-1, F_FIELDS)[shard]


def build_fleet_shard(shard: int) -> Shard:
    """(worker) Build every ``shard``-th host; demand and step in pre_tick.

    A checked shard runs the controllers' inline oracle
    (``check_invariants``) and keeps per-sample reports for the auction
    volume; an unchecked one runs exactly what the timed run measures.
    """
    inp: StaticInputs = _FLEET["inputs"]
    checked = bool(_FLEET["checked"])
    window = _FLEET["window"]
    stats = _shard_stats(shard)
    config = CONFIG.with_overrides(check_invariants=True) if checked else CONFIG
    offsets = inp.vcpu_offsets()
    controllers: Dict[str, VirtualFrequencyController] = {}
    nodes: List[Node] = []
    vms = []
    vcpus = []
    columns: List[int] = []
    for h in range(shard, len(inp.hosts), FLEET_SHARDS):
        node = Node(inp.spec, seed=h)
        hypervisor = Hypervisor(node, enforce_admission=False)
        ctrl = make_controller(node, config)
        # Nothing in an unchecked shard consumes per-vCPU report detail.
        ctrl.keep_reports = checked
        k = offsets[h]
        for name, tpl in inp.hosts[h]:
            vm = hypervisor.provision(tpl, name)
            ctrl.register_vm(name, tpl.vfreq_mhz, tenant=tpl.tenant)
            vms.append(vm)
            vcpus.extend(vm.vcpus)
            columns.extend(range(k, k + tpl.vcpus))
            k += tpl.vcpus
        controllers[f"node-{h:04d}"] = ctrl
        nodes.append(node)
    rows = [[row[c] for c in columns] for row in inp.rows]
    fmax_mhz = inp.spec.fmax_mhz

    def count_previous_tick() -> None:
        for ctrl in controllers.values():
            for report in ctrl.reports:
                if window[0] <= report.t <= window[1]:
                    stats[F_SOLD] += market_sold(report)
            ctrl.reports.clear()

    def pre_tick(t: float) -> None:
        start = perf()
        for vcpu, demand in zip(vcpus, rows[int(t) % CYCLE]):
            vcpu.set_demand(demand)
        applied = perf()
        for node in nodes:
            node.step(1.0)
        stats[F_DEMAND] = applied - start
        stats[F_STEP] = perf() - applied
        stats[F_RSS_KB] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if checked:
            count_previous_tick()
            if window[0] <= t <= window[1]:
                checks, violations = sla_sample(vms, fmax_mhz)
                stats[F_CHECKS] += checks
                stats[F_VIOLATIONS] += violations

    return Shard(controllers, pre_tick)


class FleetCluster:
    """Small 4-thread hosts over a shared-memory ShardedNodeManager."""

    def __init__(self, inp: StaticInputs, *, traced: bool, checked: bool,
                 window: Tuple[float, float] = (0.0, 0.0)) -> None:
        self.traced = traced
        self.layers = Layers()
        self.n_vcpus = inp.n_vcpus
        self.n_nodes = len(inp.hosts)
        _FLEET.update(
            inputs=inp,
            checked=checked,
            window=window,
            stats=RawArray("d", FLEET_SHARDS * F_FIELDS),
        )
        self.stats = np.frombuffer(_FLEET["stats"], dtype=np.float64).reshape(
            FLEET_SHARDS, F_FIELDS
        )
        self.manager = ShardedNodeManager(
            {
                f"shard-{s}": functools.partial(build_fleet_shard, s)
                for s in range(FLEET_SHARDS)
            },
            telemetry="shared",
        )
        self.manager.start()
        self.plane = SLOPlane(SLOConfig(period_s=CONFIG.period_s))
        self.result = None
        self._instrumented = False

    def period(self, t: int) -> None:
        start = perf()
        self.result = self.manager.tick(float(t))
        ticked = perf()
        self.plane.observe_cluster(self.manager, t, t=float(t))
        layers = self.layers
        layers.add("sim.tick", ticked - start)
        layers.add("obs.slo_cluster", perf() - ticked)

    def after_period(self, tally: Tally, *, in_window: bool) -> Dict[str, float]:
        tally.node_errors(self.result.errors, self.n_nodes)
        readers = self.manager.readers
        if in_window:
            # Per-node allocation totals: the per-VM column is only
            # filled when something downstream materialises samples.
            for shard_id in sorted(readers):
                reader = readers[shard_id]
                tally.digest.update("|".join(reader.node_ids).encode())
                tally.digest.update(
                    np.ascontiguousarray(reader.node_block()[:, 6]).tobytes()
                )
        layers = self.layers.take()
        if not self.traced:
            return layers
        if not self._instrumented:
            for reader in readers.values():
                reader.stable_snapshot = timed(
                    reader.stable_snapshot, self.layers, "sim.shm_read"
                )
            self._instrumented = True
        # The slowest shard is the critical path of the barrier.
        slowest = None
        for s in range(FLEET_SHARDS):
            timings = readers[f"shard-{s}"].stage_timings()
            row = self.stats[s]
            inside = row[F_DEMAND] + row[F_STEP] + timings.total
            if slowest is None or inside > slowest[0]:
                slowest = (inside, row.copy(), timings)
        inside, row, timings = slowest
        layers["hw.demand_apply"] = row[F_DEMAND]
        layers["hw.step"] = row[F_STEP]
        for stage in STAGES:
            layers[f"core.{stage}"] = getattr(timings, stage)
        layers["sim.dispatch_wait"] = layers["sim.tick"] - inside
        # The SLO plane's self time; its shared-memory reads are a layer.
        layers["obs.slo_cluster"] -= layers.get("sim.shm_read", 0.0)
        return layers

    def checked_counts(self, tally: Tally) -> None:
        """Fold the in-worker counts of a checked build into ``tally``."""
        tally.sla(int(self.stats[:, F_CHECKS].sum()),
                  int(self.stats[:, F_VIOLATIONS].sum()))
        tally.market_sold += float(self.stats[:, F_SOLD].sum())
        checks, violations = self.manager.invariant_totals()
        tally.oracle_checks += checks
        tally.violations += violations
        tally.failed += violations

    def seqlock_retries(self) -> int:
        return sum(r.snapshot_retries for r in self.manager.readers.values())

    def backend_stats(self):
        return self.manager.backend_stats()

    def peak_rss_kb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(own + self.stats[:, F_RSS_KB].sum())

    def close(self) -> None:
        self.plane.close()
        self.manager.close()


# -- churn: arrivals, departures, admission and rebalance ---------------------

#: Admission is the classic vCPU-count BestFit at the paper's §IV-C
#: consolidation factor: it over-commits Eq. 7 on some hosts, which is
#: the pressure the rebalance loop relieves by live migration.
ADMISSION = VcpuCountConstraint(consolidation_factor=1.8)


class ChurnCluster(_ReportCluster):
    """A ClusterSimulation run by a CloudOperator, with rebalance.

    Each period hands the operator's public ``run`` one period of
    horizon and the requests that refill the vCPU population, so
    admission (BestFit under Eq. 7), provisioning, the simulation
    period and the operator's SLA check are all the program's code.
    Departures are the one part done here: the operator retires a VM
    even while it is migrating, after which the simulation's cut-over
    raises ``KeyError``, so requests reach the operator with an
    infinite lifetime and the benchmark destroys and unregisters each
    VM when its lifetime is up and it is not in flight.
    """

    def __init__(self, inp: ChurnInputs, *, traced: bool, checked: bool,
                 seed: int = 0) -> None:
        self.traced = traced
        self.inp = inp
        self.layers = Layers()
        self.loop = RebalanceLoop(every=REBALANCE_EVERY, seed=seed, dialect="arrays")
        self.sim = ClusterSimulation(
            Cluster.homogeneous(inp.spec, inp.hosts),
            controller_config=CONFIG,
            dt=1.0,
            seed=seed,
            enforce_admission=False,
            keep_reports=True,
            parallel=False,
            rebalancer=TimedRebalancer(self.loop, self.layers) if traced else self.loop,
        )
        self.operator = CloudOperator(
            self.sim, ADMISSION, lambda event: inp.workloads[event.name]
        )
        self.controllers = {
            node_id: rt.controller for node_id, rt in self.sim.runtimes.items()
        }
        for node_id, ctrl in self.controllers.items():
            attach_observers(ctrl, node_id, self.layers if traced else None)
        self.checkers = (
            {k: InvariantChecker(c) for k, c in self.controllers.items()}
            if checked else {}
        )
        self.marks: Dict[str, float] = {}
        if traced:
            self._instrument()
        self.lifetime = {e.name: e.lifetime_s for e in inp.requests}
        self.departures: List[Tuple[float, str]] = []
        self.in_flight: Dict[str, float] = {}
        self.migrations_seen = 0
        self.next_request = 0
        self.rejected = 0
        self.sla_seen = (0, 0)
        self.n_vcpus = 0
        self.retiring: List[Tuple[str, str]] = []
        self.batch = []
        self._plan_next()

    def _instrument(self) -> None:
        """Timing wrappers for the traced build (instance attributes)."""
        layers, marks = self.layers, self.marks

        def stamped(fn, before: str, after: str):
            def wrapper(*args, **kwargs):
                marks[before] = perf()
                marks[before + ".provision"] = layers.now.get("virt.provision", 0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    marks[after] = perf()

            return wrapper

        def first_step(step):
            def wrapper(dt):
                marks.setdefault("step", perf())
                return step(dt)

            return wrapper

        self.operator.run = stamped(self.operator.run, "op_in", "op_out")
        self.sim.run = stamped(self.sim.run, "run_in", "run_out")
        for runtime in self.sim.runtimes.values():
            runtime.node.step = first_step(timed(runtime.node.step, layers, "hw.step"))
            hypervisor, ctrl = runtime.hypervisor, runtime.controller
            for obj, method in ((hypervisor, "provision"), (hypervisor, "destroy"),
                                (ctrl, "register_vm"), (ctrl, "unregister_vm")):
                setattr(obj, method, timed(getattr(obj, method), layers, "virt.provision"))
        manager = self.sim.node_manager
        manager.tick = timed(manager.tick, layers, "sim.tick")

    def _plan_next(self) -> None:
        """Pick the next period's departures and arrivals (untimed)."""
        now = self.sim.t
        host_of: Dict[str, str] = {}
        n_vcpus = 0
        vcpus_of: Dict[str, int] = {}
        memory_of: Dict[str, int] = {}
        for node_id, runtime in self.sim.runtimes.items():
            for vm in runtime.hypervisor.vms:
                host_of[vm.name] = node_id
                vcpus_of[vm.name] = vm.num_vcpus
                memory_of[vm.name] = vm.template.memory_mb
                n_vcpus += vm.num_vcpus
        self.n_vcpus = n_vcpus
        for event in self.batch:
            if event.name in host_of:
                self.departures.append((event.t + self.lifetime[event.name], event.name))
            else:
                self.rejected += 1
        model = self.sim.migration_model
        events = self.sim.migrations
        for event in events[self.migrations_seen:]:
            cut_over = event.t + model.transfer_seconds(memory_of[event.vm_name])
            self.in_flight[event.vm_name] = cut_over
        self.migrations_seen = len(events)
        for name in [n for n, due in self.in_flight.items() if due <= now + 1e-9]:
            del self.in_flight[name]
        keep, self.retiring = [], []
        for due, name in self.departures:
            if due > now or name in self.in_flight:
                keep.append((due, name))
            else:
                self.retiring.append((host_of[name], name))
                n_vcpus -= vcpus_of[name]
        self.departures = keep
        requests = self.inp.requests
        self.batch = []
        while n_vcpus < self.inp.target_vcpus and self.next_request < len(requests):
            event = requests[self.next_request]
            self.batch.append(replace(event, t=now, lifetime_s=math.inf))
            n_vcpus += event.template.vcpus
            self.next_request += 1

    def sla_sample(self) -> Tuple[int, int]:
        """The operator's own SLA counts for the period just run."""
        outcome = self.operator.outcome
        seen = (outcome.sla_checks, outcome.sla_violations)
        checks, violations = seen[0] - self.sla_seen[0], seen[1] - self.sla_seen[1]
        self.sla_seen = seen
        return checks, violations

    # -- the period --------------------------------------------------------

    def period(self, t: int) -> None:
        runtimes = self.sim.runtimes
        for node_id, name in self.retiring:
            runtimes[node_id].hypervisor.destroy(name)
            self.sim.node_manager.unregister_vm(node_id, name)
        self.operator.run(self.batch, self.sim.t + CONFIG.period_s)

    def after_period(self, tally: Tally, *, in_window: bool) -> Dict[str, float]:
        manager = self.sim.node_manager
        if self.traced:
            m = self.marks
            admit = m["run_in"] - m["op_in"]
            admit -= m["run_in.provision"] - m["op_in.provision"]
            self.layers.add("placement.admit", admit)
            self.layers.add("hw.demand_apply", m["step"] - m["run_in"])
            self.layers.add("operator.sla_check", m["op_out"] - m["run_out"])
            m.clear()
        layers = self._after_reports(
            manager.last_reports, manager.last_errors, tally, in_window
        )
        self._plan_next()
        return layers

    def backend_stats(self):
        return self.sim.node_manager.backend_stats()

    def peak_rss_kb(self) -> float:
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def close(self) -> None:
        self.sim.node_manager.close()
        self.loop.close()


def build(workload: str, inputs, *, traced: bool, checked: bool, seed: int,
          window: Tuple[float, float] = (0.0, 0.0)):
    if traced and checked:
        raise ValueError("a build is traced or checked, not both")
    if workload == "dense":
        return DenseCluster(inputs, traced=traced, checked=checked)
    if workload == "fleet":
        return FleetCluster(inputs, traced=traced, checked=checked, window=window)
    if workload == "churn":
        return ChurnCluster(inputs, traced=traced, checked=checked, seed=seed)
    raise ValueError(f"unknown workload {workload!r}")
