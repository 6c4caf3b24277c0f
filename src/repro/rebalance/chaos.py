"""Coarse flow-level chaos+churn cluster for rebalancer benchmarks.

The full-fidelity :class:`~repro.sim.cluster_engine.ClusterSimulation`
runs every controller stage per vCPU per tick — perfect for tens of
nodes, hopeless for the headline 200-node / 10k-VM scenario.  This
module keeps only the accounting the rebalancer acts on: per-node
committed guarantee MHz vs. *effective* capacity (chaos events degrade
a node for a window, which is exactly what turns an Eq. 7-admissible
placement into guarantee pressure), Poisson VM churn, and pre-copy
migration blackouts.

Every random draw — arrival gaps, templates, lifetimes, chaos event
times/targets/severities — is pre-generated at construction from the
seed (repo convention, cf. :mod:`repro.checking.fuzz`), so a run is a
pure function of its :class:`ChaosConfig` and the rebalance
configuration: same seed, same result, byte for byte.

The accounting lives in parallel NumPy arrays indexed by node / VM
slot, reached by name through two name-to-slot dicts.  That makes the
three per-step hot paths at the 1000-node / 50k-VM scale point flat
array work: best-fit admission is one masked reduction instead of a
Python loop over every node, departures pop a heap instead of scanning
every VM, and violation accounting is one vectorized deficit pass.  The
rebalance port's snapshot, :meth:`ChurnChaosCluster.rebalance_arrays`,
is a :class:`~repro.rebalance.arrays.ClusterStateArrays` built straight
from the live arrays, no per-VM objects; static VM columns are reused
across rounds until an arrival or departure changes the population.

The violation metric is conservative and symmetric: a node whose
committed guarantees exceed its effective capacity cannot honour
*anyone's* vCFS floor, so every hosted VM accrues
``violation_vm_seconds`` for the step; the rebalancer's own migration
stop-and-copy pauses are charged to ``downtime_vm_seconds`` and
included in its headline total, so moving VMs is never free.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.placement.migration import MigrationModel
from repro.rebalance.arrays import ClusterStateArrays
from repro.rebalance.view import InFlightView

#: (vcpus, vfreq_mhz, memory_mb, weight) — the small-heavy template mix
#: used by the placement benchmarks (§IV-C scale).
DEFAULT_TEMPLATE_MIX = (
    (2, 500.0, 1024, 24),
    (4, 1200.0, 4096, 2),
    (4, 1800.0, 4096, 1),
)


@dataclass(frozen=True)
class ChaosConfig:
    """One fully-seeded chaos+churn scenario."""

    nodes: int = 200
    duration_s: float = 300.0
    dt_s: float = 1.0
    seed: int = 0
    initial_vms: int = 10_000
    #: Poisson arrival rate; by default sized to hold the population
    #: steady against ``mean_lifetime_s`` departures.
    arrival_rate_per_s: Optional[float] = None
    mean_lifetime_s: float = 1800.0
    #: Cluster-wide Poisson rate of chaos (degradation) events.
    degrade_rate_per_s: float = 0.02
    #: Effective capacity multiplier while an event is active.
    degrade_factor: float = 0.6
    degrade_duration_s: float = 60.0
    #: CHETEMI-like node: 40 logical CPUs x 2400 MHz, 256 GB.
    node_capacity_mhz: float = 96_000.0
    node_fmax_mhz: float = 2400.0
    node_memory_mb: int = 256 * 1024
    template_mix: Tuple[Tuple[int, float, int, int], ...] = DEFAULT_TEMPLATE_MIX

    @property
    def effective_arrival_rate(self) -> float:
        if self.arrival_rate_per_s is not None:
            return self.arrival_rate_per_s
        return self.initial_vms / self.mean_lifetime_s


@dataclass
class _Flight:
    vm_name: str
    source: str
    target: str
    arrives_at: float
    downtime_s: float
    #: Sizes reserved on the target at start, released at completion
    #: even if the VM departs mid-flight.
    demand_mhz: float
    memory_mb: int


@dataclass(frozen=True)
class MigrationStarted:
    """What :meth:`ChurnChaosCluster.start_migration` hands the loop."""

    vm_name: str
    source: str
    target: str
    duration_s: float


@dataclass
class ChaosResult:
    """Headline accounting for one run."""

    config_seed: int
    nodes: int
    duration_s: float
    violation_vm_seconds: float = 0.0
    downtime_vm_seconds: float = 0.0
    migrations: int = 0
    rejected_arrivals: int = 0
    arrivals: int = 0
    departures: int = 0
    chaos_events: int = 0
    final_vms: int = 0
    rebalance_rounds: int = 0

    @property
    def total_bad_vm_seconds(self) -> float:
        """Violation time plus self-inflicted migration downtime."""
        return self.violation_vm_seconds + self.downtime_vm_seconds

    def to_dict(self) -> Dict[str, float]:
        return {
            "violation_vm_seconds": self.violation_vm_seconds,
            "downtime_vm_seconds": self.downtime_vm_seconds,
            "total_bad_vm_seconds": self.total_bad_vm_seconds,
            "migrations": self.migrations,
            "rejected_arrivals": self.rejected_arrivals,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "chaos_events": self.chaos_events,
            "final_vms": self.final_vms,
            "rebalance_rounds": self.rebalance_rounds,
        }


class ChurnChaosCluster:
    """Flow-level chaos cluster implementing the rebalance port."""

    def __init__(
        self,
        config: ChaosConfig,
        migration_model: Optional[MigrationModel] = None,
    ) -> None:
        self.config = config
        self.model = migration_model or MigrationModel()
        self.t = 0.0
        n = config.nodes
        self._n_capacity = np.full(n, config.node_capacity_mhz)
        self._n_fmax = np.full(n, config.node_fmax_mhz)
        self._n_memory = np.full(n, config.node_memory_mb, dtype=np.int64)
        self._n_effective = self._n_capacity.copy()
        self._n_committed_mhz = np.zeros(n)
        self._n_committed_mb = np.zeros(n, dtype=np.int64)
        self._n_planned_in_mhz = np.zeros(n)
        self._n_planned_in_mb = np.zeros(n, dtype=np.int64)
        self._n_violation_steps = np.zeros(n, dtype=np.int64)
        self._n_vm_count = np.zeros(n, dtype=np.int64)
        width = len(str(max(n - 1, 1)))
        # Zero-padded ids ascend with their slots, so slot order is
        # sorted-id order — the ClusterStateArrays invariant for free.
        self._node_ids = tuple(f"node-{i:0{width}d}" for i in range(n))
        self._node_slot = {node_id: i for i, node_id in enumerate(self._node_ids)}
        # VM slot store; slots are recycled through a free list as VMs
        # churn, and the arrays double when the population outgrows them.
        cap = max(64, config.initial_vms)
        self._v_vcpus = np.zeros(cap, dtype=np.int64)
        self._v_vfreq = np.zeros(cap)
        self._v_memory = np.zeros(cap, dtype=np.int64)
        self._v_demand = np.zeros(cap)
        self._v_node = np.full(cap, -1, dtype=np.int64)
        self._v_names: List[Optional[str]] = [None] * cap
        self._free_slots = list(range(cap - 1, -1, -1))
        #: Live VM name -> slot.
        self._vm_slot: Dict[str, int] = {}
        #: (departs_at, name) min-heap — departures pop in time order
        #: instead of scanning every live VM each step.
        self._departures_heap: List[Tuple[float, str]] = []
        #: Bumps whenever the VM *population* changes (not placement);
        #: rebalance_arrays() reuses its static VM columns across rounds
        #: while this holds still.
        self._vm_set_version = 0
        self._arrays_cache: Optional[tuple] = None
        self.in_flight: List[_Flight] = []
        self.result = ChaosResult(
            config_seed=config.seed,
            nodes=config.nodes,
            duration_s=config.duration_s,
        )
        self._vm_seq = 0
        self._pregenerate(random.Random(config.seed))
        for template in self._initial_templates:
            if self._admit(template) is None:
                self.result.rejected_arrivals += 1

    # -- seeded pre-generation ------------------------------------------------

    def _pregenerate(self, rng: random.Random) -> None:
        cfg = self.config
        weights = [w for (_, _, _, w) in cfg.template_mix]
        #: (vcpus, vfreq, memory, lifetime) per initial VM.
        self._initial_templates = [
            self._draw_template(rng, weights, lifetime_from=0.0)
            for _ in range(cfg.initial_vms)
        ]
        #: Arrival stream: (t, vcpus, vfreq, memory, lifetime).
        self._arrivals: List[Tuple[float, int, float, int, float]] = []
        rate = cfg.effective_arrival_rate
        t = 0.0
        while rate > 0:
            t += rng.expovariate(rate)
            if t >= cfg.duration_s:
                break
            vcpus, vfreq, mem, life = self._draw_template(
                rng, weights, lifetime_from=t
            )
            self._arrivals.append((t, vcpus, vfreq, mem, life))
        #: Chaos stream: (start, end, node_index, factor).
        self._chaos: List[Tuple[float, float, int, float]] = []
        t = 0.0
        while cfg.degrade_rate_per_s > 0:
            t += rng.expovariate(cfg.degrade_rate_per_s)
            if t >= cfg.duration_s:
                break
            self._chaos.append((
                t,
                t + cfg.degrade_duration_s,
                rng.randrange(cfg.nodes),
                cfg.degrade_factor,
            ))

    def _draw_template(
        self, rng: random.Random, weights: List[int], *, lifetime_from: float
    ) -> Tuple[int, float, int, float]:
        vcpus, vfreq, mem, _ = rng.choices(
            self.config.template_mix, weights=weights
        )[0]
        lifetime = rng.expovariate(1.0 / self.config.mean_lifetime_s)
        return (vcpus, vfreq, mem, lifetime_from + lifetime)

    # -- placement / lifecycle ------------------------------------------------

    def _grow_vm_arrays(self) -> None:
        cap = len(self._v_names)
        new_cap = cap * 2
        pad = cap
        self._v_vcpus = np.concatenate(
            [self._v_vcpus, np.zeros(pad, dtype=np.int64)]
        )
        self._v_vfreq = np.concatenate([self._v_vfreq, np.zeros(pad)])
        self._v_memory = np.concatenate(
            [self._v_memory, np.zeros(pad, dtype=np.int64)]
        )
        self._v_demand = np.concatenate([self._v_demand, np.zeros(pad)])
        self._v_node = np.concatenate(
            [self._v_node, np.full(pad, -1, dtype=np.int64)]
        )
        self._v_names.extend([None] * pad)
        self._free_slots.extend(range(new_cap - 1, cap - 1, -1))

    def _admit(self, template: Tuple[int, float, int, float]) -> Optional[str]:
        """Best-fit Eq. 7 admission against effective capacity — one
        masked NumPy reduction over all nodes.

        The fit key and tie-break replicate the scalar best-fit exactly:
        minimise ``free - demand`` (same subtraction), ties to the
        lowest node id — which is the lowest slot, which is what
        ``argmin``'s first-occurrence rule returns.
        """
        vcpus, vfreq, mem, departs_at = template
        demand = vcpus * vfreq
        free = (
            self._n_effective - self._n_committed_mhz - self._n_planned_in_mhz
        )
        ok = (demand <= free + 1e-6) & (vfreq <= self._n_fmax)
        ok &= (
            self._n_committed_mb + self._n_planned_in_mb + mem
            <= self._n_memory
        )
        candidates = np.flatnonzero(ok)
        if candidates.size == 0:
            return None
        fit = free[candidates] - demand
        node = int(candidates[np.argmin(fit)])
        name = f"vm-{self._vm_seq}"
        self._vm_seq += 1
        if not self._free_slots:
            self._grow_vm_arrays()
        slot = self._free_slots.pop()
        self._v_vcpus[slot] = vcpus
        self._v_vfreq[slot] = vfreq
        self._v_memory[slot] = mem
        self._v_demand[slot] = demand
        self._v_node[slot] = node
        self._v_names[slot] = name
        self._vm_slot[name] = slot
        self._n_committed_mhz[node] += demand
        self._n_committed_mb[node] += mem
        self._n_vm_count[node] += 1
        heapq.heappush(self._departures_heap, (departs_at, name))
        self._vm_set_version += 1
        return name

    def _destroy(self, vm_name: str) -> None:
        slot = self._vm_slot.pop(vm_name)
        node_slot = int(self._v_node[slot])
        self._n_committed_mhz[node_slot] -= self._v_demand[slot]
        self._n_committed_mb[node_slot] -= self._v_memory[slot]
        self._n_vm_count[node_slot] -= 1
        self._v_node[slot] = -1
        self._v_names[slot] = None
        self._free_slots.append(slot)
        self._vm_set_version += 1

    # -- the rebalance port ---------------------------------------------------

    def rebalance_arrays(self) -> ClusterStateArrays:
        """SoA snapshot straight from the live arrays — no per-VM
        objects, which is the entire per-round cost the 1000-node scale
        point cannot afford.  Static VM columns (names, vcpus, vfreq,
        memory) are reused across rounds until churn changes the
        population; placement (``vm_node``) and node accounts are read
        fresh every call."""
        cache = self._arrays_cache
        if cache is None or cache[0] != self._vm_set_version:
            slots = np.flatnonzero(self._v_node >= 0)
            cache = (
                self._vm_set_version,
                slots,
                tuple(self._v_names[s] for s in slots.tolist()),
                self._v_vcpus[slots],
                self._v_vfreq[slots],
                self._v_memory[slots],
            )
            self._arrays_cache = cache
        _, slots, names, vcpus, vfreq, memory = cache
        return ClusterStateArrays(
            t=self.t,
            node_ids=self._node_ids,
            node_capacity_mhz=self._n_effective.copy(),
            node_fmax_mhz=self._n_fmax,
            node_memory_mb=self._n_memory,
            node_committed_mhz=self._n_committed_mhz + self._n_planned_in_mhz,
            node_committed_memory_mb=self._n_committed_mb
            + self._n_planned_in_mb,
            node_demand_mhz=self._n_committed_mhz.copy(),
            node_violations=self._n_violation_steps.copy(),
            vm_names=names,
            vm_node=self._v_node[slots],
            vm_vcpus=vcpus,
            vm_vfreq_mhz=vfreq,
            vm_memory_mb=memory,
            in_flight=self._in_flight_views(),
        )

    def _in_flight_views(self) -> Tuple[InFlightView, ...]:
        return tuple(
            InFlightView(
                vm_name=f.vm_name,
                source=f.source,
                target=f.target,
                arrives_at=f.arrives_at,
            )
            for f in self.in_flight
        )

    def start_migration(self, vm_name: str, target_id: str) -> MigrationStarted:
        slot = self._vm_slot.get(vm_name)
        if slot is None:
            raise KeyError(f"unknown VM: {vm_name}")
        if any(f.vm_name == vm_name for f in self.in_flight):
            raise ValueError(f"{vm_name} is already migrating")
        target = self._node_slot.get(target_id)
        if target is None:
            raise KeyError(f"unknown node: {target_id}")
        source_id = self._node_ids[int(self._v_node[slot])]
        if target_id == source_id:
            raise ValueError(f"{vm_name} already lives on {target_id}")
        demand = float(self._v_demand[slot])
        memory = int(self._v_memory[slot])
        free = float(
            self._n_effective[target]
            - self._n_committed_mhz[target]
            - self._n_planned_in_mhz[target]
        )
        if demand > free + 1e-6:
            raise ValueError(
                f"{target_id} cannot host {vm_name}: Eq. 7 headroom "
                f"{free:.1f} MHz < {demand:.1f} MHz"
            )
        if (
            self._n_committed_mb[target] + self._n_planned_in_mb[target] + memory
            > self._n_memory[target]
        ):
            raise ValueError(f"{target_id} cannot host {vm_name}: memory")
        duration = self.model.total_seconds(memory)
        # Reserve the target for the whole flight so churn admission and
        # later rounds both see the claim.
        self._n_planned_in_mhz[target] += demand
        self._n_planned_in_mb[target] += memory
        self.in_flight.append(_Flight(
            vm_name=vm_name,
            source=source_id,
            target=target_id,
            arrives_at=self.t + duration,
            downtime_s=self.model.downtime_s,
            demand_mhz=demand,
            memory_mb=memory,
        ))
        self.result.migrations += 1
        return MigrationStarted(
            vm_name=vm_name,
            source=source_id,
            target=target_id,
            duration_s=duration,
        )

    def _complete_migrations(self) -> None:
        still: List[_Flight] = []
        for flight in self.in_flight:
            if flight.arrives_at > self.t:
                still.append(flight)
                continue
            target = self._node_slot[flight.target]
            slot = self._vm_slot.get(flight.vm_name)
            self._n_planned_in_mhz[target] -= flight.demand_mhz
            self._n_planned_in_mb[target] -= flight.memory_mb
            if slot is None:
                continue  # departed mid-flight; reservation released
            source = int(self._v_node[slot])
            self._n_committed_mhz[source] -= self._v_demand[slot]
            self._n_committed_mb[source] -= self._v_memory[slot]
            self._n_vm_count[source] -= 1
            self._n_committed_mhz[target] += self._v_demand[slot]
            self._n_committed_mb[target] += self._v_memory[slot]
            self._n_vm_count[target] += 1
            self._v_node[slot] = target
            self.result.downtime_vm_seconds += flight.downtime_s
        self.in_flight = still

    # -- the run loop ---------------------------------------------------------

    def run(self, rebalance_loop=None, metrics=None) -> ChaosResult:
        """Step the scenario to its end; ``metrics`` is duck-typed
        (:class:`repro.sim.metrics.ClusterRebalanceMetrics` fits)."""
        cfg = self.config
        steps = int(round(cfg.duration_s / cfg.dt_s))
        arrivals = iter(self._arrivals)
        next_arrival = next(arrivals, None)
        chaos = sorted(self._chaos)
        chaos_idx = 0
        active_chaos: List[Tuple[float, int, float]] = []  # (end, node, factor)
        for step in range(1, steps + 1):
            self.t = step * cfg.dt_s
            self._complete_migrations()
            # Chaos events: start what begins this step, expire the rest.
            while chaos_idx < len(chaos) and chaos[chaos_idx][0] <= self.t:
                start, end, node_index, factor = chaos[chaos_idx]
                chaos_idx += 1
                active_chaos.append((end, node_index, factor))
                self.result.chaos_events += 1
            active_chaos = [c for c in active_chaos if c[0] > self.t]
            degraded: Dict[int, float] = {}
            for _, node_index, factor in active_chaos:
                degraded[node_index] = min(
                    degraded.get(node_index, 1.0), factor
                )
            self._n_effective[:] = self._n_capacity
            for node_index, factor in degraded.items():
                self._n_effective[node_index] = (
                    self._n_capacity[node_index] * factor
                )
            # Departures: pop the heap instead of scanning 50k VMs.
            heap = self._departures_heap
            while heap and heap[0][0] <= self.t:
                _, vm_name = heapq.heappop(heap)
                if vm_name in self._vm_slot:
                    self._destroy(vm_name)
                    self.result.departures += 1
            # Arrivals.
            while next_arrival is not None and next_arrival[0] <= self.t:
                _, vcpus, vfreq, mem, departs = next_arrival
                self.result.arrivals += 1
                if self._admit((vcpus, vfreq, mem, departs)) is None:
                    self.result.rejected_arrivals += 1
                next_arrival = next(arrivals, None)
            # Guarantee-violation accounting (the headline metric).  The
            # deficit pass is vectorized; the few violating nodes keep
            # the scalar path's per-node accumulation order so pressure
            # sums round identically.
            deficit = self._n_committed_mhz - self._n_effective
            violating_slots = np.flatnonzero(
                (deficit > 1e-6) & (self._n_vm_count > 0)
            )
            pressure = 0.0
            violating = 0
            if violating_slots.size:
                self._n_violation_steps[violating_slots] += 1
                counts = self._n_vm_count[violating_slots].tolist()
                for d, count in zip(deficit[violating_slots].tolist(), counts):
                    pressure += d
                    violating += count
                    self.result.violation_vm_seconds += cfg.dt_s * count
            if metrics is not None:
                metrics.record_step(
                    self.t,
                    pressure_mhz=pressure,
                    violating_vms=violating,
                    in_flight=len(self.in_flight),
                )
            if rebalance_loop is not None:
                rebalance_loop.maybe_rebalance(self, step)
        self.result.final_vms = len(self._vm_slot)
        if rebalance_loop is not None:
            self.result.rebalance_rounds = rebalance_loop.rounds_total
        return self.result
