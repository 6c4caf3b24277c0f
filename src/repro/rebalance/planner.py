"""Frequency-guarantee-aware migration planning.

Each round the planner turns one frozen
:class:`~repro.rebalance.arrays.ClusterStateArrays` snapshot into a
bounded :class:`MigrationPlan` serving three goals, in priority order:

1. **pressure** — relieve Eq. 7 deficits: a node whose committed
   guarantees exceed its (possibly degraded) capacity sheds VMs until
   the deficit is gone, smallest-covering VM first (the
   :class:`~repro.placement.migration.ThresholdMigrationPolicy` victim
   rule, restated in MHz);
2. **drain** — evacuate nodes flagged for maintenance completely,
   largest VM first;
3. **consolidate** — defragment: a node under the consolidation
   watermark is evacuated *only if the whole node empties* onto used
   Eq. 7-admissible targets, so the move spend actually frees a node.

Targets are always chosen best-fit (least headroom left after the
move, seeded tie-break) against the what-if
:class:`~repro.rebalance.arrays.SimulatedArrays`, so a plan can never
over-commit a node even when several moves share a target.  The goal
passes read its columns by node slot, and the target scan is one masked
NumPy reduction per move.  Every move
is costed with the existing pre-copy
:class:`~repro.placement.migration.MigrationModel` and scored as
relieved/freed guarantee MHz per second of migration cost.

Plans are deterministic: all candidate iteration is sorted, and the
only randomness is a seeded tie-break rank — same snapshot + same seed
gives the identical plan, bit for bit.  A scalar reference planner in
``tests/rebalance/planner_reference.py`` replays the same passes on
per-node objects; the tests fuzz the two for bit-identical plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.placement.migration import MigrationModel
from repro.rebalance.arrays import ClusterStateArrays, SimulatedArrays, _seq_sum
from repro.rebalance.view import VmView

#: The planner's three goals, in execution priority order.
GOALS = ("pressure", "drain", "consolidate")


@dataclass(frozen=True)
class PlannedMove:
    """One scored, admissibility-checked candidate migration."""

    vm_name: str
    source: str
    target: str
    reason: str  # one of GOALS
    demand_mhz: float
    memory_mb: int
    transfer_s: float
    downtime_s: float
    cost_s: float
    relief_mhz: float  # pressure relieved / guarantee MHz freed
    score: float  # relief_mhz / cost_s
    #: Eq. 7 headroom the target keeps once this move (and every move
    #: planned before it this round) lands — never negative by design.
    target_headroom_after_mhz: float = 0.0


@dataclass
class MigrationPlan:
    """One round's bounded batch of moves, plus why candidates fell out."""

    t: float
    seed: int
    moves: List[PlannedMove] = field(default_factory=list)
    considered: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)
    #: Cluster pressure before/after, for the ledger and `plan` output.
    pressure_before_mhz: float = 0.0
    pressure_after_mhz: float = 0.0
    fragmentation_before: float = 0.0

    def moves_by_reason(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for move in self.moves:
            out[move.reason] = out.get(move.reason, 0) + 1
        return out

    def total_cost_s(self) -> float:
        return sum(m.cost_s for m in self.moves)

    def _skip(self, reason: str, count: int = 1) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count


@dataclass(frozen=True)
class PlannerConfig:
    """Batch bounds and goal knobs for one planner instance."""

    max_moves_per_round: int = 8
    #: Per-round cap on moves touching one node as source or target
    #: (drain ignores it for the drained source — evacuation must end).
    max_moves_per_node: int = 2
    allocation_ratio: float = 1.0
    consolidate: bool = True
    #: A used node at or below this utilisation is an evacuation
    #: candidate for the consolidation goal.
    consolidate_below: float = 0.35

    def __post_init__(self) -> None:
        if self.max_moves_per_round < 1:
            raise ValueError("max_moves_per_round must be >= 1")
        if self.max_moves_per_node < 1:
            raise ValueError("max_moves_per_node must be >= 1")
        if self.allocation_ratio <= 0:
            raise ValueError("allocation_ratio must be positive")
        if not 0.0 < self.consolidate_below < 1.0:
            raise ValueError("consolidate_below must be in (0, 1)")


def _pressure_by_slot(state: SimulatedArrays) -> np.ndarray:
    """Current Eq. 7 deficit per node slot (0 where capacity covers)."""
    return np.maximum(0.0, state.committed_mhz - state.capacity_mhz)


def _pressure_at(state: SimulatedArrays, slot: int) -> float:
    return max(
        0.0, float(state.committed_mhz[slot]) - float(state.capacity_mhz[slot])
    )


class MigrationPlanner:
    """Produces one bounded, deterministic plan per cluster snapshot."""

    def __init__(
        self,
        model: Optional[MigrationModel] = None,
        config: Optional[PlannerConfig] = None,
    ) -> None:
        self.model = model or MigrationModel()
        self.config = config or PlannerConfig()

    def plan(
        self,
        snapshot: ClusterStateArrays,
        *,
        drain: Sequence[str] = (),
        seed: int = 0,
    ) -> MigrationPlan:
        """Score one round of moves against the frozen snapshot."""
        for node_id in drain:
            if node_id not in snapshot.node_index:
                raise KeyError(f"unknown drain node: {node_id}")
        state = SimulatedArrays(
            snapshot, allocation_ratio=self.config.allocation_ratio
        )
        plan = MigrationPlan(
            t=snapshot.t,
            seed=seed,
            pressure_before_mhz=snapshot.total_pressure_mhz(),
            fragmentation_before=snapshot.fragmentation_score(),
        )
        # Seeded tie-break rank per node slot: stable within the round,
        # so equal-headroom targets resolve by seed.  Slots are in
        # sorted-id order, so the stream is drawn over sorted ids.
        rng = random.Random(seed)
        self._rank = np.asarray([rng.random() for _ in state.node_ids])
        self._moves = np.zeros(len(state.node_ids), dtype=np.int64)
        drain_set = set(drain)

        self._plan_pressure(state, plan, drain_set)
        self._plan_drain(state, plan, drain_set)
        if self.config.consolidate:
            self._plan_consolidate(state, plan, drain_set)

        plan.pressure_after_mhz = _seq_sum(_pressure_by_slot(state).tolist())
        return plan

    # -- goal passes ----------------------------------------------------------

    def _plan_pressure(
        self, state: SimulatedArrays, plan: MigrationPlan, drain: set
    ) -> None:
        pressure = _pressure_by_slot(state)
        slots = np.flatnonzero(pressure > 0)
        # Worst first; the stable sort keeps ascending slot (= id) on ties.
        for slot in slots[np.argsort(-pressure[slots], kind="stable")].tolist():
            if state.pinned_mask[slot]:
                plan._skip("source_pinned")
                continue
            while _pressure_at(state, slot) > 0 and not self._exhausted(plan):
                victim = self._pick_pressure_victim(state, slot)
                if victim is None:
                    plan._skip("no_victim")
                    break
                relief = min(victim.demand_mhz, _pressure_at(state, slot))
                if not self._move(
                    state, plan, victim, reason="pressure",
                    relief_mhz=relief, drain=drain,
                ):
                    break

    def _plan_drain(
        self, state: SimulatedArrays, plan: MigrationPlan, drain: set
    ) -> None:
        for node_id in sorted(drain):
            if node_id in state.pinned:
                plan._skip("source_pinned")
                continue
            for vm in state.movable_vms_on(node_id):
                if self._exhausted(plan):
                    plan._skip("round_budget")
                    return
                self._move(
                    state, plan, vm, reason="drain",
                    relief_mhz=vm.demand_mhz, drain=drain,
                    ignore_source_cap=True,
                )

    def _plan_consolidate(
        self, state: SimulatedArrays, plan: MigrationPlan, drain: set
    ) -> None:
        committed = state.committed_mhz.tolist()
        capacity = state.capacity_mhz.tolist()
        candidates = []
        for slot, node_id in enumerate(state.node_ids):
            if (
                not state.powered_on[slot]
                or state.vm_count[slot] == 0
                or state.pinned_mask[slot]
                or node_id in drain
            ):
                continue
            if capacity[slot] <= 0:
                utilisation = float("inf") if committed[slot] > 0 else 0.0
            else:
                utilisation = committed[slot] / capacity[slot]
            if 0.0 < utilisation <= self.config.consolidate_below:
                candidates.append(slot)
        candidates.sort(key=lambda slot: (committed[slot], slot))
        emptied: set = set()
        for slot in candidates:
            if self._exhausted(plan):
                return
            node_id = state.node_ids[slot]
            vms = state.movable_vms_on(node_id)
            if not vms or len(vms) != state.vm_count[slot]:
                plan._skip("consolidate_pinned_vm")
                continue
            # Trial on a clone: the node must empty completely within
            # the remaining budget, else the moves buy nothing.
            trial = state.clone()
            routes: List[Tuple[VmView, int]] = []
            ok = True
            budget = self.config.max_moves_per_round - len(plan.moves)
            for vm in vms:
                if len(routes) >= budget:
                    ok = False
                    break
                target = self._pick_target(
                    trial, vm,
                    exclude=emptied | {node_id},
                    used_only=True,
                )
                if target is None:
                    ok = False
                    break
                trial.apply_move(vm.name, state.node_ids[target])
                routes.append((vm, target))
            if not ok:
                plan._skip("consolidate_unplaceable")
                continue
            for vm, target in routes:
                state.apply_move(vm.name, state.node_ids[target])
                self._record(
                    state, plan, vm, source=slot, target=target,
                    reason="consolidate", relief_mhz=vm.demand_mhz,
                )
            emptied.add(node_id)

    # -- shared mechanics -----------------------------------------------------

    def _pick_pressure_victim(
        self, state: SimulatedArrays, slot: int
    ) -> Optional[VmView]:
        """Smallest VM covering the deficit, else the largest
        (the ThresholdMigrationPolicy rule, in guarantee MHz)."""
        vms = state.movable_vms_on(state.node_ids[slot])
        if not vms:
            return None
        pressure = _pressure_at(state, slot)
        covering = [v for v in vms if v.demand_mhz >= pressure]
        if covering:
            return min(covering, key=lambda v: (v.demand_mhz, v.name))
        return max(vms, key=lambda v: (v.demand_mhz, v.name))

    def _pick_target(
        self,
        state: SimulatedArrays,
        vm: VmView,
        *,
        exclude: set = frozenset(),
        used_only: bool = False,
    ) -> Optional[int]:
        """Best-fit target slot: the admissible node keeping the least
        headroom after the move; ties break by seeded rank, then lowest
        slot (= lowest id)."""
        candidates, fit = state.admissible_fit(
            vm.name,
            exclude=exclude,
            used_only=used_only,
            node_moves=self._moves,
            max_moves_per_node=self.config.max_moves_per_node,
        )
        if candidates.size == 0:
            return None
        tied = candidates[fit == fit.min()]
        if tied.size > 1:
            ranks = self._rank[tied]
            tied = tied[ranks == ranks.min()]
        return int(tied[0])

    def _move(
        self,
        state: SimulatedArrays,
        plan: MigrationPlan,
        vm: VmView,
        *,
        reason: str,
        relief_mhz: float,
        drain: set,
        ignore_source_cap: bool = False,
    ) -> bool:
        source = int(state.vm_node[state.vm_index[vm.name]])
        if not ignore_source_cap and (
            self._moves[source] >= self.config.max_moves_per_node
        ):
            plan._skip("source_budget")
            return False
        target = self._pick_target(
            state, vm, exclude=drain | {state.node_ids[source]}
        )
        if target is None:
            plan._skip("no_target")
            return False
        state.apply_move(vm.name, state.node_ids[target])
        self._record(
            state, plan, vm, source=source, target=target,
            reason=reason, relief_mhz=relief_mhz,
        )
        return True

    def _record(
        self,
        state: SimulatedArrays,
        plan: MigrationPlan,
        vm: VmView,
        *,
        source: int,
        target: int,
        reason: str,
        relief_mhz: float,
    ) -> None:
        """Cost and log one move already applied to ``state``."""
        transfer = self.model.transfer_seconds(vm.memory_mb)
        cost = self.model.total_seconds(vm.memory_mb)
        plan.moves.append(
            PlannedMove(
                vm_name=vm.name,
                source=state.node_ids[source],
                target=state.node_ids[target],
                reason=reason,
                demand_mhz=vm.demand_mhz,
                memory_mb=vm.memory_mb,
                transfer_s=transfer,
                downtime_s=self.model.downtime_s,
                cost_s=cost,
                relief_mhz=relief_mhz,
                score=relief_mhz / cost if cost > 0 else float("inf"),
                target_headroom_after_mhz=float(state.capacity_mhz[target])
                - float(state.committed_mhz[target]),
            )
        )
        plan.considered += 1
        self._moves[source] += 1
        self._moves[target] += 1

    def _exhausted(self, plan: MigrationPlan) -> bool:
        return len(plan.moves) >= self.config.max_moves_per_round
