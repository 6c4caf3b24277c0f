"""The rebalance control loop: plan every K control ticks, execute, log.

:class:`RebalanceLoop` is the only piece of the rebalancer that touches
a live cluster, and it does so through a two-method port any driver can
implement (both :class:`~repro.sim.cluster_engine.ClusterSimulation`
and the benchmark's :class:`~repro.rebalance.chaos.ChurnChaosCluster`
do):

* ``rebalance_arrays() -> ClusterStateArrays`` — frozen snapshot;
* ``start_migration(vm_name, target_id)`` — begin one live migration,
  returning an event with ``duration_s`` (the driver owns the blackout:
  source+target pinned while in flight, VM paused ``downtime_s`` at
  cut-over).

Each round: snapshot → plan (:class:`MigrationPlanner`, seeded) →
cross-check the whole batch against the independent plan oracle
(:func:`repro.checking.invariants.check_plan_admissible`; an
inadmissible plan is dropped wholesale — planner bugs must not reach
the cluster) → execute → observe (round/migration histograms, per-goal
counters, a ``rebalance:round`` span) → record every move in the
:class:`~repro.rebalance.ledger.RebalanceLedger` so ``repro explain
--move vm-X`` can reconstruct the decision.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.checking.invariants import check_plan_admissible
from repro.obs.tracing import Histogram, Tracer
from repro.rebalance.ledger import RebalanceLedger
from repro.rebalance.planner import MigrationPlan, MigrationPlanner, PlannedMove


class RebalanceLoop:
    """Runs the planner every ``every`` control ticks and executes plans.

    ``dialect`` only accepts ``"arrays"``; the keyword stays because
    existing callers (the control-period benchmark among them) pass it.
    """

    def __init__(
        self,
        planner: Optional[MigrationPlanner] = None,
        *,
        every: int = 5,
        seed: int = 0,
        ledger: Optional[RebalanceLedger] = None,
        tracer: Optional[Tracer] = None,
        dialect: str = "arrays",
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        if dialect != "arrays":
            raise ValueError(f"dialect must be 'arrays', got {dialect!r}")
        self.planner = planner or MigrationPlanner()
        self.every = every
        self.seed = seed
        self.ledger = ledger or RebalanceLedger()
        self.tracer = tracer
        self.drain: set = set()
        self.rounds_total = 0
        self.migrations_total: Dict[str, int] = {}
        self.migrations_rejected = 0
        self.round_hist = Histogram()
        self.migration_hist = Histogram()
        self.round_durations: List[float] = []
        self.snapshot_durations: List[float] = []
        self.plan_durations: List[float] = []
        self.last_plan: Optional[MigrationPlan] = None
        #: Last round's snapshot.
        self.last_view = None

    # -- drain workflow -------------------------------------------------------

    def request_drain(self, node_id: str) -> None:
        """Flag a node for evacuation; stays flagged until cancelled."""
        self.drain.add(node_id)

    def cancel_drain(self, node_id: str) -> None:
        self.drain.discard(node_id)

    def drained_nodes(self) -> List[str]:
        """Drain-flagged nodes that are now empty (safe to power off).

        A node still pinned by an in-flight migration is not drained: a
        VM migrating into it lands there at cut-over.
        """
        view = self.last_view
        if view is None:
            return []
        pinned = view.pinned_nodes()
        return sorted(
            node_id
            for node_id in self.drain
            if node_id in view.nodes
            and node_id not in pinned
            and not view.nodes[node_id].vm_names
        )

    # -- the loop -------------------------------------------------------------

    def maybe_rebalance(self, cluster, control_tick: int) -> Optional[MigrationPlan]:
        """Run one round when the control tick hits the period."""
        if control_tick % self.every != 0:
            return None
        return self.rebalance_once(cluster)

    def rebalance_once(self, cluster) -> MigrationPlan:
        """Snapshot, plan, oracle-check, execute, observe, ledger."""
        started = time.perf_counter()
        view = cluster.rebalance_arrays()
        snapshot_done = time.perf_counter()
        round_no = self.rounds_total
        plan = self.planner.plan(
            view, drain=sorted(self.drain & set(view.nodes)), seed=self.seed + round_no
        )
        plan_done = time.perf_counter()
        violations = check_plan_admissible(
            view, plan, allocation_ratio=self.planner.config.allocation_ratio
        )
        executed: List[Dict] = []
        if violations:
            # Defence in depth: the planner only emits moves its what-if
            # state admitted, so a confirmed oracle violation means a
            # planner bug — drop the whole batch rather than risk Eq. 7.
            plan._skip("plan_rejected_by_oracle", len(plan.moves))
            for move in plan.moves:
                executed.append(self._move_record(
                    move, executed=False,
                    reject_reason="; ".join(v.message for v in violations[:2]),
                ))
            plan.moves.clear()
        else:
            for move in plan.moves:
                executed.append(self._execute(cluster, move))
        duration = time.perf_counter() - started

        self.rounds_total += 1
        self.round_hist.observe(duration)
        self.round_durations.append(duration)
        self.snapshot_durations.append(snapshot_done - started)
        self.plan_durations.append(plan_done - snapshot_done)
        self.last_plan = plan
        self.last_view = view
        meta = {
            "round": round_no,
            "t": view.t,
            "seed": self.seed + round_no,
            "every": self.every,
            "drain": sorted(self.drain),
            "pressure_before_mhz": plan.pressure_before_mhz,
            "pressure_after_mhz": plan.pressure_after_mhz,
            "fragmentation_before": plan.fragmentation_before,
            "n_moves": len(executed),
            "moves_by_reason": plan.moves_by_reason(),
            "skipped": dict(plan.skipped),
            "round_seconds": duration,
            "snapshot_seconds": snapshot_done - started,
            "plan_seconds": plan_done - snapshot_done,
        }
        self.ledger.record_round(meta, executed)
        if self.tracer is not None:
            self.tracer.record(
                "rebalance:round",
                trace_id=round_no,
                parent_id=None,
                start_us=self.tracer.now_us() - duration * 1e6,
                duration_us=duration * 1e6,
                attrs={
                    "n_moves": len(plan.moves),
                    "pressure_before_mhz": plan.pressure_before_mhz,
                    "pressure_after_mhz": plan.pressure_after_mhz,
                },
            )
        return plan

    # -- execution ------------------------------------------------------------

    def _execute(self, cluster, move: PlannedMove) -> Dict:
        try:
            event = cluster.start_migration(move.vm_name, move.target)
        except (KeyError, ValueError) as exc:
            # The cluster moved on between snapshot and execution (VM
            # destroyed, capacity changed) — reject this move only.
            self.migrations_rejected += 1
            return self._move_record(move, executed=False, reject_reason=str(exc))
        duration_s = getattr(event, "duration_s", move.cost_s)
        self.migrations_total[move.reason] = (
            self.migrations_total.get(move.reason, 0) + 1
        )
        self.migration_hist.observe(duration_s)
        if self.tracer is not None:
            self.tracer.record(
                "rebalance:migration",
                trace_id=self.rounds_total,
                parent_id=None,
                start_us=self.tracer.now_us(),
                duration_us=duration_s * 1e6,
                attrs={
                    "vm": move.vm_name,
                    "source": move.source,
                    "target": move.target,
                    "reason": move.reason,
                },
            )
        return self._move_record(move, executed=True, duration_s=duration_s)

    @staticmethod
    def _move_record(
        move: PlannedMove,
        *,
        executed: bool,
        duration_s: Optional[float] = None,
        reject_reason: Optional[str] = None,
    ) -> Dict:
        record = {
            "vm": move.vm_name,
            "source": move.source,
            "target": move.target,
            "reason": move.reason,
            "demand_mhz": move.demand_mhz,
            "memory_mb": move.memory_mb,
            "transfer_s": move.transfer_s,
            "downtime_s": move.downtime_s,
            "cost_s": move.cost_s,
            "relief_mhz": move.relief_mhz,
            "score": move.score,
            "target_headroom_after_mhz": move.target_headroom_after_mhz,
            "executed": executed,
        }
        if duration_s is not None:
            record["duration_s"] = duration_s
        if reject_reason is not None:
            record["reject_reason"] = reject_reason
        return record

    def close(self) -> None:
        self.ledger.close()
