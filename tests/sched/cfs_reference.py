"""The recursive hierarchical CFS scheduler, kept for differential tests.

Every tick it rebuilds a ``_NodeState`` tree from the cgroup tree,
computes limits bottom-up, grants top-down by weighted max-min fairness
and charges ``cpu.stat`` bottom-up, one recursive call per cgroup.  It
is the readable statement of what :class:`repro.sched.cfs.CfsScheduler`
computes from its compiled plan; the two must agree bit for bit.  It
also returns the per-cgroup ``GroupAllocation`` records (limit, grant,
throttled) that the production scheduler does not build.

Its sums are plain left-to-right loops rather than ``sum()``: since
Python 3.12 ``sum()`` of floats is compensated, which would make the
reference differ in the last bits from sequential accumulation whenever
a group holds two or more threads.  Its ``cpu.stat`` charge is the
per-cgroup rounding of :func:`charge_reference`, not the array charge
the production scheduler issues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.cgroups.fs import CgroupFS
from repro.cgroups.group import CgroupNode
from repro.sched.entity import SchedEntity
from repro.sched.fairshare import weighted_fair_share


def charge_reference(cpu, cpu_usec: float, system_fraction: float = 0.02) -> None:
    """One cgroup's ``cpu.stat`` charge, as the per-cgroup Python call it
    was before the counters moved into ``CgroupColumns.charge``."""
    if cpu_usec < 0:
        raise ValueError(f"cannot charge negative CPU time: {cpu_usec}")
    usec = int(round(cpu_usec))
    sys_part = int(round(usec * system_fraction))
    cpu.usage_usec += usec
    cpu.system_usec += sys_part
    cpu.user_usec += usec - sys_part


@dataclass
class GroupAllocation:
    """Per-cgroup outcome of one scheduling tick."""

    path: str
    limit: float
    granted: float
    throttled: bool


@dataclass
class _NodeState:
    group: CgroupNode
    entities: List[SchedEntity] = field(default_factory=list)
    children: List["_NodeState"] = field(default_factory=list)
    limit: float = 0.0
    raw_limit: float = 0.0  # before this cgroup's own quota cap
    granted: float = 0.0


class CfsScheduler:
    """Weighted hierarchical fair-share scheduler with bandwidth caps."""

    def __init__(self, fs: CgroupFS, num_cpus: int) -> None:
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        self.fs = fs
        self.num_cpus = num_cpus

    def schedule(
        self,
        entities: List[SchedEntity],
        dt: float,
        *,
        charge_accounting: bool = True,
    ) -> Dict[str, GroupAllocation]:
        """Run one tick; grants CPU time to ``entities`` in place.

        Returns per-cgroup allocation info keyed by cgroup path.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        by_path: Dict[str, List[SchedEntity]] = {}
        for ent in entities:
            ent.allocated = 0.0
            by_path.setdefault(ent.cgroup_path, []).append(ent)

        root_state = self._build(self.fs.root, by_path, dt)
        capacity = min(self.num_cpus * dt, root_state.limit)
        self._distribute(root_state, capacity, dt)

        result: Dict[str, GroupAllocation] = {}
        self._collect(root_state, dt, charge_accounting, result)
        return result

    # -- pass 1: bottom-up limits ------------------------------------------------

    def _build(
        self,
        group: CgroupNode,
        by_path: Dict[str, List[SchedEntity]],
        dt: float,
    ) -> _NodeState:
        state = _NodeState(group=group, entities=by_path.get(group.path, []))
        raw = 0.0
        for e in state.entities:
            raw += min(e.demand, 1.0) * dt
        for child in group.children.values():
            child_state = self._build(child, by_path, dt)
            state.children.append(child_state)
            raw += child_state.limit
        state.raw_limit = raw
        cap = group.cpu.quota.ratio() * dt
        state.limit = min(raw, cap) if cap != float("inf") else raw
        return state

    # -- pass 2: top-down distribution --------------------------------------------

    def _distribute(self, state: _NodeState, granted: float, dt: float) -> None:
        state.granted = min(granted, state.limit)
        n_groups = len(state.children)
        n_threads = len(state.entities)
        if n_groups + n_threads == 0:
            return
        # Fast paths for the dominant shapes: a vCPU cgroup holds exactly
        # one thread and a VM cgroup often has one child — max-min over a
        # single entity is just min(granted, limit), no array machinery.
        if n_groups == 0 and n_threads == 1:
            ent = state.entities[0]
            ent.grant(min(state.granted, min(ent.demand, 1.0) * dt))
            return
        if n_groups == 1 and n_threads == 0:
            self._distribute(state.children[0], state.granted, dt)
            return
        # Ample capacity: when the grant covers the whole raw demand of
        # this subtree, every child simply receives its own limit.
        if state.granted >= state.raw_limit - 1e-12 and state.raw_limit <= state.limit:
            for child in state.children:
                self._distribute(child, child.limit, dt)
            for ent in state.entities:
                ent.grant(min(ent.demand, 1.0) * dt)
            return

        weights = np.empty(n_groups + n_threads)
        limits = np.empty(n_groups + n_threads)
        for k, child in enumerate(state.children):
            weights[k] = child.group.cpu.weight
            limits[k] = child.limit
        for k, ent in enumerate(state.entities):
            # A bare thread competes like a default-weight sibling cgroup,
            # scaled by its own sched weight (nice level analogue).
            weights[n_groups + k] = 100.0 * ent.weight
            limits[n_groups + k] = min(ent.demand, 1.0) * dt

        alloc = weighted_fair_share(state.granted, weights, limits)
        for k, child in enumerate(state.children):
            self._distribute(child, float(alloc[k]), dt)
        for k, ent in enumerate(state.entities):
            ent.grant(float(alloc[n_groups + k]))

    # -- pass 3: accounting ----------------------------------------------------------

    def _collect(
        self,
        state: _NodeState,
        dt: float,
        charge: bool,
        out: Dict[str, GroupAllocation],
    ) -> float:
        subtree_used = 0.0
        for e in state.entities:
            subtree_used += e.allocated
        for child in state.children:
            subtree_used += self._collect(child, dt, charge, out)
        throttled = (
            state.group.cpu.quota.ratio() != float("inf")
            and state.raw_limit > state.limit + 1e-12
        )
        if charge:
            charge_reference(state.group.cpu, subtree_used * 1e6)
        out[state.group.path] = GroupAllocation(
            path=state.group.path,
            limit=state.limit,
            granted=state.granted,
            throttled=throttled,
        )
        return subtree_used
