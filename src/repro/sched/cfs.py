"""Hierarchical CFS-like scheduler over a cgroup tree.

One call to :meth:`CfsScheduler.schedule` distributes ``num_cpus * dt``
CPU-seconds of machine capacity for one simulation tick:

1. *Bottom-up* — compute, for every cgroup, the most CPU time its subtree
   could absorb this tick: thread demand (capped at one core per thread,
   like a single kernel thread), then the cgroup's own bandwidth cap
   (``cpu.max``), then the parent's, recursively.
2. *Top-down* — at every level, split the amount granted to a cgroup
   among its children by weighted max-min fairness
   (:func:`repro.sched.fairshare.weighted_fair_share`) using the
   children's ``cpu.weight``.
3. *Accounting* — charge every cgroup's ``cpu.stat`` with the CPU time
   its subtree received.

This reproduces the two properties the paper's evaluation hinges on:

* **Per-VM fairness** (§IV-A2): CPU time is divided between VM cgroups
  first, so 20 two-vCPU VMs collectively out-receive 10 four-vCPU VMs.
* **Quota enforcement**: a vCPU cgroup with ``cpu.max = q p`` never
  exceeds ``q/p`` cores, which is the knob the controller actuates.

The tree is not walked every tick.  :class:`CfsScheduler` compiles it
into a flat plan — the cgroups in pre-order, each with its child indices
and its thread indices (positions in the entity list), plus the cgroups'
rows in the tree's :class:`~repro.cgroups.columns.CgroupColumns` — and
recompiles only when the tree's shape changes (``CgroupNode.generation``,
bumped by every mkdir/rmdir) or an entity changes cgroup, arrives or
leaves.  Each tick reads every cgroup's cap as one slice of the quota
columns (the controllers rewrite them every period), runs three plain
loops over the plan and charges the usage counters with one array add.

The passes stay sequential Python: a level-wise ``np.add.at`` version
was bit-identical but, measured on a 2-vCPU VM, 3x faster only on a
178-cgroup host (125 vs 380 µs per step) and 3.2x slower on a
13-cgroup one (130 vs 41 µs), where the per-call NumPy cost dominates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cgroups.fs import CgroupFS
from repro.cgroups.group import CgroupNode
from repro.sched.entity import SchedEntity
from repro.sched.fairshare import weighted_fair_share


#: One cgroup of the compiled plan: its pre-order slot, its threads
#: (positions in the entity list, in list order) and its children's slots.
_Group = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class CfsScheduler:
    """Weighted hierarchical fair-share scheduler with bandwidth caps."""

    def __init__(self, fs: CgroupFS, num_cpus: int) -> None:
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        self.fs = fs
        self.num_cpus = num_cpus
        # The compiled plan and the tree/entity layout it was compiled
        # from; see _compile.
        self._generation = -1
        self._paths: List[str] = []
        self._plan: List[_Group] = []
        #: Each plan slot's row in the tree's CgroupColumns.
        self._rows = np.empty(0, dtype=np.intp)

    def schedule(self, entities: List[SchedEntity], dt: float) -> None:
        """Run one tick; grants CPU time to ``entities`` in place.

        Entities whose ``cgroup_path`` names no cgroup in the tree are
        left at ``allocated == 0``.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        root = self.fs.root
        paths = [e.cgroup_path for e in entities]
        if root.generation != self._generation or paths != self._paths:
            self._compile(root, paths)
        plan = self._plan
        rows = self._rows
        table = root.table
        n = len(plan)
        ratio = table.ratios(rows)
        weight = None

        # What each thread could absorb this tick: its demand, capped at
        # one core.
        want = []
        for ent in entities:
            ent.allocated = 0.0
            want.append(min(ent.demand, 1.0) * dt)

        # Pass 1, bottom-up (reversed pre-order visits children before
        # their parent): raw subtree demand, then this cgroup's own cap.
        # The per-group loops spell min(a, b) as ``b if b < a else a``:
        # the same value (min keeps its first argument on ties) without
        # the call.
        raw = [0.0] * n
        limit = [0.0] * n
        for k, tids, kids in reversed(plan):
            r = 0.0
            for i in tids:
                r += want[i]
            for c in kids:
                r += limit[c]
            raw[k] = r
            cap = ratio[k] * dt  # inf when unlimited: never binds
            limit[k] = cap if cap < r else r

        # Pass 2, top-down (pre-order visits a parent before its
        # children): each cgroup splits what its parent offered it.
        offer = [0.0] * n
        offer[0] = min(self.num_cpus * dt, limit[0])
        for k, tids, kids in plan:
            granted = limit[k] if limit[k] < offer[k] else offer[k]
            n_groups = len(kids)
            n_threads = len(tids)
            if n_groups + n_threads == 0:
                continue
            # Fast paths for the dominant shapes: a vCPU cgroup holds
            # exactly one thread and a VM cgroup often has one child —
            # max-min over a single entity is just min(granted, limit).
            if n_groups == 0 and n_threads == 1:
                i = tids[0]
                entities[i].grant(want[i] if want[i] < granted else granted)
                continue
            if n_groups == 1 and n_threads == 0:
                offer[kids[0]] = granted
                continue
            # Ample capacity: when the grant covers the whole raw demand
            # of this subtree, every child simply receives its own limit.
            if granted >= raw[k] - 1e-12 and raw[k] <= limit[k]:
                for c in kids:
                    offer[c] = limit[c]
                for i in tids:
                    entities[i].grant(want[i])
                continue

            if weight is None:
                weight = table.weight[rows].tolist()
            weights = np.empty(n_groups + n_threads)
            limits = np.empty(n_groups + n_threads)
            for j, c in enumerate(kids):
                weights[j] = weight[c]  # the child's cpu.weight
                limits[j] = limit[c]
            for j, i in enumerate(tids):
                # A bare thread competes like a default-weight sibling
                # cgroup, scaled by its own sched weight (nice level
                # analogue).
                weights[n_groups + j] = 100.0 * entities[i].weight
                limits[n_groups + j] = want[i]
            alloc = weighted_fair_share(granted, weights, limits)
            for j, c in enumerate(kids):
                offer[c] = float(alloc[j])
            for j, i in enumerate(tids):
                entities[i].grant(float(alloc[n_groups + j]))

        # Pass 3, bottom-up: every cgroup's subtree use, charged at once.
        used = [0.0] * n
        for k, tids, kids in reversed(plan):
            u = 0.0
            for i in tids:
                u += entities[i].allocated
            for c in kids:
                u += used[c]
            used[k] = u
        table.charge(rows, np.array(used) * 1e6)

    def _compile(self, root: CgroupNode, paths: List[str]) -> None:
        """Flatten the tree into a pre-order plan for ``paths``' entities."""
        nodes: List[CgroupNode] = []
        children: List[Tuple[int, ...]] = []
        slot: Dict[str, int] = {}

        def visit(node: CgroupNode, path: str) -> int:
            # ``path`` is built from the parent's as CgroupNode.path
            # builds it, once per node instead of re-derived per node.
            k = len(nodes)
            nodes.append(node)
            children.append(())
            slot[path] = k
            prefix = path if path == "/" else path + "/"
            children[k] = tuple([visit(child, prefix + name) for name, child in node.children.items()])
            return k

        visit(root, root.path)
        members: List[List[int]] = [[] for _ in nodes]
        for i, path in enumerate(paths):
            k = slot.get(path)
            if k is not None:
                members[k].append(i)
        self._plan = [(k, tuple(members[k]), children[k]) for k in range(len(nodes))]
        self._rows = np.array([node.cpu.row for node in nodes], dtype=np.intp)
        self._generation = root.generation
        self._paths = paths
