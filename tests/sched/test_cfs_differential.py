"""The compiled scheduler against the recursive reference, tick after tick.

:class:`repro.sched.cfs.CfsScheduler` compiles the cgroup tree into a
flat plan and reuses it until the tree's shape or the entity layout
changes.  This test drives one compiled scheduler and the recursive
reference (``tests/sched/cfs_reference.py``) over twin copies of a
random host for several consecutive ticks, churning the host between
ticks — mkdir/rmdir (also straight through ``CgroupNode.add_child``),
entities registering, leaving and moving, quota, weight and demand
rewrites — and requires bit-identical grants, cumulative CPU time and
``cpu.stat`` counters after every tick.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.cpu import QuotaSpec
from repro.sched.cfs import CfsScheduler
from repro.sched.entity import SchedEntity
from tests.sched.cfs_reference import CfsScheduler as ReferenceScheduler
from tests.sched.test_cfs_properties import random_host

_OPS = ("mkdir", "add_child", "rmdir", "register", "unregister", "move", "quota", "weight", "demand")


def _draw_op(data, fs, entities, fresh):
    """One churn operation, drawn against the current host and
    returned as data so it can be replayed on the twin."""
    groups = [node.path for node in fs.root.walk()]
    leaves = [node.path for node in fs.root.walk() if node.parent is not None and not node.children]
    kind = data.draw(st.sampled_from(_OPS))
    if kind in ("mkdir", "add_child"):
        return (kind, data.draw(st.sampled_from(groups)), f"g{fresh}")
    if kind == "rmdir" and leaves:
        return (kind, data.draw(st.sampled_from(leaves)))
    if kind == "register":
        # Sometimes into a cgroup that does not exist (yet).
        path = data.draw(st.sampled_from(groups + ["/machine.slice/later"]))
        return (kind, path, data.draw(st.floats(0.0, 1.0)), data.draw(st.sampled_from([1.0, 0.5, 2.0])))
    if kind in ("unregister", "move", "demand") and entities:
        index = data.draw(st.integers(0, len(entities) - 1))
        if kind == "unregister":
            return (kind, index)
        if kind == "move":
            return (kind, index, data.draw(st.sampled_from(groups)))
        return (kind, index, data.draw(st.floats(0.0, 1.0)))
    if kind == "quota":
        quota = data.draw(st.none() | st.integers(0, 400_000))
        return (kind, data.draw(st.sampled_from(groups)), quota)
    if kind == "weight":
        return (kind, data.draw(st.sampled_from(groups)), data.draw(st.integers(1, 10_000)))
    return ("noop",)


def _apply(op, fs, entities, fresh):
    kind = op[0]
    if kind == "mkdir":
        fs.mkdir(op[1].rstrip("/") + "/" + op[2])
    elif kind == "add_child":
        fs.node(op[1]).add_child(op[2])
    elif kind == "rmdir":
        # Entities still naming the removed cgroup fall outside the tree.
        fs.rmdir(op[1])
    elif kind == "register":
        entities.append(SchedEntity(tid=fresh, cgroup_path=op[1], weight=op[3], demand=op[2]))
    elif kind == "unregister":
        del entities[op[1]]
    elif kind == "move":
        entities[op[1]].cgroup_path = op[2]
    elif kind == "demand":
        entities[op[1]].demand = op[2]
    elif kind == "quota":
        fs.set_quota(op[1], QuotaSpec() if op[2] is None else QuotaSpec(op[2], 100_000))
    elif kind == "weight":
        fs.node(op[1]).cpu.weight = op[2]


def _observed(fs, entities):
    grants = [(e.tid, e.allocated.hex(), e.total_cpu_seconds.hex()) for e in entities]
    stats = [
        (node.path, node.cpu.usage_usec, node.cpu.user_usec, node.cpu.system_usec)
        for node in fs.root.walk()
    ]
    return grants, stats


class TestCompiledMatchesReference:
    @given(random_host(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_under_churn(self, host, data):
        fs, entities, _, num_cpus = host
        ref_fs, ref_entities = copy.deepcopy((fs, entities))
        compiled = CfsScheduler(fs, num_cpus)
        reference = ReferenceScheduler(ref_fs, num_cpus)
        fresh = 10_000
        for _ in range(data.draw(st.integers(2, 6), label="ticks")):
            for _ in range(data.draw(st.integers(0, 4), label="churn ops")):
                fresh += 1
                op = _draw_op(data, fs, entities, fresh)
                _apply(op, fs, entities, fresh)
                _apply(op, ref_fs, ref_entities, fresh)
            dt = data.draw(st.sampled_from([0.25, 0.5, 1.0]), label="dt")
            compiled.schedule(entities, dt)
            reference.schedule(ref_entities, dt)
            assert _observed(fs, entities) == _observed(ref_fs, ref_entities)
