"""Column-held kernel state against a per-object reference.

The cgroup and thread counters live in per-host column tables
(:mod:`repro.cgroups.columns`), with rows allocated on ``mkdir`` /
``spawn`` and released (and reused) on ``rmdir`` / ``kill``.  This
Hypothesis test draws random sequences of tree and thread operations —
mkdir, rmdir, recreate under the same name, ``cpu.max`` / ``cpu.weight``
and v1 writes (through text and through a handle), single and batched
charges, thread spawn, kill and accounting — and replays them on a
plain per-object model.  After every operation every rendered file must
be byte-equal to the model's, and every handle cached before an
``rmdir`` must still read its own final state: writes through it never
reach a row a later ``mkdir`` reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.cpu import QuotaSpec
from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.cgroups.procfs import USER_HZ, ProcFS
from tests.sched.cfs_reference import charge_reference

PATHS = ("/a", "/b", "/c", "/a/x", "/b/x")


@dataclass
class RefCgroup:
    """One cgroup's state as a plain object (charged by ``charge_reference``)."""

    quota: int = -1
    period: int = 100_000
    weight: int = 100
    usage_usec: int = 0
    user_usec: int = 0
    system_usec: int = 0

    def files(self, version: CgroupVersion) -> Dict[str, str]:
        if version is CgroupVersion.V2:
            quota = "max" if self.quota == -1 else str(self.quota)
            return {
                "cpu.max": f"{quota} {self.period}\n",
                "cpu.stat": (
                    f"usage_usec {self.usage_usec}\nuser_usec {self.user_usec}\n"
                    f"system_usec {self.system_usec}\nnr_periods 0\n"
                    "nr_throttled 0\nthrottled_usec 0\n"
                ),
                "cpu.weight": f"{self.weight}\n",
            }
        return {
            "cpu.cfs_quota_us": f"{self.quota}\n",
            "cpu.cfs_period_us": f"{self.period}\n",
            "cpuacct.usage": f"{self.usage_usec * 1000}\n",
            "cpu.shares": f"{max(2, round(self.weight * 1024 / 100))}\n",
        }


def _proc_line(tid: int, comm: str, utime: int, processor: int) -> str:
    fields = ["0"] * 52
    fields[0], fields[1], fields[2] = str(tid), f"({comm})", "R"
    fields[13], fields[38] = str(utime), str(processor)
    return " ".join(fields) + "\n"


_path = st.sampled_from(PATHS)
_quota = st.one_of(st.just(-1), st.integers(0, 400_000))
_period = st.integers(1_000, 1_000_000)
_usec = st.floats(0.0, 2e6, allow_nan=False)
_op = st.one_of(
    st.tuples(st.just("mkdir"), _path),
    st.tuples(st.just("rmdir"), _path),
    st.tuples(st.just("recreate"), _path),
    st.tuples(st.just("text_quota"), _path, _quota, _period),
    st.tuples(st.just("text_weight"), _path, st.integers(2, 200_000)),
    st.tuples(st.just("handle_quota"), _path, _quota, _period),
    st.tuples(st.just("handle_weight"), _path, st.integers(1, 10_000)),
    st.tuples(st.just("charge_one"), _path, _usec),
    st.tuples(st.just("charge"), st.lists(st.tuples(_path, _usec), max_size=5)),
    st.tuples(st.just("stale_quota"), st.integers(0, 7), _quota),
    st.tuples(st.just("stale_charge"), st.integers(0, 7), _usec),
    st.tuples(st.just("spawn"), st.integers(0, 63)),
    st.tuples(st.just("kill"), st.integers(0, 7)),
    st.tuples(
        st.just("account"),
        st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 2.0), st.integers(0, 63)),
                 max_size=5),
    ),
)


def _text_quota(fs, ref, path, quota, period):
    if fs.version is CgroupVersion.V2:
        fs.write(f"{path}/cpu.max", f"{'max' if quota == -1 else quota} {period}")
    else:
        fs.write(f"{path}/cpu.cfs_period_us", str(period))
        fs.write(f"{path}/cpu.cfs_quota_us", str(quota))
    ref.quota, ref.period = quota, period


def _text_weight(fs, ref, path, value):
    if fs.version is CgroupVersion.V2:
        weight = min(value, 10_000)
        fs.write(f"{path}/cpu.weight", str(weight))
    else:
        fs.write(f"{path}/cpu.shares", str(value))
        weight = max(1, round(value * 100 / 1024))
    ref.weight = weight


@settings(max_examples=150, deadline=None)
@given(
    version=st.sampled_from([CgroupVersion.V1, CgroupVersion.V2]),
    ops=st.lists(_op, min_size=1, max_size=40),
)
def test_columns_match_per_object_reference(version, ops):
    fs = CgroupFS(version)
    procfs = ProcFS()
    live: Dict[str, RefCgroup] = {}
    stale: List = []  # (handle, RefCgroup) of removed cgroups
    threads: Dict[int, List] = {}  # tid -> [comm, utime, processor]

    def parent_ok(path):
        parent = path.rsplit("/", 1)[0]
        return not parent or parent in live

    def leaf(path):
        return path in live and not any(p.startswith(path + "/") for p in live)

    def rmdir(path):
        handle = fs.node(path).cpu
        fs.rmdir(path)
        stale.append((handle, live.pop(path)))

    for op in ops:
        kind = op[0]
        if kind == "mkdir" and op[1] not in live and parent_ok(op[1]):
            fs.mkdir(op[1])
            live[op[1]] = RefCgroup()
        elif kind == "rmdir" and leaf(op[1]):
            rmdir(op[1])
        elif kind == "recreate" and leaf(op[1]):
            rmdir(op[1])
            fs.mkdir(op[1])
            live[op[1]] = RefCgroup()
        elif kind == "text_quota" and op[1] in live:
            _text_quota(fs, live[op[1]], *op[1:])
        elif kind == "text_weight" and op[1] in live:
            _text_weight(fs, live[op[1]], *op[1:])
        elif kind == "handle_quota" and op[1] in live:
            fs.node(op[1]).cpu.quota = QuotaSpec(op[2], op[3])
            live[op[1]].quota, live[op[1]].period = op[2], op[3]
        elif kind == "handle_weight" and op[1] in live:
            fs.node(op[1]).cpu.weight = op[2]
            live[op[1]].weight = op[2]
        elif kind == "charge_one" and op[1] in live:
            fs.node(op[1]).cpu.charge(op[2])
            charge_reference(live[op[1]], op[2])
        elif kind == "charge":
            batch = dict((p, u) for p, u in op[1] if p in live)
            rows = np.array([fs.node(p).cpu.row for p in batch], dtype=np.intp)
            fs.root.table.charge(rows, np.array(list(batch.values()), dtype=np.float64))
            for p, u in batch.items():
                charge_reference(live[p], u)
        elif kind == "stale_quota" and op[1] < len(stale):
            handle, ref = stale[op[1]]
            handle.quota = QuotaSpec(op[2], 50_000)
            ref.quota, ref.period = op[2], 50_000
        elif kind == "stale_charge" and op[1] < len(stale):
            handle, ref = stale[op[1]]
            handle.charge(op[2])
            charge_reference(ref, op[2])
        elif kind == "spawn":
            tid = procfs.spawn(f"CPU {op[1]}/KVM", processor=op[1])
            threads[tid] = [f"CPU {op[1]}/KVM", 0, op[1]]
        elif kind == "kill" and threads:
            tid = sorted(threads)[op[1] % len(threads)]
            procfs.kill(tid)
            del threads[tid]
        elif kind == "account" and threads:
            order = sorted(threads)
            batch = {order[i % len(order)]: (s, c) for i, s, c in op[1]}
            if len(batch) == 1:
                (tid, (secs, core)), = batch.items()
                procfs.account(tid, secs, core)
            else:
                procfs.threads.account(
                    procfs.rows(list(batch)),
                    np.array([s for s, _ in batch.values()]),
                    np.array([c for _, c in batch.values()]),
                )
            for tid, (secs, core) in batch.items():
                threads[tid][1] += int(round(secs * USER_HZ))
                threads[tid][2] = core

        for path, ref in live.items():
            for fname, want in ref.files(version).items():
                assert fs.read(f"{path}/{fname}") == want, (path, fname, op)
        for handle, ref in stale:
            got = RefCgroup(
                quota=handle.quota.quota_us, period=handle.quota.period_us,
                weight=handle.weight, usage_usec=handle.usage_usec,
                user_usec=handle.user_usec, system_usec=handle.system_usec,
            )
            assert got == ref, op
        for tid, (comm, utime, processor) in threads.items():
            assert procfs.read_stat(tid) == _proc_line(tid, comm, utime, processor)
        assert len(fs.root.table) == len(live) + 1  # the root's row
        assert len(procfs.threads) == len(threads)
