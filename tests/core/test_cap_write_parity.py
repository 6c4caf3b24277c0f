"""Differential property test: stage 6 leaves the same bytes on both engines.

The bulk engine hands the backend only the rows whose quota differs
from ``SlotArena.last_quota``; the scalar oracle hands over every row
and lets ``HostBackend.write_cap_one`` skip the ones in force.  The two
agree only while ``last_quota`` never claims a quota the backend has
forgotten.  The backend forgets one on a failed or vanished write,
which the bulk engine marks -1, or through ``forget_vcpu``, which the
controller calls only where it also releases the vCPU's slot.

The backend also forgets a quota when it finds a new cgroup behind a
known path (a VM destroyed and re-provisioned under the same name
between ticks, never unregistered); the bulk engine then marks the
slot -1 through ``HostBackend.recreated``.

Twin hosts, one per engine, go through the churn that stresses exactly
that: a VM unregistered, destroyed and re-provisioned under the same
name; ``set_vfreq``; a VM destroyed without being unregistered (its
cgroup vanishes under a registered VM), or destroyed and re-provisioned
idle without being unregistered (its cgroup is recreated); and
``write_error`` plans under a ``ResiliencePolicy``.  After every tick
both hosts must hold the same ``cpu.max`` bytes and the same
``fs_writes``, ``cap_writes_skipped`` and ``write_errors``, on top of
identical reports and a clean invariant catalogue, and every allocated
cgroup's ``cpu.max`` must hold the quota its allocation scales to.

With no fault plan ``write_caps`` sets quotas straight in the cgroup
columns by the stage-1 topology's rows, on v1 and v2 alike; an armed
fault plan sends every write through the file seam.  The route test
runs the same churn through the handle route, the seam (forced, and
under an armed plan) and v1, and requires the same allocations, the
same quotas on disk, the same write counters and the same ``_last_cap``
record (``fs_writes`` is not compared on v1: a v1 cap is two file
writes).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from repro.checking.trace import Trace, _compare_reports, _Replica
from repro.core.backend import HostBackend
from repro.core.enforcer import quota_us

NAMES = ("vm-a", "vm-b", "vm-c")
COUNTERS = ("fs_writes", "cap_writes_skipped", "write_errors")
#: Ticks run before the drawn steps, so quotas have converged (and most
#: rows are clean) by the time churn and write faults start.
WARMUP = 8

_name = st.sampled_from(NAMES)
_vm = st.tuples(
    _name, st.integers(1, 2), st.sampled_from([300.0, 600.0, 1200.0])
)
_step = st.one_of(
    st.just(("tick",)),
    st.just(("tick",)),
    st.just(("tick",)),
    _vm.map(lambda v: ("reprovision",) + v),
    _vm.map(lambda v: ("provision",) + v),
    st.tuples(st.just("destroy"), _name),
    st.tuples(st.just("vanish"), _name),
    st.tuples(st.just("recreate"), _name),
    st.tuples(st.just("set_vfreq"), _name, st.sampled_from([250.0, 900.0])),
    st.tuples(st.just("demand"), _name, st.sampled_from([0.0, 0.3, 1.0])),
)
_write_fault = st.builds(
    lambda target, start, length, probability, error: {
        "kind": "write_error", "target": target, "start_tick": start,
        "end_tick": start + length, "probability": probability,
        "error": error,
    },
    st.sampled_from(["*/cpu.max", "*/vm-a/*", "*/vm-b/vcpu0/*"]),
    st.integers(WARMUP, WARMUP + 8),
    st.integers(1, 4),
    st.sampled_from([1.0, 0.5]),
    st.sampled_from(["EBUSY", "EIO"]),
)
_plan = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "seed": st.integers(0, 2**16),
        "specs": st.lists(_write_fault, min_size=1, max_size=2),
    }),
)


def _apply(replica, step) -> None:
    kind, name = step[0], step[1]
    if kind == "reprovision":
        # Unregister and destroy, then the same name comes back.
        replica.apply({"kind": "destroy", "vm": name})
        _apply(replica, ("provision",) + step[1:])
    elif kind == "provision":
        replica.apply({"kind": "provision", "vm": name, "vcpus": step[2],
                       "vfreq": step[3], "level": 0.8})
    elif kind == "vanish":
        # The cgroup goes; the controller is never told.
        if any(vm.name == name for vm in replica.hypervisor.vms):
            replica.hypervisor.destroy(name)
    elif kind == "recreate":
        # A new cgroup under the same name; the controller is never told.
        if any(vm.name == name for vm in replica.hypervisor.vms):
            replica.hypervisor.destroy(name)
            replica.hypervisor.provision(replica.templates[name], name)
    elif kind == "set_vfreq":
        replica.apply({"kind": "set_vfreq", "vm": name, "vfreq": step[2]})
    elif kind == "demand":
        replica.apply({"kind": "demand", "vm": name, "level": step[2]})
    else:
        replica.apply({"kind": kind, "vm": name})


def _cpu_max(replica):
    fs = replica.node.fs
    return {
        vcpu.cgroup_path: fs.read(f"{vcpu.cgroup_path}/cpu.max")
        for vm in replica.hypervisor.vms
        for vcpu in vm.vcpus
    }


def _not_in_force(replica, report):
    """Allocated paths whose cgroup holds another quota than decided.

    Skips the paths the oracle skips: a write that failed and is
    tracked for retry, and a cgroup that no longer exists.
    """
    fs = replica.node.fs
    config = replica.config
    failed = replica.controller.backend.last_write_errors
    out = {}
    for path, alloc in report.allocations.items():
        if path in failed or not fs.exists(path):
            continue
        got = fs.read(f"{path}/cpu.max").strip()
        want = f"{quota_us(alloc, config)} {config.enforcement_period_us}"
        if got != want:
            out[path] = (got, want)
    return out


_TICKS = [("tick",)] * 6


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Pinned: the same name returns with a fresh slot and no backend record.
@example(plan=None, resilience=False,
         steps=[("reprovision", "vm-a", 2, 600.0)] + _TICKS)
# Pinned: writes fail while a quota moves, then it settles on the quota
# whose write failed; that row must still be rewritten.
@example(
    plan={"seed": 1, "specs": [{
        "kind": "write_error", "target": "*/cpu.max",
        "start_tick": WARMUP + 1, "end_tick": WARMUP + 5,
        "probability": 1.0, "error": "EBUSY",
    }]},
    resilience=True,
    steps=[("demand", "vm-a", 0.3)] + _TICKS,
)
# Pinned: a registered VM's cgroup vanishes, then the name comes back.
@example(plan=None, resilience=True,
         steps=[("vanish", "vm-b")] + _TICKS
         + [("provision", "vm-b", 1, 300.0)] + _TICKS)
# Pinned: an idle VM's cgroup is recreated between two ticks, while its
# quota stays the one in force.
@example(plan=None, resilience=False,
         steps=[("demand", "vm-b", 0.0)] + _TICKS * 2
         + [("recreate", "vm-b")] + _TICKS)
@given(
    plan=_plan,
    resilience=st.booleans(),
    steps=st.lists(_step, min_size=1, max_size=30),
)
def test_cap_writes_identical_across_engines(plan, resilience, steps):
    header = Trace.make_header(
        seed=3, resilience=resilience, fault_plan=plan
    )
    trace = Trace(header=header)
    scalar, bulk = _Replica(trace, "scalar"), _Replica(trace, "bulk")
    for name in NAMES[:2]:
        for r in (scalar, bulk):
            _apply(r, ("provision", name, 2, 600.0))
    t = 0.0
    for step in [("tick",)] * WARMUP + steps:
        if step[0] != "tick":
            for r in (scalar, bulk):
                _apply(r, step)
            continue
        t += 1.0
        report_s, bad_s = scalar.tick(t)
        report_b, bad_b = bulk.tick(t)
        assert bad_s == [] and bad_b == [], [str(v) for v in bad_s + bad_b]
        diffs = _compare_reports(report_s, report_b, ("scalar", "bulk"), t)
        assert diffs == [], [str(v) for v in diffs]
        stats_s = scalar.controller.backend.stats
        stats_b = bulk.controller.backend.stats
        for counter in COUNTERS:
            assert getattr(stats_s, counter) == getattr(stats_b, counter), (
                f"tick {t}: {counter}"
            )
        assert _cpu_max(scalar) == _cpu_max(bulk), f"tick {t}: cpu.max"
        assert _not_in_force(scalar, report_s) == {}, f"tick {t}"


#: An armed plan that never fires: the backend reads through the
#: per-file scan instead of the direct-handle fast path.
_ARMED = {"seed": 1, "specs": [{
    "kind": "read_error", "target": "*/no-such-vm/*", "start_tick": 0,
    "end_tick": 10_000, "probability": 1.0, "error": "EIO",
}]}


@pytest.mark.parametrize("armed", [False, True], ids=["fast", "armed"])
@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_recreated_cgroup_gets_its_quota(engine, armed):
    """An idle VM whose cgroup is recreated under the same name, never
    unregistered, is capped again at the next tick."""
    header = Trace.make_header(
        seed=3, resilience=armed, fault_plan=_ARMED if armed else None
    )
    replica = _Replica(Trace(header=header), engine)
    _apply(replica, ("provision", "vm-a", 1, 600.0))
    replica.apply({"kind": "demand", "vm": "vm-a", "level": 0.0})
    t = 0.0
    for _ in range(10):
        t += 1.0
        replica.tick(t)
    writes = replica.controller.backend.stats.fs_writes
    _apply(replica, ("recreate", "vm-a"))
    for _ in range(5):
        t += 1.0
        report, bad = replica.tick(t)
        assert report.allocations, f"tick {t}"
        assert _not_in_force(replica, report) == {}, f"tick {t}"
        assert bad == [], [str(v) for v in bad]
    # The fresh cgroup's quota is written once, then skipped again.
    assert replica.controller.backend.stats.fs_writes == writes + 1


def _quotas(replica):
    """Each vCPU cgroup's (quota, period), read through its files."""
    fs = replica.node.fs
    out = {}
    for vm in replica.hypervisor.vms:
        for vcpu in vm.vcpus:
            p = vcpu.cgroup_path
            if fs.version.value == 2:
                quota, period = fs.read(f"{p}/cpu.max").split()
            else:
                quota = fs.read(f"{p}/cpu.cfs_quota_us").strip()
                period = fs.read(f"{p}/cpu.cfs_period_us").strip()
            out[p] = ("max" if quota in ("max", "-1") else int(quota), int(period))
    return out


class _SeamWrites(HostBackend):
    """A backend that samples through the column route but sends every
    cap write through the file seam, as an armed fault plan does."""

    def _write_caps_direct(self, paths, quota_us, enf, rows, check):
        return list(rows)


#: The write routes besides the handle route: (fault plan, cgroup version).
_ROUTES = {"handle": (None, 2), "seam": (None, 2), "armed": (_ARMED, 2), "v1": (None, 1)}


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Pinned: two busy VMs, one recreated under its name before tick 9;
# every route must re-walk on tick 9, not skip its vCPUs for a tick.
@example(
    engine="scalar",
    steps=[("demand", "vm-a", 0.9), ("demand", "vm-b", 0.9),
           ("recreate", "vm-a")] + _TICKS,
)
# Pinned: re-provisioning, a vanished cgroup and a recreated one.
@example(
    engine="bulk",
    steps=[("reprovision", "vm-a", 2, 600.0)] + _TICKS
    + [("vanish", "vm-b")] + _TICKS
    + [("provision", "vm-b", 1, 300.0), ("demand", "vm-b", 0.0)] + _TICKS
    + [("recreate", "vm-b")] + _TICKS,
)
@given(
    engine=st.sampled_from(["scalar", "bulk"]),
    steps=st.lists(_step, min_size=1, max_size=24),
)
def test_handle_route_matches_file_seam(engine, steps):
    """The handle route against the file seam, write for write, through
    every step."""
    replicas = {}
    for route, (plan, version) in _ROUTES.items():
        header = Trace.make_header(
            seed=3, resilience=True, fault_plan=plan, cgroup_version=version,
        )
        replicas[route] = _Replica(Trace(header=header), engine)
    replicas["seam"].controller.backend.__class__ = _SeamWrites
    direct = replicas["handle"].controller.backend
    assert direct.fs.version.value == 2 and direct._direct_io_ok()
    for r in replicas.values():
        for name in NAMES[:2]:
            _apply(r, ("provision", name, 2, 600.0))
    compared = list(_ROUTES)[1:]
    t = 0.0
    for step in [("tick",)] * WARMUP + steps:
        if step[0] != "tick":
            for r in replicas.values():
                _apply(r, step)
            continue
        t += 1.0
        reports = {route: r.tick(t) for route, r in replicas.items()}
        base, _ = reports["handle"]
        quotas = _quotas(replicas["handle"])
        stats = direct.stats
        for route in compared:
            report, bad = reports[route]
            assert bad == [], (route, [str(v) for v in bad])
            assert report.allocations == base.allocations, (route, t)
            backend = replicas[route].controller.backend
            assert _quotas(replicas[route]) == quotas, (route, t)
            assert backend._last_cap == direct._last_cap, (route, t)
            # A v1 cap is two file writes (one if the cgroup is gone).
            counters = COUNTERS[1:] if route == "v1" else COUNTERS
            for counter in counters:
                assert getattr(backend.stats, counter) == getattr(stats, counter), (
                    route, t, counter,
                )

