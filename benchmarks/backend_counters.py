"""Print per-tick allocation digests and kernel-I/O counters per read route.

perfbench drives only the unarmed cgroup v2 host, where stage 1 reads
and stage 6 writes the kernel columns through cached handles.  This
script pins the other routes as well: it runs fixed ``_Replica``
schedules (two 2-vCPU VMs at demand 0.9, then churn) through three
routes on both engines —

* ``v2``: a cgroup v2 host with no fault plan (the handle route);
* ``armed``: the same host under ``FaultPlan.standard_mix(seed=9)``,
  so every read and write goes through the per-file seam;
* ``v1``: a cgroup v1 host with no fault plan —

and prints one line per tick: the digest of the tick's allocations and
the backend's cumulative :class:`~repro.core.backend.BackendStats`.
The schedules cover VM arrival and departure (``churn``), a VM's
cgroups destroyed and recreated under the same name without telling
the controller (``recreate``), and a vCPU thread that exits while its
cgroup stays (``thread-exit``).  Everything is seeded, so a change that
claims to keep a route's behaviour must print the same lines::

    make -s backend-counters | diff benchmarks/results/backend_counters.txt -
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields

from repro.checking.trace import Trace, _Replica
from repro.core.backend import BackendStats
from repro.faults import FaultPlan

#: Route name -> (fault plan, cgroup version).
ROUTES = {
    "v2": (None, 2),
    "armed": (json.loads(FaultPlan.standard_mix(seed=9).to_json()), 2),
    "v1": (None, 1),
}
ENGINES = ("scalar", "bulk")
#: Ticks run before each schedule's first event.
WARMUP = 8

SCHEDULES = {
    "churn": [
        ("tick", 3), ("provision", "vm-c", 1), ("tick", 2),
        ("destroy", "vm-b"), ("tick", 2), ("provision", "vm-b", 2),
        ("tick", 2), ("destroy", "vm-c"), ("provision", "vm-d", 2),
        ("tick", 3),
    ],
    "recreate": [("recreate", "vm-a"), ("tick", 8)],
    "thread-exit": [("kill", "vm-a", 0), ("tick", 6)],
}


def _provision(replica: _Replica, name: str, vcpus: int) -> None:
    replica.apply({"kind": "provision", "vm": name, "vcpus": vcpus,
                   "vfreq": 600.0, "level": 0.9})


def _apply(replica: _Replica, event) -> None:
    kind, name = event[0], event[1]
    hypervisor = replica.hypervisor
    if kind == "provision":
        _provision(replica, name, event[2])
    elif kind == "destroy":
        replica.apply({"kind": "destroy", "vm": name})
    elif kind == "recreate":
        # New cgroups under the same name; the controller is never told.
        hypervisor.destroy(name)
        hypervisor.provision(replica.templates[name], name)
        hypervisor._vms[name].set_uniform_demand(0.9)
    elif kind == "kill":
        # The vCPU's KVM thread exits and leaves its cgroup, which stays.
        vcpu = hypervisor._vms[name].vcpus[event[2]]
        node = replica.node
        node.fs.node(vcpu.cgroup_path).detach_thread(vcpu.tid)
        node.procfs.kill(vcpu.tid)
        node.unregister_entity(vcpu.tid)
    else:
        raise ValueError(f"unknown event {kind!r}")


def _digest(allocations) -> str:
    text = repr(sorted(allocations.items()))
    return hashlib.md5(text.encode()).hexdigest()[:12]


def _stats(stats: BackendStats) -> str:
    return " ".join(f"{f.name}={getattr(stats, f.name)}" for f in fields(stats))


def run(schedule: str, route: str, engine: str):
    """Yield one line per tick of ``schedule`` on ``route``."""
    plan, version = ROUTES[route]
    header = Trace.make_header(
        seed=3, resilience=True, fault_plan=plan, cgroup_version=version
    )
    replica = _Replica(Trace(header=header), engine)
    for name in ("vm-a", "vm-b"):
        _provision(replica, name, 2)
    events = [("tick", WARMUP)] + SCHEDULES[schedule]
    t = 0
    for event in events:
        if event[0] != "tick":
            _apply(replica, event)
            continue
        for _ in range(event[1]):
            t += 1
            report, _ = replica.tick(float(t))
            stats = replica.controller.backend.stats
            yield (
                f"{schedule} {route} {engine} t={t} "
                f"alloc={_digest(report.allocations)} {_stats(stats)}"
            )


def main() -> int:
    for schedule in SCHEDULES:
        for route in ROUTES:
            for engine in ENGINES:
                for line in run(schedule, route, engine):
                    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
