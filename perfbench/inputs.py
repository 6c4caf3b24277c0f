"""Seeded inputs for the three benchmark workloads.

Everything the program will be fed — VM sets, tenants, per-vCPU demand
traces, VM requests and lifetimes — is generated here from ``--seed``
before any timing starts.  The same seed gives the same inputs, bit for
bit.  The shapes come from the repository, not from this package:

* VM templates are the paper's ``SMALL`` / ``MEDIUM`` / ``LARGE``.
  ``dense`` fills each CHICLET host with the paper's first evaluation
  mix on that node (32 small + 16 large, :func:`repro.sim.scenario.
  eval1_chiclet`); ``fleet`` splits the same 2:1 mix into 3-VM hosts;
  ``churn`` draws requests from the §IV-C placement mix (250 small + 50
  medium + 100 large, :func:`repro.placement.request.paper_workload`).
  Every host therefore commits 95.8 % of its MHz on Eq. 7 (``churn``
  admits up to 100 %), as in the paper.
* Demand is the mixed population of the repository's operator study
  (``benchmarks/bench_operator_study.py``): every other VM runs a
  saturating batch load (:class:`ConstantWorkload`, level 1.0), the
  others the low-traffic website shape (:class:`BurstyWorkload` with
  its default levels and phase lengths).

Bursty demand is sampled ``CYCLE`` periods long, starting
``BURST_LEAD_S`` into the shape so that on/off phases are already mixed
at t = 0 (the shape starts every VM "off").  ``dense`` and ``fleet``
receive it through ``vcpu.set_demand``, replayed modulo ``CYCLE``;
``churn`` VMs carry a looping :class:`repro.workloads.trace.
TraceWorkload` of it, handed to the operator's workload factory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from repro.hw.nodespecs import CHETEMI, CHICLET, NodeSpec
from repro.placement.request import paper_workload
from repro.sim.arrivals import ArrivalEvent, generate_arrivals
from repro.virt.template import LARGE, SMALL, VMTemplate
from repro.workloads.base import Workload
from repro.workloads.synthetic import BurstyWorkload, ConstantWorkload
from repro.workloads.trace import TraceWorkload

#: Length of every static demand trace, in control periods (replayed
#: cyclically; a 10 s run reaches period ~160, so it never wraps).
CYCLE = 256
#: Bursty traces are sampled from this far into the shape.
BURST_LEAD_S = 600.0
TENANTS = ("tenant-a", "tenant-b", "tenant-c")

#: The paper's first evaluation mix on chiclet, per host.
EVAL1_CHICLET_MIX = ((SMALL, 32), (LARGE, 16))
#: ``fleet`` host: the same 2:1 small/large mix, 3 VMs (8 vCPUs).
FLEET_HOST_MIX = ((SMALL, 2), (LARGE, 1))

#: ``fleet`` node: one 4-thread frequency domain (CCX) of a chiclet —
#: same F_MAX/F_MIN and jitter, so the 3-VM host commits 9200 of 9600
#: MHz, the same Eq. 7 share as a full chiclet under the eval1 mix.
FLEET_SPEC = replace(
    CHICLET,
    name="chiclet-ccx",
    cpu_model="one 4-thread CCX of an AMD EPYC 7301",
    sockets=1,
    cores_per_socket=2,
    memory_mb=16 * 1024,
)


@dataclass(frozen=True)
class Size:
    """Workload dimensions (tests shrink them; the benchmark never does)."""

    hosts: int
    #: churn: steady vCPU population and mean VM lifetime in periods.
    vcpus: int = 0
    lifetime_periods: float = 0.0


SIZES: Dict[str, Size] = {
    "dense": Size(hosts=8),
    "fleet": Size(hosts=128),
    "churn": Size(hosts=24, vcpus=520, lifetime_periods=20.0),
}
TINY_SIZES: Dict[str, Size] = {
    "dense": Size(hosts=1),
    "fleet": Size(hosts=6),
    "churn": Size(hosts=4, vcpus=60, lifetime_periods=12.0),
}

SPECS: Dict[str, NodeSpec] = {
    "dense": CHICLET,
    "fleet": FLEET_SPEC,
    "churn": CHETEMI,
}
HOST_MIX = {"dense": EVAL1_CHICLET_MIX, "fleet": FLEET_HOST_MIX}


def vm_demand(k: int, seed: int) -> np.ndarray:
    """``CYCLE`` periods of one VM's demand (the same on every vCPU).

    The operator study's population: even VMs batch, odd VMs bursty.
    """
    if k % 2 == 0:
        return np.ones(CYCLE)
    shape = BurstyWorkload(1, horizon=BURST_LEAD_S + CYCLE, seed=seed)
    return np.array([shape.demand(0, BURST_LEAD_S + t) for t in range(CYCLE)])


@dataclass
class StaticInputs:
    """A fixed VM set (``dense``, ``fleet``): VMs per host plus demand."""

    spec: NodeSpec
    #: Per host: ``(vm_name, template)`` in provisioning order.
    hosts: List[List[Tuple[str, VMTemplate]]]
    #: ``rows[k][j]``: demand of the j-th vCPU (host, VM, vCPU order)
    #: in cycle period ``k``.
    rows: List[List[float]]

    @property
    def n_vcpus(self) -> int:
        return sum(tpl.vcpus for host in self.hosts for _, tpl in host)

    def vcpu_offsets(self) -> List[int]:
        """Index of each host's first vCPU column in ``rows``."""
        out, k = [], 0
        for host in self.hosts:
            out.append(k)
            k += sum(tpl.vcpus for _, tpl in host)
        return out


@dataclass
class ChurnInputs:
    """Open-loop VM churn at a steady vCPU population.

    ``requests`` is the seeded stream of VM requests (template mix,
    exponential lifetimes) from ``generate_arrivals``; the cluster
    admits the next requests whenever departures leave it below
    ``target_vcpus``, so the population — and with it the per-period
    work — stays steady while VMs come and go every period.
    """

    spec: NodeSpec
    hosts: int
    target_vcpus: int
    requests: List[ArrivalEvent]
    #: Per VM name: the workload its vCPUs run.
    workloads: Dict[str, Workload]


def static_inputs(workload: str, seed: int, size: Size) -> StaticInputs:
    """Every host gets the workload's VM mix; the seed draws the rest.

    The VM mix is part of the workload's stated size, so it is the same
    for every seed; the seed draws tenants and the bursty phases.
    """
    rng = np.random.default_rng([seed, 1 if workload == "dense" else 2])
    hosts = []
    columns: List[np.ndarray] = []
    k = 0
    for h in range(size.hosts):
        host = []
        for base, count in HOST_MIX[workload]:
            for _ in range(count):
                tenant = TENANTS[int(rng.integers(len(TENANTS)))]
                tpl = base.with_tenant(tenant)
                host.append((f"h{h:04d}-vm{len(host):02d}", tpl))
                columns.extend([vm_demand(k, int(rng.integers(2**32)))] * tpl.vcpus)
                k += 1
        hosts.append(host)
    rows = np.stack(columns, axis=1).tolist()
    return StaticInputs(SPECS[workload], hosts, rows)


def churn_mix() -> List[Tuple[VMTemplate, float]]:
    """The §IV-C placement workload's templates, weighted by count."""
    counts = Counter(request.template for request in paper_workload())
    return [(tpl, float(n)) for tpl, n in counts.items()]


#: Requests generated ahead: each build of a 10 s run takes ~1000, so
#: this covers runs of up to ~25 s before the population thins.
CHURN_HORIZON_S = 500.0


def churn_inputs(seed: int, size: Size) -> ChurnInputs:
    mix = churn_mix()
    mean_vcpus = sum(t.vcpus * w for t, w in mix) / sum(w for _, w in mix)
    rate = size.vcpus / mean_vcpus / size.lifetime_periods
    requests = generate_arrivals(
        rate_per_s=rate,
        template_mix=mix,
        mean_lifetime_s=size.lifetime_periods,
        horizon_s=CHURN_HORIZON_S,
        seed=seed,
    )
    rng = np.random.default_rng([seed, 3])
    workloads: Dict[str, Workload] = {}
    for k, e in enumerate(requests):
        vcpus = e.template.vcpus
        trace = vm_demand(k, int(rng.integers(2**32)))
        if k % 2 == 0:
            workloads[e.name] = ConstantWorkload(vcpus, level=1.0)
        else:
            workloads[e.name] = TraceWorkload(
                vcpus, times=np.arange(CYCLE, dtype=np.float64),
                demands=np.repeat(trace[:, None], vcpus, axis=1), loop=True,
            )
    return ChurnInputs(CHETEMI, size.hosts, size.vcpus, requests, workloads)


def make_inputs(workload: str, seed: int, *, tiny: bool = False):
    size = (TINY_SIZES if tiny else SIZES)[workload]
    if workload == "churn":
        return churn_inputs(seed, size)
    return static_inputs(workload, seed, size)
