"""Hand-built cluster snapshots for planner/loop tests."""

from typing import Dict, Iterable, Optional, Tuple

import pytest

from repro.rebalance.arrays import ClusterStateArrays
from repro.rebalance.view import InFlightView, NodeView, VmView
from tests.rebalance.planner_reference import ClusterStateView, from_view


def make_reference_view(
    assignments: Dict[str, Iterable[Tuple[str, int, float, int]]],
    *,
    capacity_mhz: float = 9600.0,
    capacities: Optional[Dict[str, float]] = None,
    fmax_mhz: float = 2400.0,
    memory_mb: int = 32768,
    powered_off: Iterable[str] = (),
    in_flight: Iterable[InFlightView] = (),
    t: float = 0.0,
) -> ClusterStateView:
    """Build a consistent snapshot from ``{node: [(vm, vcpus, vfreq, mb)]}``.

    Per-node committed totals are derived from the VM list, so the view
    is always self-consistent — the invariant the oracle relies on.
    """
    capacities = capacities or {}
    off = set(powered_off)
    nodes: Dict[str, NodeView] = {}
    vms: Dict[str, VmView] = {}
    for node_id, vm_specs in assignments.items():
        names = []
        committed = 0.0
        committed_mb = 0
        for name, vcpus, vfreq, mb in vm_specs:
            vms[name] = VmView(
                name=name, node_id=node_id, vcpus=vcpus,
                vfreq_mhz=vfreq, memory_mb=mb,
            )
            names.append(name)
            committed += vcpus * vfreq
            committed_mb += mb
        nodes[node_id] = NodeView(
            node_id=node_id,
            capacity_mhz=capacities.get(node_id, capacity_mhz),
            fmax_mhz=fmax_mhz,
            memory_mb=memory_mb,
            committed_mhz=committed,
            committed_memory_mb=committed_mb,
            demand_mhz=committed,
            powered_on=node_id not in off,
            vm_names=tuple(sorted(names)),
        )
    return ClusterStateView(
        t=t, nodes=nodes, vms=vms, in_flight=tuple(in_flight)
    )


def make_view(
    assignments: Dict[str, Iterable[Tuple[str, int, float, int]]],
    **kwargs,
) -> ClusterStateArrays:
    """The production snapshot of :func:`make_reference_view`'s cluster."""
    return from_view(make_reference_view(assignments, **kwargs))


def vm(name: str, vcpus: int = 1, vfreq: float = 1200.0, mb: int = 512):
    return (name, vcpus, vfreq, mb)


@pytest.fixture
def pressured_view() -> ClusterStateArrays:
    """n0 over-committed by 2400 MHz (degraded capacity), n1/n2 roomy."""
    return make_view(
        {
            "n0": [vm("a", 2, 1800.0), vm("b", 1, 1200.0), vm("c", 1, 1200.0)],
            "n1": [vm("d", 1, 1200.0)],
            "n2": [],
        },
        capacities={"n0": 3600.0},  # committed 6000 -> pressure 2400
    )
