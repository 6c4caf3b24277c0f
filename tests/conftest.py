"""Shared fixtures: a tiny fast node and a fully wired mini-host."""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro.cgroups.fs import CgroupVersion
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.virt.hypervisor import Hypervisor


# CI runs with HYPOTHESIS_PROFILE=ci and --hypothesis-seed=0: derandom-
# ized, no per-example deadline (shared runners are jittery).  Local
# runs keep the default profile's random exploration.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, max_examples=25
)


TINY = NodeSpec(
    name="tiny",
    cpu_model="test 4-thread CPU",
    sockets=1,
    cores_per_socket=2,
    threads_per_core=2,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=16 * 1024,
    freq_jitter_mhz=0.0,  # deterministic by default
)


@pytest.fixture
def tiny_spec() -> NodeSpec:
    return TINY


@pytest.fixture(params=[CgroupVersion.V2, CgroupVersion.V1], ids=["v2", "v1"])
def cgroup_version(request) -> CgroupVersion:
    return request.param


@pytest.fixture
def node(tiny_spec) -> Node:
    return Node(tiny_spec, seed=42)


@pytest.fixture
def hypervisor(node) -> Hypervisor:
    return Hypervisor(node)


@pytest.fixture
def controller(node) -> VirtualFrequencyController:
    return VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=node.spec.logical_cpus,
        fmax_mhz=node.spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(),
    )


def make_host(spec: NodeSpec = TINY, *, version: CgroupVersion = CgroupVersion.V2,
              config: ControllerConfig | None = None, seed: int = 42):
    """Node + hypervisor + controller, wired like the scenario builder."""
    node = Node(spec, cgroup_version=version, seed=seed)
    hv = Hypervisor(node)
    ctrl = VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=spec.logical_cpus,
        fmax_mhz=spec.fmax_mhz,
        config=config or ControllerConfig.paper_evaluation(),
    )
    return node, hv, ctrl


def frame_from_rows(rows, *, reserve_guarantee=False):
    """A :class:`~repro.core.frame.DecisionFrame` from ledger-style dicts.

    The inverse of ``DecisionFrame.rows()``; missing keys read as
    absent (NaN / ``None``), ``purchased`` and ``free_share`` as 0.0.
    Rows with a ``consumed`` value count as sampled.
    """
    import math

    import numpy as np

    from repro.core.frame import CASES, DecisionFrame

    def floats(key, default=None):
        values = [row.get(key, default) for row in rows]
        return np.array([math.nan if v is None else v for v in values],
                        dtype=np.float64)

    codes = {case.name.lower(): code for code, case in enumerate(CASES)}
    return DecisionFrame(
        path=[row.get("path", "") for row in rows],
        vm=[row["vm"] for row in rows],
        vcpu=np.array([row.get("vcpu", -1) for row in rows], dtype=np.int64),
        vfreq=[row.get("vfreq") for row in rows],
        consumed=floats("consumed"),
        estimate=floats("estimate"),
        trend=floats("trend"),
        case=np.array([codes.get(row.get("case"), -1) for row in rows],
                      dtype=np.int8),
        guarantee=floats("guarantee"),
        base=floats("base"),
        purchased=floats("purchased", 0.0),
        free_share=floats("free_share", 0.0),
        fallback=floats("fallback"),
        allocation=floats("allocation"),
        quota=np.array([row.get("quota_us", 0) for row in rows],
                       dtype=np.int64),
        sampled=sum(row.get("consumed") is not None for row in rows),
        reserve_guarantee=reserve_guarantee,
    )

