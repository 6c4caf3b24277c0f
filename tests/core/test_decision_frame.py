"""The per-tick :class:`~repro.core.frame.DecisionFrame`.

* The bulk engine's frame is bit-identical to the scalar engine's,
  column by column, over fuzz traces (churn, fault plans, restarts) and
  over drawn scenarios that add ``reserve_guarantee``, config A,
  degraded-only paths and batched node groups.
* A frame, and everything built from it later, never changes under a
  later tick: no frame aliases a buffer a later tick rewrites.
* A bulk tick with the hub, billing and the SLO plane attached and
  ``keep_reports`` on builds no ``VCpuSample`` or ``EstimatorDecision``
  object unless ``report.samples`` or ``report.decisions`` is read.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.billing import BillingEngine
from repro.checking import generate_trace
from repro.checking.trace import ENGINES, replay
from repro.core.backend import SampleBatch, VCpuSample
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.estimator import EstimatorDecision
from repro.core.frame import COLUMNS
from repro.core.resilience import ResiliencePolicy
from repro.hw.node import Node
from repro.obs.config import ObsConfig
from repro.obs.hub import Observability
from repro.obs.slo import SLOConfig, SLOPlane
from repro.sim.node_manager import NodeManager
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from tests.conftest import TINY

TEMPLATE = VMTemplate("fr", vcpus=2, vfreq_mhz=500.0)
HOSTS = 2
MAX_VMS = 3
HIDE_TICKS = 5


def assert_frames_identical(a, b, where=""):
    assert (a.sampled, a.reserve_guarantee) == (b.sampled, b.reserve_guarantee), where
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, list):
            assert x == y, (where, name)
            assert [type(v) for v in x] == [type(v) for v in y], (where, name)
        else:
            assert x.dtype == y.dtype, (where, name)
            assert x.tobytes() == y.tobytes(), (where, name)


# -- fuzz traces ---------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=5)
def test_frames_bit_identical_over_fuzz_traces(seed):
    trace = generate_trace(seed, ticks=40, tenants=2)
    result = replay(trace, engines=ENGINES, collect_reports=True)
    assert result.ok, [str(v) for v in result.violations]
    scalar, bulk = (result.reports[e] for e in ENGINES)
    assert len(scalar) == len(bulk) == result.ticks
    for k, (a, b) in enumerate(zip(scalar, bulk)):
        assert_frames_identical(a.frame, b.frame, f"seed {seed} tick {k}")


# -- drawn scenarios: reserve_guarantee, config A, degraded-only paths ---------


class _HidingBackend:
    """Hides chosen vCPU paths from ``sample_all`` (drives degraded mode)."""

    def __init__(self, backend):
        object.__setattr__(self, "_backend", backend)
        object.__setattr__(self, "hidden", {})  # path fragment -> ticks left

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def __setattr__(self, name, value):
        setattr(self._backend, name, value)

    def sample_all(self, period_s):
        batch = self._backend.sample_all(period_s)
        hidden = self.hidden
        if not hidden:
            return batch
        samples = [
            s for s in batch.to_samples()
            if not any(frag in s.cgroup_path for frag in hidden)
        ]
        for frag in list(hidden):
            hidden[frag] -= 1
            if not hidden[frag]:
                del hidden[frag]
        return SampleBatch.from_samples(samples, period_s)


class _Cluster:
    """``HOSTS`` hosts on one engine; bulk hosts tick as one batched group."""

    def __init__(self, engine, *, reserve, control, hosts=HOSTS):
        cfg = ControllerConfig.paper_evaluation(
            engine=engine,
            reserve_guarantee=reserve,
            control_enabled=control,
            # A hidden vCPU is carried forward while already degraded
            # (a sampled row with a fallback), then loses its row (a
            # degraded-only row).
            resilience=ResiliencePolicy(
                stale_sample_max_age=2, degraded_after_ticks=2
            ),
        )
        self.hosts = hosts
        self.nodes, self.hvs, self.ctrls = [], [], {}
        for h in range(hosts):
            node = Node(TINY, seed=7 + h)
            ctrl = VirtualFrequencyController(
                node.fs, node.procfs, node.sysfs,
                num_cpus=TINY.logical_cpus, fmax_mhz=TINY.fmax_mhz,
                config=cfg,
            )
            ctrl.backend = _HidingBackend(ctrl.backend)
            self.nodes.append(node)
            self.hvs.append(Hypervisor(node, enforce_admission=False))
            self.ctrls[f"node-{h}"] = ctrl
        self.manager = (
            NodeManager(self.ctrls) if engine == "bulk" else None
        )
        self.next_vm = 0

    def provision(self, h):
        name = f"fr-{self.next_vm}"
        self.next_vm += 1
        self.hvs[h].provision(TEMPLATE, name)
        self.ctrls[f"node-{h}"].register_vm(name, TEMPLATE.vfreq_mhz)

    def apply(self, levels, action, target):
        for h, hv in enumerate(self.hvs):
            vms = sorted(hv._vms)
            ctrl = self.ctrls[f"node-{h}"]
            if action == "provision" and len(vms) < MAX_VMS:
                self.provision(h)
            elif action == "destroy" and vms:
                name = vms[target % len(vms)]
                ctrl.unregister_vm(name)
                hv.destroy(name)
            elif action == "hide" and vms:
                ctrl.backend.hidden[f"/{vms[target % len(vms)]}/vcpu0"] = HIDE_TICKS
            elif action == "vfreq" and vms:
                ctrl.set_vfreq(vms[target % len(vms)], 300.0 + 100.0 * target)
            for vm, level in zip(sorted(hv._vms.values(), key=lambda v: v.name),
                                 levels):
                vm.set_uniform_demand(level)

    def tick(self, t):
        for node in self.nodes:
            node.step(1.0)
        if self.manager is not None:
            result = self.manager.tick(t)
            assert not result.errors, result.errors
            return [result[f"node-{h}"] for h in range(self.hosts)]
        return [self.ctrls[f"node-{h}"].tick(t) for h in range(self.hosts)]


def drive(engine, reserve, control, steps):
    cluster = _Cluster(engine, reserve=reserve, control=control)
    for h in range(HOSTS):
        for _ in range(2):
            cluster.provision(h)
    frames = []
    for t, (levels, action, target) in enumerate(steps):
        cluster.apply(levels, action, target)
        frames.append([r.frame for r in cluster.tick(float(t + 1))])
    return frames


steps_st = st.lists(
    st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=MAX_VMS, max_size=MAX_VMS),
        st.sampled_from(["none", "none", "provision", "destroy", "hide", "vfreq"]),
        st.integers(0, 5),
    ),
    min_size=4, max_size=14,
)

#: Hide a seen vCPU for long enough to send it into degraded mode with
#: no row, then let it recover.
DEGRADED_STEPS = [([0.9, 0.4, 0.7], "none", 0)] * 2 + [
    ([0.9, 0.4, 0.7], "hide", 0)
] + [([0.9, 0.4, 0.7], "none", 0)] * 6 + [
    ([0.2, 0.9, 0.5], "provision", 1), ([0.6, 0.6, 0.6], "none", 0)
]


def _check(reserve, control, steps):
    scalar = drive("scalar", reserve, control, steps)
    bulk = drive("bulk", reserve, control, steps)
    for t, (a_host, b_host) in enumerate(zip(scalar, bulk)):
        for h, (a, b) in enumerate(zip(a_host, b_host)):
            assert_frames_identical(a, b, f"tick {t} host {h}")
    return bulk


@settings(max_examples=15, deadline=None)
@given(reserve=st.booleans(), control=st.booleans(), steps=steps_st)
@example(reserve=True, control=True, steps=DEGRADED_STEPS)
@example(reserve=False, control=False, steps=DEGRADED_STEPS)
def test_frames_bit_identical_over_drawn_scenarios(reserve, control, steps):
    _check(reserve, control, steps)


def test_degraded_only_rows_follow_the_sampled_rows():
    frames = _check(False, True, DEGRADED_STEPS)
    flat = [f for host in frames for f in host]
    assert any(
        not np.isnan(f.fallback[:f.sampled]).all() for f in flat
    ), "the scenario must hold a degraded vCPU that still has a row"
    tails = [f for f in flat if len(f) > f.sampled]
    assert tails, "the scenario must produce degraded-only rows"
    for f in tails:
        rows = f.rows()
        assert all(r["consumed"] is not None for r in rows[:f.sampled])
        for r in rows[f.sampled:]:
            assert r["consumed"] is None and r["estimate"] is None
            assert r["fallback"] == r["allocation"]
            assert r["guarantee"] is not None


def test_config_a_frame_is_empty_but_samples_are_kept():
    frames = _check(False, False, DEGRADED_STEPS[:3])
    assert all(len(f) == 0 for host in frames for f in host)


# -- no frame aliases a later tick's buffers -----------------------------------


def _observed_run(engine, *, read_each_tick):
    """Two hosts with hubs; churn and renegotiation every few ticks.

    Returns per tick and host ``(ledger entry, samples, decisions)``,
    read right after the tick or only once the run is over.
    """
    cluster = _Cluster(engine, reserve=False, control=True)
    hubs = {}
    for h in range(HOSTS):
        for _ in range(2):
            cluster.provision(h)
        ctrl = cluster.ctrls[f"node-{h}"]
        hubs[h] = Observability.attach(ctrl, ObsConfig(tracing=False))
        BillingEngine.attach(ctrl)
        SLOPlane.attach(ctrl, SLOConfig(wallclock=False))
    actions = ["none", "none", "provision", "vfreq", "none", "destroy",
               "hide", "none", "none", "none", "none", "none"]
    seen, reports = [], []
    for t, action in enumerate(actions):
        cluster.apply([0.3 + 0.05 * t, 0.9, 0.6 - 0.04 * t], action, t)
        tick_reports = cluster.tick(float(t + 1))
        reports.append(tick_reports)
        if read_each_tick:
            seen.append([
                copy.deepcopy((hubs[h].ledger.ticks[-1], r.samples, r.decisions))
                for h, r in enumerate(tick_reports)
            ])
    if not read_each_tick:
        seen = [
            [(hubs[h].ledger.ticks[t], r.samples, r.decisions)
             for h, r in enumerate(tick_reports)]
            for t, tick_reports in enumerate(reports)
        ]
    return seen


def test_late_reads_see_the_tick_as_it_was():
    for engine in ENGINES:
        assert _observed_run(engine, read_each_tick=False) == \
            _observed_run(engine, read_each_tick=True), engine


@pytest.mark.parametrize("hosts", [1, HOSTS])
def test_frame_columns_unchanged_by_the_next_three_ticks(hosts):
    cluster = _Cluster("bulk", reserve=True, control=True, hosts=hosts)
    for h in range(hosts):
        cluster.provision(h)
    for t in range(4):
        cluster.apply([0.5, 0.5, 0.5], "none", 0)
        cluster.tick(float(t + 1))
    frames = [r.frame for r in cluster.tick(5.0)]
    before = [
        {name: copy.deepcopy(getattr(f, name)) for name in COLUMNS}
        for f in frames
    ]
    for t, action in enumerate(["none", "provision", "vfreq"]):
        cluster.apply([0.95, 0.1, 0.7], action, t)
        cluster.tick(float(6 + t))
    for f, cols in zip(frames, before):
        for name in COLUMNS:
            value = getattr(f, name)
            if isinstance(value, np.ndarray):
                assert value.tobytes() == cols[name].tobytes(), name
            else:
                assert value == cols[name], name


# -- nothing builds per-vCPU objects unless asked ------------------------------


def test_observed_bulk_tick_builds_no_sample_or_decision_objects(monkeypatch):
    cluster = _Cluster("bulk", reserve=False, control=True)
    for h in range(HOSTS):
        for _ in range(2):
            cluster.provision(h)
        ctrl = cluster.ctrls[f"node-{h}"]
        assert ctrl.keep_reports
        Observability.attach(ctrl)  # tracing, ledger and flight recorder
        BillingEngine.attach(ctrl)
        SLOPlane.attach(ctrl, SLOConfig(wallclock=False))
    # Warm up: discovery reads the per-file scan, which builds samples.
    for t in range(3):
        cluster.apply([0.7, 0.7, 0.7], "none", 0)
        cluster.tick(float(t + 1))
    built = {VCpuSample: 0, EstimatorDecision: 0}
    for cls in built:
        init = cls.__init__

        def counting(self, *args, _init=init, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    reports = []
    for t in range(3, 6):
        cluster.apply([0.7, 0.2, 0.9], "none", 0)
        reports.extend(cluster.tick(float(t + 1)))
    assert built == {VCpuSample: 0, EstimatorDecision: 0}
    assert all(len(r.frame) == 4 for r in reports)
    assert len(reports[-1].samples) == 4
    assert built == {VCpuSample: 4, EstimatorDecision: 0}
    assert len(reports[-1].decisions) == 4
    assert built == {VCpuSample: 4, EstimatorDecision: 4}
