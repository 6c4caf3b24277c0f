"""Tests for the paper scenario builders (shapes only; the real runs are
in tests/integration and the benches)."""

import numpy as np
import pytest

from repro.cgroups.fs import CgroupVersion
from repro.sim.scenario import (
    Scenario,
    VMGroup,
    eval1_chetemi,
    eval1_chiclet,
    eval2_chetemi,
    mean_scores_by_iteration,
)
from repro.virt.template import LARGE, MEDIUM, SMALL
from repro.workloads.base import WorkloadScore
from repro.workloads.compress7zip import Compress7Zip


class TestBuilders:
    def test_eval1_chetemi_matches_table2(self):
        sc = eval1_chetemi()
        assert sc.node_spec.name == "chetemi"
        groups = {g.label: g for g in sc.groups}
        assert groups["small"].count == 20
        assert groups["small"].template is SMALL
        assert groups["large"].count == 10
        assert groups["large"].template is LARGE
        assert groups["large"].start_time == 200.0

    def test_eval1_chiclet_matches_table3(self):
        sc = eval1_chiclet()
        groups = {g.label: g.count for g in sc.groups}
        assert groups == {"small": 32, "large": 16}

    def test_eval2_matches_table5(self):
        sc = eval2_chetemi()
        groups = {g.label: g for g in sc.groups}
        assert groups["small"].count == 14
        assert groups["medium"].count == 8
        assert groups["medium"].template is MEDIUM
        assert groups["medium"].start_time == 100.0
        assert groups["large"].count == 6
        assert groups["large"].start_time == 200.0

    def test_workloads_fit_admission(self):
        """Every paper scenario satisfies Eq. 7 on its node — provisioning
        must not raise."""
        for builder in (eval1_chetemi, eval1_chiclet, eval2_chetemi):
            sim = builder(duration=1.0).build(controlled=True)
            committed = sim.hypervisor.committed_mhz()
            assert committed <= sim.node.spec.capacity_mhz

    def test_time_scale_compresses_everything(self):
        sc = eval1_chetemi(time_scale=0.1)
        groups = {g.label: g for g in sc.groups}
        assert groups["large"].start_time == pytest.approx(20.0)
        assert sc.duration == pytest.approx(90.0)
        w = groups["small"].workload_factory(SMALL, 0.0)
        from repro.sim.scenario import COMPRESS_WORK_MHZ_S

        assert w.work_per_iteration == pytest.approx(COMPRESS_WORK_MHZ_S * 0.1)
        # dips are benchmark-internal and must NOT compress with the timeline
        assert w.dip_period == pytest.approx(25.0)

    def test_invalid_time_scale(self):
        with pytest.raises(ValueError):
            eval1_chetemi(time_scale=0.0)

    def test_controller_registration(self):
        sim = eval1_chetemi(duration=1.0).build(controlled=True)
        assert sim.controller.guaranteed_cycles_of("small-0") == pytest.approx(
            1e6 * 500 / 2400
        )
        assert sim.controller.guaranteed_cycles_of("large-0") == pytest.approx(
            1e6 * 1800 / 2400
        )

    def test_cgroup_version_flows_through(self):
        sim = eval1_chetemi(duration=1.0, cgroup_version=CgroupVersion.V1).build(
            controlled=True
        )
        assert sim.node.fs.version is CgroupVersion.V1

    def test_group_validation(self):
        with pytest.raises(ValueError):
            VMGroup(SMALL, 0, None)
        with pytest.raises(ValueError):
            VMGroup(SMALL, 1, None, start_time=-1.0)


class TestScoreAggregation:
    def _vm_with_scores(self, name, scores):
        from repro.virt.vm import VMInstance

        vm = VMInstance(name=name, template=SMALL, cgroup_path=f"/m/{name}")
        w = Compress7Zip(2, iterations=10, work_per_iteration_mhz_s=1.0)
        w.scores = [
            WorkloadScore(iteration=i, started_at=0.0, finished_at=1.0, work_mhz_s=s)
            for i, s in enumerate(scores)
        ]
        vm.workload = w
        return vm

    def test_mean_across_instances(self):
        vms = [
            self._vm_with_scores("a", [100.0, 200.0]),
            self._vm_with_scores("b", [300.0, 400.0]),
        ]
        out = mean_scores_by_iteration(vms)
        assert out.tolist() == [200.0, 300.0]

    def test_ragged_instances(self):
        vms = [
            self._vm_with_scores("a", [100.0, 200.0]),
            self._vm_with_scores("b", [300.0]),
        ]
        out = mean_scores_by_iteration(vms)
        assert out.tolist() == [200.0, 200.0]

    def test_no_workloads(self):
        assert mean_scores_by_iteration([]).size == 0


class TestShortRun:
    def test_run_returns_result_with_both_configs(self):
        sc = eval1_chetemi(duration=8.0, dt=0.5)
        for controlled, label in ((False, "A"), (True, "B")):
            res = sc.run(controlled=controlled)
            assert res.configuration == label
            assert set(res.vm_names_by_group) == {"small", "large"}
            series = res.group_freq_series("small")
            assert len(series) > 0


class TestFaultPlanWiring:
    def test_fault_plan_path_wraps_backend_in_injector(self, tmp_path):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        plan_file = str(tmp_path / "plan.json")
        FaultPlan(
            [FaultSpec("clock_jitter", "tick", jitter_frac=0.05)], seed=3
        ).save(plan_file)
        sc = eval1_chetemi(duration=4.0, dt=0.5)
        sc.controller_config = sc.controller_config.with_overrides(
            fault_plan_path=plan_file
        )
        sim = sc.build(controlled=True)
        assert isinstance(sim.controller.backend, FaultInjector)
        sim.run(3.0)
        assert sim.controller.backend.injected.get("clock_jitter", 0) > 0

    def test_cluster_simulation_applies_fault_plan(self, tmp_path):
        from repro.core.config import ControllerConfig
        from repro.faults import FaultInjector, FaultPlan
        from repro.hw.cluster import Cluster
        from repro.hw.nodespecs import CHETEMI
        from repro.sim.cluster_engine import ClusterSimulation

        plan_file = str(tmp_path / "plan.json")
        FaultPlan.standard_mix(seed=4).save(plan_file)
        sim = ClusterSimulation(
            Cluster.from_counts({CHETEMI: 2}),
            controller_config=ControllerConfig.paper_evaluation(
                fault_plan_path=plan_file
            ),
        )
        backends = [rt.controller.backend for rt in sim.runtimes.values()]
        assert all(isinstance(b, FaultInjector) for b in backends)
        # One injector per node, each replaying the plan from its seed.
        assert backends[0].plan is not backends[1].plan

    def test_passed_in_injector_is_not_wrapped_again(self, tmp_path):
        from repro.core.controller import VirtualFrequencyController
        from repro.faults import FaultInjector, FaultPlan

        plan_file = str(tmp_path / "plan.json")
        FaultPlan.standard_mix().save(plan_file)
        sc = eval1_chetemi(duration=4.0, dt=0.5)
        sc.controller_config = sc.controller_config.with_overrides(
            fault_plan_path=plan_file
        )
        first = sc.build(controlled=True).controller
        # A restart rebuilds the controller over the surviving backend.
        restarted = VirtualFrequencyController(
            first.backend,
            num_cpus=first.num_cpus,
            fmax_mhz=first.fmax_mhz,
            config=first.config,
        )
        assert isinstance(first.backend, FaultInjector)
        assert restarted.backend is first.backend

    def test_without_fault_plan_backend_is_bare(self):
        from repro.core.backend import HostBackend
        from repro.faults import FaultInjector

        sim = eval1_chetemi(duration=4.0, dt=0.5).build(controlled=True)
        assert isinstance(sim.controller.backend, HostBackend)
        assert not isinstance(sim.controller.backend, FaultInjector)
