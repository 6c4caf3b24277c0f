"""Black-box dumps: triggers, dedup, ring bounds, fault-plan shifting."""

import json
import os

import pytest

from repro.checking.invariants import InvariantViolationError
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.faults import FaultInjector, FaultPlan
from repro.faults.injector import ControllerCrash
from repro.faults.plan import FaultSpec
from repro.obs import FlightRecorder, Observability, ObsConfig
from repro.obs.flight_recorder import _shift_fault_plan
from repro.virt.template import VMTemplate
from tests.conftest import make_host
from tests.obs.conftest import drive_host


def make_faulty_host(plan, *, out_dir, check_invariants=False):
    """An injector-backed host with a hub attached (mirrors _Replica)."""
    node, hv, _ = make_host()
    backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    config = ControllerConfig.paper_evaluation(
        engine="bulk",
        check_invariants=check_invariants,
        resilience=ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3),
        observability=ObsConfig(out_dir=out_dir),
    )
    ctrl = VirtualFrequencyController(
        backend,
        num_cpus=node.spec.logical_cpus,
        fmax_mhz=node.spec.fmax_mhz,
        config=config,
    )
    vms = []
    for k in range(2):
        vm = hv.provision(VMTemplate(f"t{k}", vcpus=2, vfreq_mhz=600.0), f"vm-{k}")
        ctrl.register_vm(vm.name, 600.0)
        vms.append(vm)
    return node, ctrl, vms


class TestDumpTriggers:
    def test_invariant_violation_dumps_under_active_fault_plan(self, tmp_path):
        out = str(tmp_path / "obs")
        # An armed (but not yet firing) plan: the dump must carry it.
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(kind="freeze", target="*cpu.stat", start_tick=500),
        ])
        node, ctrl, vms = make_faulty_host(
            plan, out_dir=out, check_invariants=True
        )
        for t in range(4):
            for vm in vms:
                vm.set_uniform_demand(0.8)
            node.step(1.0)
            ctrl.tick(float(t))
        ctrl.ledger.set_balance("vm-0", 1e12)  # tamper: conjure credits
        node.step(1.0)
        with pytest.raises(InvariantViolationError):
            ctrl.tick(4.0)
        (dump_file,) = [f for f in os.listdir(out) if f.startswith("flight_")]
        assert dump_file == "flight_invariant_violation_tick4.json"
        dump = FlightRecorder.load(os.path.join(out, dump_file))
        assert dump["reason"] == "invariant_violation"
        assert any("ledger" in v for v in dump["violations"])
        assert dump["meta"]["fault_plan"]["seed"] == 3
        assert len(dump["frames"]) == 5
        ctrl.obs.close()

    def test_injected_stage_crash_dumps(self, tmp_path):
        out = str(tmp_path / "obs")
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(kind="crash", target="stage:monitor",
                      start_tick=3, end_tick=4),
        ])
        node, ctrl, vms = make_faulty_host(plan, out_dir=out)
        with pytest.raises(ControllerCrash):
            for t in range(6):
                for vm in vms:
                    vm.set_uniform_demand(0.5)
                node.step(1.0)
                ctrl.tick(float(t))
        (dump_file,) = [f for f in os.listdir(out) if f.startswith("flight_")]
        dump = FlightRecorder.load(os.path.join(out, dump_file))
        assert dump["reason"] == "tick_error_ControllerCrash"
        assert "stage:monitor" in dump["violations"][0]
        assert len(dump["frames"]) == 3  # ticks 0..2 completed
        ctrl.obs.close()

    def test_node_error_trigger_is_idempotent_with_tick_error(self):
        _, ctrl, obs = drive_host(3)
        first = obs.on_tick_error(ctrl, RuntimeError("boom"), 2)
        again = obs.on_node_error("node-0", RuntimeError("boom"))
        assert first is not None
        assert again == first
        assert obs.recorder.dumps_written == 1
        os.unlink(first)

    def test_crash_before_first_tick_dumps_nothing(self):
        _, ctrl, obs = drive_host(0)
        assert obs.on_tick_error(ctrl, RuntimeError("early"), 0) is None


class TestRecorderMechanics:
    def test_ring_keeps_last_n_frames(self):
        _, _, obs = drive_host(10, obs_config=ObsConfig(flight_recorder_ticks=4))
        ticks = [f["tick"] for f in obs.recorder.frames]
        assert ticks == [6, 7, 8, 9]

    def test_frame_shares_the_ledger_entry(self):
        _, _, obs = drive_host(3)
        for entry, frame in zip(obs.ledger.ticks, obs.recorder.frames):
            assert frame["meta"] is entry["meta"]
            assert frame["decisions"] is entry["decisions"]
            assert set(frame) == {
                "tick", "t", "registered", "samples", "timings",
                "meta", "decisions",
            }
            assert frame["tick"] == entry["meta"]["tick"]

    def test_vcpu_shape_map_keeps_registered_vms_only(self):
        node, hv, ctrl = make_host(config=ControllerConfig.paper_evaluation())
        obs = Observability.attach(
            ctrl, ObsConfig(tracing=False, flight_recorder_ticks=2)
        )
        for k in range(200):
            name = f"vm-{k}"
            vm = hv.provision(VMTemplate("t", vcpus=2, vfreq_mhz=800.0), name)
            vm.set_uniform_demand(0.5)
            ctrl.register_vm(name, 800.0)
            node.step(1.0)
            ctrl.tick(float(k + 1))
            assert obs._vm_vcpus == {name: 2}
            assert obs.recorder.frames[-1]["registered"][name]["vcpus"] == 2
            ctrl.unregister_vm(name)
            hv.destroy(name)
        node.step(1.0)
        ctrl.tick(201.0)
        assert ctrl._vm_vfreq == {}
        assert obs._vm_vcpus == {}

    def test_dump_dedupes_per_newest_tick(self, tmp_path):
        rec = FlightRecorder(max_ticks=4, dump_dir=str(tmp_path))
        rec.record({"tick": 7})
        a = rec.dump("first")
        b = rec.dump("second")
        assert a == b
        assert rec.dumps_written == 1
        rec.record({"tick": 8})
        c = rec.dump("third")
        assert c != a
        assert rec.dumps_written == 2

    def test_load_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            FlightRecorder.load(str(bad))
        stale = tmp_path / "y.json"
        stale.write_text(json.dumps({"kind": "flight_dump", "version": 99}))
        with pytest.raises(ValueError, match="unsupported flight dump version"):
            FlightRecorder.load(str(stale))

    def test_max_ticks_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_ticks=0)


class TestFaultPlanShifting:
    def test_windows_slide_to_the_dump_origin(self):
        plan = {"seed": 5, "specs": [
            {"kind": "crash", "start_tick": 12, "end_tick": 15},
        ]}
        shifted = _shift_fault_plan(plan, 10)
        assert shifted["seed"] == 5
        assert shifted["specs"][0]["start_tick"] == 2
        assert shifted["specs"][0]["end_tick"] == 5

    def test_past_windows_drop_and_straddlers_clamp(self):
        plan = {"seed": 0, "specs": [
            {"kind": "freeze", "start_tick": 0, "end_tick": 8},    # past
            {"kind": "crash", "start_tick": 5, "end_tick": 12},    # straddles
            {"kind": "read_error", "start_tick": 3, "end_tick": None},
        ]}
        shifted = _shift_fault_plan(plan, 10)
        assert [s["kind"] for s in shifted["specs"]] == ["crash", "read_error"]
        assert shifted["specs"][0] == {
            "kind": "crash", "start_tick": 0, "end_tick": 2,
        }
        assert shifted["specs"][1]["start_tick"] == 0
        assert shifted["specs"][1]["end_tick"] is None

    def test_all_past_means_no_plan(self):
        plan = {"seed": 0, "specs": [
            {"kind": "freeze", "start_tick": 0, "end_tick": 2},
        ]}
        assert _shift_fault_plan(plan, 50) is None
