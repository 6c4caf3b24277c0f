"""Tests of the seeded scenario fuzzer and the trace format."""

import pytest

from repro.checking import Trace, fuzz_one, generate_trace, replay
from repro.checking.fuzz import HOST_CAPACITY_MHZ
from repro.checking.trace import _Replica


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(7, ticks=60)
        b = generate_trace(7, ticks=60)
        assert a.to_jsonl() == b.to_jsonl()

    def test_different_seeds_differ(self):
        assert generate_trace(1, ticks=60).events != generate_trace(2, ticks=60).events

    def test_replay_is_reproducible(self):
        trace = generate_trace(4, ticks=30)
        first = replay(trace, collect_reports=True)
        second = replay(trace, collect_reports=True)
        for engine in first.engines:
            wallets_a = [r.wallets for r in first.reports[engine]]
            wallets_b = [r.wallets for r in second.reports[engine]]
            assert wallets_a == wallets_b


class TestTraceFormat:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = generate_trace(5, ticks=20)
        path = tmp_path / "t.jsonl"
        trace.save(str(path))
        loaded = Trace.load(str(path))
        assert loaded.header == trace.header
        assert loaded.events == trace.events

    def test_header_required(self):
        with pytest.raises(ValueError):
            Trace.from_jsonl('{"kind": "tick"}\n')

    def test_version_checked(self):
        with pytest.raises(ValueError):
            Trace.from_jsonl('{"kind": "header", "version": 99}\n')

    def test_tick_count(self):
        trace = generate_trace(9, ticks=33)
        assert trace.ticks == 33


class TestGeneratedScenarios:
    def test_draws_both_cgroup_versions(self):
        """Seeds spread over v1 and v2 hosts, and a v1 seed replays
        clean on both engines through the unarmed column route."""
        versions = {s: generate_trace(s, ticks=1).header["cgroup_version"]
                    for s in range(10)}
        assert set(versions.values()) == {1, 2}
        seed = next(s for s, v in versions.items() if v == 1)
        trace = generate_trace(seed, ticks=40, faults=False)
        assert trace.header["cgroup_version"] == 1
        result = replay(trace)
        assert result.ok, [str(v) for v in result.violations]

    def test_v1_fault_targets_fire(self):
        """A v1 seed's fault plan names the v1 files, and every one of
        its specs fires (seed 20: a write, a freeze and a read fault)."""
        trace = generate_trace(20)
        assert trace.header["cgroup_version"] == 1
        specs = trace.header["fault_plan"]["specs"]
        assert {s["target"] for s in specs} == {
            "*/cpuacct.usage", "*/cpu.cfs_quota_us"
        }
        replica = _Replica(trace, "bulk")
        now = 0.0
        for event in trace.events:
            if event["kind"] == "tick":
                now += 1.0
                replica.tick(now)
            else:
                replica.apply(event)
        injected = replica.controller.backend.injected
        assert set(injected) == {s["kind"] for s in specs}

    def test_respects_eq7_budget(self):
        """The committed budget never exceeds host capacity at any
        point of the event stream (the Eq. 2 precondition)."""
        for seed in range(10):
            trace = generate_trace(seed, ticks=60)
            committed = {}
            shapes = {}
            for e in trace.events:
                if e["kind"] == "provision":
                    shapes[e["vm"]] = e["vcpus"]
                    committed[e["vm"]] = e["vcpus"] * e["vfreq"]
                elif e["kind"] == "destroy":
                    committed.pop(e["vm"], None)
                    shapes.pop(e["vm"], None)
                elif e["kind"] == "set_vfreq":
                    committed[e["vm"]] = shapes[e["vm"]] * e["vfreq"]
                assert sum(committed.values()) <= HOST_CAPACITY_MHZ + 1e-9

    def test_fault_specs_are_deterministic(self):
        """Only probability-1.0, windowed, jitter-free specs: anything
        else consumes plan RNG per opportunity and would let the two
        engine replicas' fault streams drift apart."""
        seen_plan = False
        for seed in range(20):
            plan = generate_trace(seed, ticks=60).header["fault_plan"]
            if plan is None:
                continue
            seen_plan = True
            for spec in plan["specs"]:
                assert spec["probability"] == 1.0
                assert spec["end_tick"] is not None
                assert spec["jitter_frac"] == 0.0
                assert spec["kind"] not in ("clock_jitter", "crash")
        assert seen_plan

    def test_full_feature_seed_passes(self):
        """Seed 0 exercises faults, restart, destroy and renegotiation
        in one scenario; the whole catalogue must stay silent."""
        trace = generate_trace(0, ticks=80)
        kinds = {e["kind"] for e in trace.events}
        assert {"provision", "destroy", "set_vfreq", "restart", "tick"} <= kinds
        assert trace.header["fault_plan"] is not None
        result = replay(trace)
        assert result.ok, [str(v) for v in result.violations]

    def test_fuzz_one_clean(self):
        result = fuzz_one(1, ticks=40)
        assert result.ok
        assert result.engine_ticks == 80  # 40 ticks x 2 engines

    def test_replay_compares_write_counters(self):
        """A replica whose backend issued one extra write is flagged as
        an engine-identity violation even when the reports agree."""

        def skew(controller, engine):
            if engine == "bulk":
                controller.backend.stats.fs_writes += 1

        result = replay(generate_trace(4, ticks=5), attach=skew)
        assert [v.invariant for v in result.violations] == ["engine_identity"]
        assert "fs_writes" in result.violations[0].message
