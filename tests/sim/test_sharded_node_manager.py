"""Tests for the multi-process (sharded) control plane.

Shard factories must be module-level callables (they cross the pickle
boundary into the worker); everything they build — nodes, VMs,
controllers, the pre-tick workload hook — lives only in the worker.
"""

import functools

import pytest

from repro.core.backend import BackendStats
from repro.sim.node_manager import (
    NodeManager,
    RemoteNodeError,
    Shard,
    ShardedNodeManager,
)
from repro.virt.template import SMALL
from tests.conftest import make_host


def _signature(report):
    """Everything one iteration decided, minus wall-clock timings."""
    return (
        report.t,
        tuple(report.samples),
        dict(report.decisions),
        dict(report.allocations),
        report.market_initial,
        report.auction,
        report.freely_distributed,
        dict(report.wallets),
        dict(report.free_shares),
        dict(report.degraded),
    )


def _build_group(node_ids, seed0):
    """Deterministic node group: node k hosts k%2+1 VMs, seeded."""
    hosts = {}
    for k, node_id in enumerate(node_ids):
        node, hv, ctrl = make_host(seed=seed0 + k)
        for j in range(k % 2 + 1):
            vm = hv.provision(SMALL, f"{node_id}-vm-{j}")
            ctrl.register_vm(vm.name, SMALL.vfreq_mhz)
            vm.set_uniform_demand(0.6 + 0.2 * j)
        hosts[node_id] = (node, hv, ctrl)
    return hosts


def _shard_factory(node_ids, seed0):
    """(runs in-worker) Build a group and advance it before each tick."""
    hosts = _build_group(node_ids, seed0)

    def pre_tick(t):
        for node, _, _ in hosts.values():
            node.step(1.0)

    return Shard(
        {node_id: ctrl for node_id, (_, _, ctrl) in hosts.items()}, pre_tick
    )


class _CrashingController:
    """Minimal Controller whose every tick raises."""

    def register_vm(self, vm_name, vfreq_mhz):
        pass

    def unregister_vm(self, vm_name):
        pass

    def tick(self, t):
        raise RuntimeError(f"injected node failure at t={t}")


def _mixed_shard_factory(seed0):
    """(runs in-worker) One healthy node plus one that always crashes."""
    hosts = _build_group(["ok-node"], seed0)

    def pre_tick(t):
        for node, _, _ in hosts.values():
            node.step(1.0)

    controllers = {"ok-node": hosts["ok-node"][2], "bad-node": _CrashingController()}
    return Shard(controllers, pre_tick)


_SHARDS = {
    "shard-0": functools.partial(_shard_factory, ("node-a", "node-b"), 7),
    "shard-1": functools.partial(_shard_factory, ("node-c",), 9),
}


class TestShardedParity:
    def test_sharded_matches_threaded(self):
        """The same three nodes, split over two worker processes,
        report exactly what the in-process thread pool reports — per
        node and per tick, pulled through ``fetch_report``."""
        ref_hosts = {
            **_build_group(["node-a", "node-b"], 7),
            **_build_group(["node-c"], 9),
        }
        threaded = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in ref_hosts.items()},
            parallel=True,
        )
        with ShardedNodeManager(_SHARDS) as sharded:
            assert sharded.num_nodes == 3
            assert sharded.num_shards == 2
            assert sharded.shard_of("node-c") == "shard-1"
            for k in range(4):
                for node, _, _ in ref_hosts.values():
                    node.step(1.0)
                ref = threaded.tick(float(k + 1))
                got = sharded.tick(float(k + 1))
                assert not got.errors
                assert dict(got) == {}  # reports stay in the workers
                for node_id in ref:
                    report = sharded.fetch_report(node_id)
                    assert _signature(report) == _signature(ref[node_id])
            # Aggregate telemetry crosses the process boundary intact.
            assert sharded.backend_stats() == threaded.backend_stats()
            agg = sharded.aggregate_timings()
            assert agg.total > 0
        threaded.close()

    def test_batched_shards_match_one_by_one_through_vm_churn(self):
        """Each worker's serial manager runs its nodes as one batched
        group; every node still reports exactly what the same
        controller reports ticked alone, through ``fetch_report``,
        while VMs leave and re-register mid-run."""
        ref_hosts = {
            **_build_group(["node-a", "node-b"], 7),
            **_build_group(["node-c"], 9),
        }
        churn = {
            2: ("unregister", "node-b", "node-b-vm-1", None),
            4: ("register", "node-b", "node-b-vm-1", 900.0),
            5: ("unregister", "node-a", "node-a-vm-0", None),
        }
        with ShardedNodeManager(_SHARDS) as sharded:
            for k in range(7):
                event = churn.get(k)
                if event is not None:
                    op, node_id, vm_name, vfreq = event
                    ctrl = ref_hosts[node_id][2]
                    if op == "register":
                        ctrl.register_vm(vm_name, vfreq)
                        sharded.register_vm(node_id, vm_name, vfreq)
                    else:
                        ctrl.unregister_vm(vm_name)
                        sharded.unregister_vm(node_id, vm_name)
                t = float(k + 1)
                for node, _, _ in ref_hosts.values():
                    node.step(1.0)
                ref = {
                    node_id: ctrl.tick(t)
                    for node_id, (_, _, ctrl) in ref_hosts.items()
                }
                got = sharded.tick(t)
                assert not got.errors
                for node_id, report in ref.items():
                    fetched = sharded.fetch_report(node_id)
                    assert _signature(fetched) == _signature(report)
            stats = BackendStats()
            for _, _, ctrl in ref_hosts.values():
                stats = stats + ctrl.backend.stats
            assert sharded.backend_stats() == stats

    def test_unknown_node_rejected(self):
        with ShardedNodeManager(_SHARDS) as sharded:
            with pytest.raises(KeyError):
                sharded.shard_of("node-z")

    def test_empty_shard_map_rejected(self):
        with pytest.raises(ValueError):
            ShardedNodeManager({})


class TestShardedFaultIsolation:
    def test_node_failure_contained_in_shard(self):
        """A crashing node surfaces as RemoteNodeError while its shard
        sibling and the other shard keep reporting."""
        shards = {
            "shard-0": functools.partial(_mixed_shard_factory, 21),
            "shard-1": functools.partial(_shard_factory, ("node-c",), 9),
        }
        with ShardedNodeManager(shards) as sharded:
            result = sharded.tick(1.0)
            assert set(result.errors) == {"bad-node"}
            assert sharded.fetch_report("ok-node").t == 1.0
            assert sharded.fetch_report("node-c").t == 1.0
            assert sharded.fetch_report("bad-node") is None
            err = result.errors["bad-node"]
            assert isinstance(err, RemoteNodeError)
            assert err.exc_type == "RuntimeError"
            assert "injected node failure" in str(err)
            assert sharded.error_counts["bad-node"] == 1
            result = sharded.tick(2.0)
            assert sharded.error_counts["bad-node"] == 2

    def test_torn_shard_is_skipped_by_the_cluster_scrape(self):
        """A shard whose telemetry segment stays mid-publish is left out
        of that scrape and its nodes are marked failed, exactly like a
        dead shard process; the other shard is ingested, and the next
        publish heals the segment."""
        from repro.obs.slo import SLOConfig, SLOPlane
        from repro.sim.shard_telemetry import H_SEQ, TornSnapshotError

        plane = SLOPlane(SLOConfig(period_s=1.0))
        with ShardedNodeManager(_SHARDS) as sharded:
            sharded.tick(1.0)
            plane.observe_cluster(sharded, 1, t=1.0)
            reader = sharded.readers["shard-0"]
            header = reader._blocks.header
            header[H_SEQ] = reader.seq + 1  # writer died mid-publish
            plane.observe_cluster(sharded, 2, t=2.0)
            assert set(sharded.last_errors) == {"node-a", "node-b"}
            assert all(
                isinstance(exc, TornSnapshotError)
                for exc in sharded.last_errors.values()
            )
            assert sharded.error_counts == {"node-a": 1, "node-b": 1}
            shards = {
                dict(s.labels)["shard"]
                for s in plane.store.select("stage_seconds")
                if s.total == 2
            }
            assert shards == {"shard-1"}
            result = sharded.tick(3.0)
            assert not result.errors and not sharded.last_errors
            assert plane.store.ingest_shard_reader(reader) is None
        plane.close()

    def test_restart_shard_rebuilds_worker(self):
        with ShardedNodeManager(_SHARDS) as sharded:
            first = sharded.tick(1.0)
            assert not first.errors
            sharded.restart_shard("shard-1")
            result = sharded.tick(2.0)
            assert not result.errors
            # The rebuilt shard starts from its factory state again:
            # tick 2 on a fresh controller is its warmup iteration.
            assert sharded.fetch_report("node-c").t == 2.0


class TestShardedStats:
    def test_stats_accumulate(self):
        with ShardedNodeManager(
            {"s0": functools.partial(_shard_factory, ("node-a",), 7)}
        ) as sharded:
            sharded.tick(1.0)
            one = sharded.backend_stats()
            sharded.tick(2.0)
            two = sharded.backend_stats()
            assert isinstance(one, BackendStats)
            assert two.fs_reads > one.fs_reads
            checks, violations = sharded.invariant_totals()
            assert violations == 0
