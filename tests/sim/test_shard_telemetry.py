"""Shared-memory shard telemetry: parity, churn, growth, lifecycle.

The sharded manager must report exactly what the in-process
:class:`NodeManager` reports (aggregates, counters, per-node accounts)
while shipping only a segment name across the process boundary — and a
closed :class:`ShardedNodeManager` must be re-``start()``-able from
scratch.
"""

import functools

import pytest

from repro.sim.node_manager import NodeManager, Shard, ShardedNodeManager
from repro.sim.shard_telemetry import (
    H_SEQ,
    NODE_FIELDS,
    ShardTelemetryReader,
    ShardTelemetryWriter,
)
from repro.virt.template import SMALL
from tests.conftest import make_host
from tests.sim.test_sharded_node_manager import (
    _build_group,
    _shard_factory,
    _signature,
)

ALLOC = NODE_FIELDS.index("alloc_cycles")
GUARANTEE = NODE_FIELDS.index("guarantee_mhz")
CAPACITY = NODE_FIELDS.index("capacity_mhz")
NUM_VMS = NODE_FIELDS.index("num_vms")
ERRORED = NODE_FIELDS.index("errored")

_SHARDS = {
    "shard-0": functools.partial(_shard_factory, ("node-a", "node-b"), 7),
    "shard-1": functools.partial(_shard_factory, ("node-c",), 9),
}


class TestSharedTelemetryParity:
    def test_matches_reports_mode(self):
        """Same nodes, sharded vs in-process: identical aggregates and
        accounts."""
        ref_hosts = {
            **_build_group(["node-a", "node-b"], 7),
            **_build_group(["node-c"], 9),
        }
        in_process = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in ref_hosts.items()},
        )
        with ShardedNodeManager(_SHARDS, telemetry="shared") as sharded:
            for k in range(3):
                for node, _, _ in ref_hosts.values():
                    node.step(1.0)
                ref = in_process.tick(float(k + 1))
                got = sharded.tick(float(k + 1))
                # Compact lane: no reports cross the boundary.
                assert dict(got) == {}
                assert not got.errors
            assert sharded.backend_stats() == in_process.backend_stats()
            assert sharded.invariant_totals() == in_process.invariant_totals()
            assert sharded.aggregate_timings().total > 0

            # Per-node Eq. 7 accounts and allocations, via the blocks.
            nodes_seen = {}
            for reader in sharded.readers.values():
                block = reader.node_block()
                assert reader.t == 3.0
                for slot, node_id in enumerate(reader.node_ids):
                    nodes_seen[node_id] = block[slot]
            assert set(nodes_seen) == set(ref_hosts)
            for node_id, row in nodes_seen.items():
                report = ref[node_id]
                ctrl = ref_hosts[node_id][2]
                assert row[ALLOC] == sum(report.allocations.values())
                assert row[GUARANTEE] == sum(ctrl._vm_vfreq.values())
                assert row[CAPACITY] == ctrl.num_cpus * ctrl.fmax_mhz
                assert row[NUM_VMS] == len(ctrl._vm_vfreq)
                assert row[ERRORED] == 0.0
        in_process.close()

    def test_fetch_report_lazy(self):
        """The explain escape hatch pulls one full report on demand."""
        ref_hosts = {
            **_build_group(["node-a", "node-b"], 7),
            **_build_group(["node-c"], 9),
        }
        in_process = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in ref_hosts.items()},
        )
        with ShardedNodeManager(_SHARDS, telemetry="shared") as sharded:
            for node, _, _ in ref_hosts.values():
                node.step(1.0)
            ref = in_process.tick(1.0)
            sharded.tick(1.0)
            assert sharded.last_reports == {}
            report = sharded.fetch_report("node-b")
            assert _signature(report) == _signature(ref["node-b"])
            # Only what was fetched is cached.
            assert set(sharded.last_reports) == {"node-b"}
            with pytest.raises(KeyError):
                sharded.fetch_report("node-zz")
        in_process.close()

    def test_violations_by_node_zero_round_trips(self):
        with ShardedNodeManager(_SHARDS, telemetry="shared") as sharded:
            sharded.tick(1.0)
            # make_host controllers run without inline oracles, so the
            # sentinel keeps them out of the map entirely.
            assert sharded.invariant_violations_by_node() == {}

    def test_invalid_telemetry_mode_rejected(self):
        for telemetry in ("reports", "carrier-pigeon"):
            with pytest.raises(ValueError, match="telemetry"):
                ShardedNodeManager(_SHARDS, telemetry=telemetry)


class TestWriterInProcess:
    """Writer/reader unit behaviour without crossing processes."""

    @staticmethod
    def _manager(n_vms_per_node=1):
        hosts = _build_group(["n0", "n1"], 3)
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        return hosts, manager

    def test_catalog_version_bumps_on_churn(self):
        hosts, manager = self._manager()
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        try:
            manager.tick(1.0)
            reader.update(*writer.publish(manager, 1.0))
            v1 = reader.catalog_version
            assert reader.node_ids == ("n0", "n1")

            # Steady state: no catalog crosses, version unchanged.
            manager.tick(2.0)
            name, version, catalog = writer.publish(manager, 2.0)
            assert catalog is None
            assert version == v1

            # VM churn lands in the node rows, not the catalog.
            _, hv, ctrl = hosts["n0"]
            vm = hv.provision(SMALL, "n0-extra")
            ctrl.register_vm(vm.name, SMALL.vfreq_mhz)
            manager.tick(3.0)
            name, version, catalog = writer.publish(manager, 3.0)
            assert catalog is None
            reader.update(name, version, catalog)
            assert reader.node_block()[0, NUM_VMS] == len(ctrl._vm_vfreq)
            assert reader.node_block()[0, GUARANTEE] == \
                sum(ctrl._vm_vfreq.values())

            # Node churn: a new node -> version bump + new catalog.
            _, _, extra = _build_group(["n2"], 5)["n2"]
            manager.add_node("n2", extra)
            manager.tick(4.0)
            name, version, catalog = writer.publish(manager, 4.0)
            assert version == v1 + 1
            reader.update(name, version, catalog)
            assert reader.node_ids == ("n0", "n1", "n2")

            # And removal churns it again.
            manager.remove_node("n2")
            manager.tick(5.0)
            _, version, catalog = writer.publish(manager, 5.0)
            assert version == v1 + 2
            assert catalog == ("n0", "n1")
        finally:
            reader.close()
            writer.close(unlink=True)

    def test_segment_grows_and_reader_remaps(self):
        hosts, manager = self._manager()
        writer = ShardTelemetryWriter(min_node_cap=2)
        reader = ShardTelemetryReader()
        try:
            manager.tick(1.0)
            first = writer.publish(manager, 1.0)
            reader.update(*first)
            first_name = first[0]

            # Blow past node_cap=2: the writer doubles into a fresh
            # segment; the old name is unlinked; the reader re-maps.
            grown_hosts = _build_group([f"g{j}" for j in range(3)], 11)
            for node_id, (_, _, ctrl) in grown_hosts.items():
                manager.add_node(node_id, ctrl)
            manager.tick(2.0)
            grown = writer.publish(manager, 2.0)
            assert grown[0] != first_name
            reader.update(*grown)
            assert reader.t == 2.0
            assert len(reader.node_ids) == len(reader.node_block()) == 5
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first_name)
        finally:
            reader.close()
            writer.close(unlink=True)

    def test_errored_node_flagged(self):
        class _Boom:
            def register_vm(self, *a):
                pass

            def unregister_vm(self, *a):
                pass

            def tick(self, t):
                raise RuntimeError("boom")

        hosts = _build_group(["n0"], 3)
        manager = NodeManager({"n0": hosts["n0"][2], "n1": _Boom()})
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        try:
            manager.tick(1.0)
            reader.update(*writer.publish(manager, 1.0))
            block = reader.node_block()
            rows = dict(zip(reader.node_ids, block))
            assert rows["n1"][ERRORED] == 1.0
            assert rows["n0"][ERRORED] == 0.0
        finally:
            reader.close()
            writer.close(unlink=True)


class TestSeqlockConsistency:
    """The seqlock read side under a publish in flight, and close() →
    re-attach against a live writer (the SLO plane's scrape path)."""

    @staticmethod
    def _publish_once(hosts, manager, writer, reader, t):
        for node, _, _ in hosts.values():
            node.step(1.0)
        manager.tick(t)
        reader.update(*writer.publish(manager, t))

    def test_torn_read_retries_until_publish_completes(self):
        hosts = _build_group(["n0", "n1"], 3)
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        try:
            self._publish_once(hosts, manager, writer, reader, 1.0)
            assert reader.seq % 2 == 0
            assert reader.snapshot_retries == 0

            # Simulate a writer caught mid-publish: odd counter, rows
            # in flux.  The reader must spin, not return torn rows.
            writer._blocks.header[H_SEQ] = reader.seq + 1
            assert reader.seq % 2 == 1

            completed = []

            def finish_publish(attempt):
                # First retry: complete the in-flight publish so the
                # counter lands even with tick-2 rows fully written.
                if not completed:
                    completed.append(attempt)
                    for node, _, _ in hosts.values():
                        node.step(1.0)
                    manager.tick(2.0)
                    writer.publish(manager, 2.0)

            node_ids, nodes, backend, invariants = reader.stable_snapshot(
                on_retry=finish_publish
            )
            assert completed == [0]
            assert reader.snapshot_retries >= 1
            assert reader.seq % 2 == 0
            # The snapshot is the *completed* tick-2 publish, whole.
            assert node_ids == ("n0", "n1")
            for slot, node_id in enumerate(node_ids):
                ctrl = hosts[node_id][2]
                assert nodes[slot, GUARANTEE] == sum(ctrl._vm_vfreq.values())
                assert nodes[slot, NUM_VMS] == len(ctrl._vm_vfreq)
            assert reader.t == 2.0
            assert backend.sum() > 0
            assert len(invariants) > 0
        finally:
            reader.close()
            writer.close(unlink=True)
            manager.close()

    def test_snapshot_gives_up_after_max_retries(self):
        hosts = _build_group(["n0"], 3)
        manager = NodeManager({"n0": hosts["n0"][2]})
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        try:
            self._publish_once(hosts, manager, writer, reader, 1.0)
            header = writer._blocks.header
            stuck = reader.seq + 1
            header[H_SEQ] = stuck  # odd forever: writer wedged mid-publish
            attempts = []
            with pytest.raises(RuntimeError, match="torn 5 times"):
                reader.stable_snapshot(max_retries=5,
                                       on_retry=attempts.append)
            assert attempts == [0, 1, 2, 3, 4]
            assert reader.snapshot_retries == 5
            header[H_SEQ] = stuck + 1  # unwedge; snapshot works again
            assert reader.stable_snapshot()[0] == ("n0",)
        finally:
            reader.close()
            writer.close(unlink=True)
            manager.close()

    def test_wedged_writer_skips_the_shard_and_counts_its_nodes_failed(self):
        """A writer held at an odd sequence number through every retry
        (it died mid-publish) costs the scrape that shard, not the
        scrape: no series of it are appended, its nodes count as missed
        deadlines, and the torn error is returned, not raised."""
        from repro.obs.tsdb import SeriesStore
        from repro.sim.shard_telemetry import TornSnapshotError

        hosts = _build_group(["n0", "n1"], 3)
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        store = SeriesStore(capacity=16)
        try:
            self._publish_once(hosts, manager, writer, reader, 1.0)
            assert store.ingest_shard_reader(
                reader, shard="s0", deadline_s=10.0
            ) is None
            header = writer._blocks.header
            attempts = []

            def hold_odd(attempt):
                # The writer keeps "publishing": odd, and moving.
                attempts.append(attempt)
                header[H_SEQ] = reader.seq + 2

            header[H_SEQ] = reader.seq + 1
            reader.stable_snapshot = functools.partial(
                reader.stable_snapshot, on_retry=hold_odd
            )
            stages_before = sum(s.total for s in store.select("stage_seconds"))
            torn = store.ingest_shard_reader(
                reader, shard="s0", deadline_s=10.0
            )
            assert isinstance(torn, TornSnapshotError)
            assert attempts == list(range(64))
            assert reader.seq % 2 == 1
            assert store.get("tick_deadline_bad_total").last == 2.0
            assert store.get("tick_deadline_checks_total").last == 4.0
            assert sum(
                s.total for s in store.select("stage_seconds")
            ) == stages_before
        finally:
            reader.close()
            writer.close(unlink=True)
            manager.close()

    def test_close_then_reattach_against_live_writer(self):
        hosts = _build_group(["n0", "n1"], 3)
        manager = NodeManager(
            {nid: ctrl for nid, (_, _, ctrl) in hosts.items()}
        )
        writer = ShardTelemetryWriter()
        reader = ShardTelemetryReader()
        try:
            self._publish_once(hosts, manager, writer, reader, 1.0)
            assert reader.attached
            catalog_before = reader.node_ids

            reader.close()
            assert not reader.attached
            # The catalog survives detachment — only the mapping drops.
            assert reader.node_ids == catalog_before

            # Writer keeps publishing while we're detached (steady
            # state: same segment, no catalog payload).
            for node, _, _ in hosts.values():
                node.step(1.0)
            manager.tick(2.0)
            name, version, catalog = writer.publish(manager, 2.0)
            assert catalog is None

            # Re-attach with the steady-state payload alone: the reader
            # re-maps the segment and serves tick 2 with the retained
            # catalog.
            reader.update(name, version, catalog)
            assert reader.attached
            assert reader.t == 2.0
            node_ids, nodes, _, _ = reader.stable_snapshot()
            assert node_ids == ("n0", "n1")
            assert nodes[0, GUARANTEE] == \
                sum(hosts["n0"][2]._vm_vfreq.values())
            # And close() is idempotent on an already-closed reader.
            reader.close()
            reader.close()
            assert not reader.attached
        finally:
            reader.close()
            writer.close(unlink=True)
            manager.close()


class TestCloseStartRoundTrip:
    def test_close_then_start_again(self):
        """A closed manager is indistinguishable from a fresh one."""
        manager = ShardedNodeManager(_SHARDS)
        manager.start()
        manager.tick(1.0)
        assert manager.ticks == 1
        assert manager.num_nodes == 3
        first = manager.fetch_report("node-a")
        manager.close()
        # Everything per-run is gone — the stale-state bug this guards
        # against left nodes_by_shard/last_reports/error_counts behind.
        assert manager.nodes_by_shard == {}
        assert manager.last_reports == {}
        assert manager.last_errors == {}
        assert manager.error_counts == {}
        assert manager.readers == {}
        assert manager.ticks == 0
        assert manager.backend_stats().fs_reads == 0

        # And it comes back: start() rebuilds shards from factories.
        manager.start()
        try:
            assert manager.num_nodes == 3
            result = manager.tick(1.0)
            assert not result.errors
            assert manager.ticks == 1
            assert manager.readers
            # Rebuilt from the factory: the same first tick again.
            again = manager.fetch_report("node-a")
            assert _signature(again) == _signature(first)
        finally:
            manager.close()


class TestResourceTrackerHygiene:
    def test_no_tracker_noise_at_exit(self):
        """A tick + close cycle leaves the resource tracker silent.

        The tracker's complaints (phantom "leaked shared_memory
        objects" warnings, double-unregister KeyErrors) only surface
        on its stderr at interpreter exit, so run the cycle in a
        subprocess and require a clean stderr.  Guards the
        ensure_running()-before-fork ordering in
        ShardedNodeManager.start() and the no-parent-unregister rule
        in ShardTelemetryReader.
        """
        import subprocess
        import sys

        code = (
            "import functools, sys\n"
            "sys.path[:0] = [%r, %r]\n"
            "from tests.sim.test_sharded_node_manager import _shard_factory\n"
            "from repro.sim import ShardedNodeManager\n"
            "shards = {'s0': functools.partial(_shard_factory, ('node-a',), 7)}\n"
            "mgr = ShardedNodeManager(shards, telemetry='shared')\n"
            "mgr.tick(1.0)\n"
            "mgr.close()\n"
            "mgr.start()\n"
            "assert not mgr.tick(2.0).errors\n"
            "mgr.close()\n"
        )
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", code % (str(repo / "src"), str(repo))],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert proc.stderr.strip() == "", proc.stderr
