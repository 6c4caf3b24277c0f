"""ChurnChaosCluster: determinism, admission, and the headline claim."""

import pytest

from repro.rebalance.chaos import ChaosConfig, ChurnChaosCluster
from repro.rebalance.loop import RebalanceLoop
from repro.rebalance.planner import MigrationPlanner, PlannerConfig
from repro.sim.metrics import ClusterRebalanceMetrics
from repro.sim.scenario import (
    ClusterScenario,
    chaos_churn,
    chaos_churn_small,
    chaos_churn_xl,
)
from tests.rebalance.planner_reference import (
    ReferencePlanner,
    from_view,
    to_view,
)

SMALL = dict(nodes=6, duration_s=60.0, seed=3, initial_vms=200,
             degrade_rate_per_s=0.05)


def small_cluster(**overrides):
    return ChurnChaosCluster(ChaosConfig(**{**SMALL, **overrides}))


class ScalarReferencePlanner(ReferencePlanner):
    """Plans each arrays snapshot through its frozen-dataclass spelling
    and the scalar reference planner."""

    def plan(self, snapshot, *, drain=(), seed=0):
        return super().plan(to_view(snapshot), drain=drain, seed=seed)


def small_loop(every=2, seed=3):
    return RebalanceLoop(
        MigrationPlanner(config=PlannerConfig(max_moves_per_round=16,
                                              max_moves_per_node=4)),
        every=every, seed=seed,
    )


class TestDeterminism:
    def test_static_run_is_seed_deterministic(self):
        r1 = small_cluster().run().to_dict()
        r2 = small_cluster().run().to_dict()
        assert r1 == r2

    def test_rebalanced_run_is_seed_deterministic(self):
        r1 = small_cluster().run(small_loop()).to_dict()
        r2 = small_cluster().run(small_loop()).to_dict()
        assert r1 == r2

    def test_different_seed_different_trajectory(self):
        r1 = small_cluster(seed=3).run().to_dict()
        r2 = small_cluster(seed=4).run().to_dict()
        assert r1 != r2


class TestMechanics:
    def test_population_and_accounting_consistent(self):
        cluster = small_cluster(degrade_rate_per_s=0.2)
        result = cluster.run()
        snapshot = cluster.rebalance_arrays()
        hosted = sum(len(n.vm_names) for n in snapshot.nodes.values())
        assert result.final_vms == hosted == snapshot.num_vms
        assert result.arrivals >= 0 and result.departures >= 0
        assert result.chaos_events > 0  # 0.2/s over 60 s, ~12 expected

    def test_chaos_degradation_creates_violations(self):
        # a packed cluster plus degradation must register violation time
        result = small_cluster(initial_vms=260).run()
        assert result.violation_vm_seconds > 0

    def test_start_migration_validates(self):
        cluster = small_cluster()
        view = cluster.rebalance_arrays()
        vm_name = next(iter(view.vms))
        source = view.vms[vm_name].node_id
        with pytest.raises(KeyError):
            cluster.start_migration("ghost", "node-0")
        with pytest.raises(ValueError):
            cluster.start_migration(vm_name, source)  # target == source

    def test_migration_reserves_target_capacity(self):
        cluster = small_cluster(initial_vms=60)  # leave real headroom
        view = cluster.rebalance_arrays()
        vm_name = next(iter(view.vms))
        vm = view.vms[vm_name]
        target = max(
            (n for n in view.nodes.values() if n.node_id != vm.node_id),
            key=lambda n: n.headroom_mhz,
        ).node_id
        cluster.start_migration(vm_name, target)
        # The reservation shows in the target's committed account (the
        # planner must not hand the same headroom out twice) while the
        # VM itself stays on its source until cut-over.
        after = cluster.rebalance_arrays()
        assert after.nodes[target].committed_mhz == pytest.approx(
            view.nodes[target].committed_mhz + vm.demand_mhz
        )
        assert after.vms[vm_name].node_id == vm.node_id

    def test_metrics_recorder_sees_every_step(self):
        metrics = ClusterRebalanceMetrics()
        small_cluster(duration_s=10.0).run(metrics=metrics)
        assert len(metrics.pressure_mhz.times) == 10
        assert len(metrics.violating_vms.values) == 10


class TestHeadlineClaim:
    def test_rebalancer_beats_static_placement(self):
        """The PR's core claim, miniature: under chaos+churn the
        rebalancer keeps cumulative guarantee-violation time (plus its
        own migration downtime) materially below static placement."""
        static = small_cluster(initial_vms=260).run()
        rebalanced = small_cluster(initial_vms=260).run(small_loop())
        assert rebalanced.migrations > 0
        assert rebalanced.total_bad_vm_seconds < 0.8 * static.total_bad_vm_seconds

    def test_every_move_is_ledger_explainable(self, tmp_path):
        from repro.rebalance.ledger import (
            explain_move_from_entries,
            load_rebalance_jsonl,
        )

        path = str(tmp_path / "rebalance.jsonl")
        scenario = ClusterScenario(
            name="mini", nodes=6, vms=260, duration=60.0, seed=3,
            degrade_rate_per_s=0.05, rebalance_every=2, ledger_path=path,
        )
        result = scenario.run()
        assert result.migrations > 0
        entries = load_rebalance_jsonl(path)
        moved = {m["vm"] for e in entries for m in e["moves"] if m["executed"]}
        assert len(moved) > 0
        for vm_name in sorted(moved):
            text = explain_move_from_entries(entries, vm_name)
            assert "migration derivation" in text


class TestSnapshotDialects:
    def test_arrays_snapshot_matches_view(self):
        cluster = small_cluster()
        cluster.run()
        arrays = cluster.rebalance_arrays()
        view = to_view(arrays)
        assert to_view(from_view(view)) == view
        assert view.total_pressure_mhz() == arrays.total_pressure_mhz()
        assert view.fragmentation_score() == arrays.fragmentation_score()
        assert sorted(view.vms) == sorted(arrays.vm_names)

    def test_arrays_cache_survives_migration_but_not_churn(self):
        cluster = small_cluster(initial_vms=60)
        a1 = cluster.rebalance_arrays()
        view = to_view(a1)
        vm_name = next(iter(view.vms))
        target = max(
            (n for n in view.nodes.values()
             if n.node_id != view.vms[vm_name].node_id),
            key=lambda n: n.headroom_mhz,
        ).node_id
        cluster.start_migration(vm_name, target)
        # Same population: static VM columns are reused, reservations show.
        a2 = cluster.rebalance_arrays()
        assert a2.vm_names == a1.vm_names
        slot = a2.node_index[target]
        assert a2.node_committed_mhz[slot] > a1.node_committed_mhz[slot]
        # Churn invalidates the name cache.
        cluster._destroy(vm_name)
        a3 = cluster.rebalance_arrays()
        assert vm_name not in a3.vm_names

    def test_run_identical_under_both_dialects(self):
        """Planning every round on the frozen-dataclass spelling (the
        scalar reference) instead of the arrays gives the same run and
        the same ledger."""
        results, moves = {}, {}
        for planner_cls in (MigrationPlanner, ScalarReferencePlanner):
            cluster = small_cluster(initial_vms=260)
            loop = RebalanceLoop(
                planner_cls(config=PlannerConfig(max_moves_per_round=16,
                                                 max_moves_per_node=4)),
                every=2, seed=3,
            )
            name = planner_cls.__name__
            results[name] = cluster.run(loop).to_dict()
            moves[name] = [r["moves"] for r in loop.ledger.rounds]
        assert results["MigrationPlanner"] == results["ScalarReferencePlanner"]
        assert moves["MigrationPlanner"] == moves["ScalarReferencePlanner"]
        assert results["MigrationPlanner"]["migrations"] > 0

    def test_loop_records_snapshot_and_plan_split(self):
        cluster = small_cluster(initial_vms=260)
        loop = small_loop()
        cluster.run(loop)
        assert loop.rounds_total > 0
        assert len(loop.snapshot_durations) == loop.rounds_total
        assert len(loop.plan_durations) == loop.rounds_total
        meta = loop.ledger.rounds[0]["meta"]
        assert meta["snapshot_seconds"] >= 0.0
        assert meta["plan_seconds"] >= 0.0

    def test_invalid_dialect_rejected(self):
        assert RebalanceLoop(dialect="arrays").rounds_total == 0
        for dialect in ("view", "auto", "csv"):
            with pytest.raises(ValueError, match="dialect"):
                RebalanceLoop(dialect=dialect)


class TestScenarioBuilders:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterScenario(name="bad", nodes=0)
        with pytest.raises(ValueError):
            ClusterScenario(name="bad", rebalance_every=0)

    def test_builders_parameterise_the_headline_pair(self):
        full = chaos_churn(rebalance=False)
        assert (full.nodes, full.vms, full.rebalance) == (200, 10_000, False)
        small = chaos_churn_small()
        assert (small.nodes, small.vms) == (8, 300)
        xl = chaos_churn_xl(rebalance=False)
        assert (xl.nodes, xl.vms, xl.rebalance) == (1000, 50_000, False)
        cluster, loop = small.build()
        assert cluster.rebalance_arrays().num_nodes == 8
        assert loop is not None and loop.every == 2

    def test_static_build_has_no_loop(self):
        _, loop = chaos_churn_small(rebalance=False).build()
        assert loop is None
