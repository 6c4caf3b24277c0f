"""CLI coverage: ``repro slo``, ``repro explain --alert``, and the
SLO/billing/rebalance composition behind ``repro serve-metrics``."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.slo import SLOConfig, SLOPlane
from repro.obs.tsdb import S_GUARANTEE_BAD, S_GUARANTEE_CHECKS


class TestSloEval:
    def test_green_run_with_artefacts(self, tmp_path, capsys):
        out_dir = tmp_path / "slo-artefacts"
        rc = main(["slo", "eval", "--seeds", "1", "--ticks", "25",
                   "--engine", "scalar", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed 0:" in out
        assert "alert transition(s)" in out
        assert "checks: cross-engine, replay-determinism, transparency" in out
        assert "[ok]" in out
        assert (out_dir / "alerts_seed0.jsonl").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["failures"] == 0
        assert summary["seeds"][0]["engines"] == ["scalar"]
        assert summary["seeds"][0]["problems"] == []

    def test_fault_seed_yields_alert_traffic(self, tmp_path, capsys):
        """Seed 0 x 80 ticks includes a fault plan that actually fires
        alerts — the ledger artefact carries real transitions that
        round-trip through the JSON stream."""
        out_dir = tmp_path / "out"
        rc = main(["slo", "eval", "--seeds", "1", "--ticks", "80",
                   "--engine", "scalar", "--no-determinism",
                   "--no-transparency", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks: cross-engine" in out
        lines = (out_dir / "alerts_seed0.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert entry["state"] in ("firing", "resolved")
            assert entry["severity"] in ("page", "ticket")
            assert entry["tick"] >= 1


class TestSloWatch:
    def test_dashboard_and_ledger(self, tmp_path, capsys):
        out_dir = tmp_path / "watch"
        rc = main(["slo", "watch", "--nodes", "2", "--vms", "2",
                   "--ticks", "12", "--every", "6", "--seed", "42",
                   "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SLO dashboard @ tick 6" in out
        assert "SLO dashboard @ tick 12" in out
        assert "guarantee" in out and "tick_deadline" in out
        assert "budget left" in out
        assert "alert ledger:" in out
        assert (out_dir / "alerts.jsonl").exists()


def _write_ledger(out_dir):
    """A plane with one page-worthy guarantee burn, ledger on disk."""
    plane = SLOPlane(SLOConfig(wallclock=False, anomaly=None,
                               out_dir=str(out_dir)))
    for tick in range(1, 11):
        plane.store.accumulate(S_GUARANTEE_BAD, 5.0, {"tenant": "t0"})
        plane.store.accumulate(S_GUARANTEE_CHECKS, 10.0, {"tenant": "t0"})
        plane.evaluate(tick, t=float(tick))
    plane.close()
    assert os.path.exists(os.path.join(str(out_dir), "alerts.jsonl"))


class TestExplainAlert:
    def test_rederivation_from_obs_dir(self, tmp_path, capsys):
        _write_ledger(tmp_path)
        rc = main(["explain", "--alert", "guarantee",
                   "--obs-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "guarantee" in out
        assert "burn" in out
        assert "MISMATCH" not in out

    def test_unknown_slo_lists_recorded_names(self, tmp_path, capsys):
        _write_ledger(tmp_path)
        rc = main(["explain", "--alert", "nope", "--obs-dir",
                   str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "guarantee" in err  # the recorded names are suggested

    def test_missing_ledger_is_usage_error(self, tmp_path, capsys):
        rc = main(["explain", "--alert", "guarantee",
                   "--obs-dir", str(tmp_path / "empty")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no alert ledger" in err


class TestServeMetricsComposition:
    @staticmethod
    def _families(out):
        for line in out.splitlines():
            if "self-test ok" in line:
                return int(line.split("families")[0].split(",")[-1].strip())
        raise AssertionError(f"no self-test verdict in: {out!r}")

    def test_self_test_single_node(self, capsys):
        """rc 0 means the in-command assertions saw every SLO, billing
        and controller family on the scrape; 17 families total."""
        rc = main(["serve-metrics", "--self-test"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test ok" in out
        assert self._families(out) == 17

    def test_self_test_cluster_mode(self, capsys):
        """Cluster mode folds rebalance + per-node billing families on
        top of the single-node set."""
        rc = main(["serve-metrics", "--self-test", "--cluster", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test ok" in out
        assert self._families(out) > 17

    @pytest.mark.parametrize("extra", [[], ["--cluster", "2"]])
    def test_fault_plan_reaches_the_scrape(self, extra, tmp_path,
                                           monkeypatch, capsys):
        """``--fault-plan`` wraps every demo controller's backend in an
        injector, so the served page carries its counters."""
        import repro.obs
        from repro.faults import FaultPlan

        plan = str(tmp_path / "plan.json")
        FaultPlan.standard_mix().save(plan)
        bodies = []
        serve = repro.obs.MetricsServer

        def recording_server(scrape, **kwargs):
            def recorded():
                bodies.append(scrape())
                return bodies[-1]

            return serve(recorded, **kwargs)

        monkeypatch.setattr(repro.obs, "MetricsServer", recording_server)
        rc = main(["serve-metrics", "--self-test", "--ticks", "5",
                   "--fault-plan", plan, *extra])
        assert rc == 0
        assert "# HELP vfreq_faults_injected_total " in bodies[0]
        assert 'vfreq_faults_injected_total{' in bodies[0]
