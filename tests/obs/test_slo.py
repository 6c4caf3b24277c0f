"""SLO specs, burn-rate evaluation, alert ledger, explain, paging."""

import json
import os

import pytest

from repro.obs.slo import (
    DEFAULT_RULES,
    AlertLedger,
    BurnRateRule,
    SLOConfig,
    SLOPlane,
    SLOSpec,
    default_slos,
    explain_alert,
    explain_alert_from_entries,
    load_alerts_jsonl,
    lookup_alert,
)
from repro.obs.tsdb import S_GUARANTEE_BAD, S_GUARANTEE_CHECKS


def feed_guarantee(plane, ticks, bad_ratio, *, tenant="t0", start=1,
                   checks=10.0):
    """Accumulate a guarantee stream and evaluate each tick."""
    transitions = []
    for tick in range(start, start + ticks):
        plane.store.accumulate(
            S_GUARANTEE_BAD, bad_ratio * checks, {"tenant": tenant}
        )
        plane.store.accumulate(
            S_GUARANTEE_CHECKS, checks, {"tenant": tenant}
        )
        transitions.extend(plane.evaluate(tick, t=float(tick)))
    return transitions


def deterministic_plane(**overrides):
    kwargs = dict(wallclock=False, anomaly=None)
    kwargs.update(overrides)
    return SLOPlane(SLOConfig(**kwargs))


class TestValidation:
    def test_rule_windows(self):
        with pytest.raises(ValueError):
            BurnRateRule(5, 5, 2.0)
        with pytest.raises(ValueError):
            BurnRateRule(10, 0, 2.0)
        with pytest.raises(ValueError):
            BurnRateRule(10, 2, -1.0)
        with pytest.raises(ValueError):
            BurnRateRule(10, 2, 2.0, severity="sev1")

    def test_spec_objective_and_ratio(self):
        with pytest.raises(ValueError):
            SLOSpec("x", 1.0, "b", "t")
        with pytest.raises(ValueError):
            SLOSpec("x", 0.99, "b", "t", ratio="percent")
        with pytest.raises(ValueError):
            SLOSpec("x", 0.99, "b", "t", rules=())
        assert SLOSpec("x", 0.999, "b", "t").error_budget == \
            pytest.approx(0.001)

    def test_config_knobs(self):
        with pytest.raises(ValueError):
            SLOConfig(capacity=1)
        with pytest.raises(ValueError):
            SLOConfig(ring=0)
        with pytest.raises(ValueError):
            SLOConfig(period_s=0.0)
        assert SLOConfig(period_s=2.0, deadline_fraction=0.5).deadline_s \
            == pytest.approx(1.0)


class TestCatalogue:
    def test_default_slos_shape(self):
        specs = {s.name: s for s in default_slos()}
        assert set(specs) == {"guarantee", "tick_deadline", "credit_burn"}
        assert specs["guarantee"].by == "tenant"
        assert specs["credit_burn"].ratio == "of_sum"
        assert specs["tick_deadline"].wallclock

    def test_deterministic_profile_drops_wallclock_slos(self):
        names = {s.name for s in default_slos(wallclock=False)}
        assert "tick_deadline" not in names
        plane = deterministic_plane()
        assert {s.name for s in plane.specs} == {"guarantee", "credit_burn"}

    def test_default_rule_bank_is_sre_shaped(self):
        assert [(r.factor, r.severity) for r in DEFAULT_RULES] == [
            (14.4, "page"), (6.0, "page"), (3.0, "ticket"), (1.0, "ticket"),
        ]


class TestBurnRateLifecycle:
    def test_page_fires_then_resolves_ticket_outlasts_it(self):
        plane = deterministic_plane()
        burning = feed_guarantee(plane, 10, 0.5)
        fired = [(t["severity"], t["state"]) for t in burning]
        assert ("page", "firing") in fired
        assert all(state == "firing" for _, state in fired)
        # A 0.5 bad ratio against a 0.1% budget burns at 500x.
        page = next(t for t in burning if t["severity"] == "page")
        assert page["burn_long"] > 14.4 and page["burn_short"] > 14.4
        assert page["slo"] == "guarantee"
        assert page["labels"] == {"tenant": "t0"}
        assert page["budget_remaining"] <= 1.0

        # Recovery: the page's short windows drain first and it
        # resolves; the ticket (720-tick window, served by the
        # downsample ladder) fires as its window fills and keeps
        # burning long after the incident ended.
        recovered = feed_guarantee(plane, 50, 0.0, start=11)
        states = [(t["severity"], t["state"]) for t in recovered]
        assert ("page", "resolved") in states
        assert ("ticket", "firing") in states
        assert ("ticket", "resolved") not in states
        keys = {(slo, sev) for (slo, _, sev) in plane._firing}
        assert ("guarantee", "ticket") in keys
        assert ("guarantee", "page") not in keys

    def test_resolved_transition_names_the_rule_that_fired(self):
        plane = deterministic_plane()
        feed_guarantee(plane, 10, 0.5)
        recovered = feed_guarantee(plane, 50, 0.0, start=11)
        resolved = next(t for t in recovered if t["state"] == "resolved")
        assert resolved["rule"]["factor"] in (14.4, 6.0)
        assert resolved["source"] == "burn_rate"

    def test_quiet_stream_never_alerts(self):
        plane = deterministic_plane()
        assert feed_guarantee(plane, 40, 0.0) == []
        assert plane.transitions_total == 0
        assert plane.firing_alerts() == []

    def test_per_tenant_isolation(self):
        plane = deterministic_plane()
        for tick in range(1, 11):
            plane.store.accumulate(S_GUARANTEE_BAD, 5.0, {"tenant": "bad"})
            plane.store.accumulate(S_GUARANTEE_CHECKS, 10.0, {"tenant": "bad"})
            plane.store.accumulate(S_GUARANTEE_BAD, 0.0, {"tenant": "good"})
            plane.store.accumulate(S_GUARANTEE_CHECKS, 10.0, {"tenant": "good"})
            transitions = plane.evaluate(tick)
        tenants = {t["labels"]["tenant"] for t in plane.ledger.transitions}
        assert tenants == {"bad"}
        assert {t["labels"]["tenant"] for t in plane.firing_alerts()} == {"bad"}

    def test_of_sum_ratio(self):
        spec = SLOSpec("credits", 0.99, "bad_usd", "good_usd",
                       ratio="of_sum")
        plane = SLOPlane(SLOConfig(specs=(spec,), wallclock=False,
                                   anomaly=None))
        for tick in range(1, 8):
            plane.store.accumulate("bad_usd", 1.0)
            plane.store.accumulate("good_usd", 3.0)
            plane.evaluate(tick)
        # ratio = 1 / (1 + 3) = 0.25 against a 1% budget -> 25x burn.
        assert plane.burn_rate(spec, 5, {}) == pytest.approx(25.0)
        assert any(t["severity"] == "page"
                   for t in plane.ledger.transitions)

    def test_error_budget_remaining_can_go_negative(self):
        # 25 ticks so the 1440-tick budget window (served by ladder
        # level 1, one point per 10 ticks) sees a real increase.
        plane = deterministic_plane()
        feed_guarantee(plane, 25, 0.9)
        spec = next(s for s in plane.specs if s.name == "guarantee")
        assert plane.error_budget_remaining(spec, {"tenant": "t0"}) < 0.0

    def test_no_label_sets_before_first_ingest(self):
        plane = deterministic_plane()
        spec = next(s for s in plane.specs if s.name == "guarantee")
        assert plane._label_sets(spec) == []
        assert plane.evaluate(1) == []


class TestAlertLedger:
    def test_ring_bound_and_jsonl_mirror(self, tmp_path):
        path = str(tmp_path / "alerts.jsonl")
        ledger = AlertLedger(ring=2, path=path)
        for k in range(4):
            ledger.record({"kind": "alert", "k": k})
        assert [t["k"] for t in ledger.transitions] == [2, 3]
        ledger.close()
        entries = load_alerts_jsonl(path)
        assert [e["k"] for e in entries] == [0, 1, 2, 3]  # file keeps all

    def test_loader_skips_foreign_lines(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        path.write_text(
            json.dumps({"kind": "alert", "slo": "x"}) + "\n"
            + json.dumps({"kind": "header"}) + "\n\n"
        )
        assert len(load_alerts_jsonl(str(path))) == 1

    def test_identical_streams_byte_identical_files(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            out = tmp_path / run
            plane = SLOPlane(SLOConfig(wallclock=False, anomaly=None,
                                       out_dir=str(out)))
            feed_guarantee(plane, 10, 0.5)
            feed_guarantee(plane, 30, 0.0, start=11)
            plane.close()
            paths.append(out / "alerts.jsonl")
        a, b = (p.read_bytes() for p in paths)
        assert a == b and a  # identical and non-trivial


class TestExplainAlert:
    def _entries(self, tmp_path):
        plane = SLOPlane(SLOConfig(wallclock=False, anomaly=None,
                                   out_dir=str(tmp_path)))
        feed_guarantee(plane, 10, 0.5)
        plane.close()
        return load_alerts_jsonl(str(tmp_path / "alerts.jsonl"))

    def test_rederivation_matches(self, tmp_path):
        entries = self._entries(tmp_path)
        text = explain_alert_from_entries(entries, "guarantee")
        assert "alert derivation for slo=guarantee{tenant=t0}" in text
        assert "recomputed burn-rate condition matches" in text
        assert "MISMATCH" not in text

    def test_tampered_entry_is_flagged(self, tmp_path):
        entry = dict(self._entries(tmp_path)[0])
        entry["burn_long"] = 0.0  # ledger says firing, burns say no
        assert "MISMATCH" in explain_alert(entry)

    def test_lookup_errors_list_recorded_slos(self, tmp_path):
        entries = self._entries(tmp_path)
        with pytest.raises(KeyError, match="guarantee"):
            lookup_alert(entries, "nope")
        with pytest.raises(KeyError, match="out of range"):
            lookup_alert(entries, "guarantee", index=99)
        assert lookup_alert(entries, "guarantee", index=0) == entries[0]

    def test_anomaly_entry_rederivation(self):
        from repro.obs.anomaly import AnomalyConfig, EwmaDetector

        plane = SLOPlane(SLOConfig(wallclock=False,
                                   anomaly=AnomalyConfig(warmup=4)))
        for tick in range(1, 9):
            plane.store.append("backend_errors_total", 0.0 + tick * 2.0,
                               {"source": "n0"})
            plane.evaluate(tick)
        plane.store.append("backend_errors_total", 1e6, {"source": "n0"})
        transitions = plane.evaluate(9)
        anomalies = [t for t in transitions if t["source"] == "anomaly"]
        assert anomalies and anomalies[0]["slo"] == \
            "anomaly:backend_errors_total"
        text = explain_alert(anomalies[0])
        assert "re-derived, matches" in text


class TestFlightDumpOnPage:
    def _paged_controller(self, tmp_path):
        import random

        from repro.core.config import ControllerConfig
        from repro.obs import Observability, ObsConfig
        from repro.virt.template import VMTemplate
        from tests.conftest import make_host

        config = ControllerConfig.paper_evaluation(engine="bulk")
        node, hv, ctrl = make_host(config=config)
        Observability.attach(ctrl, ObsConfig(out_dir=str(tmp_path)))
        plane = SLOPlane.attach(
            ctrl, SLOConfig(wallclock=False, anomaly=None)
        )
        vm = hv.provision(VMTemplate("t0", vcpus=1, vfreq_mhz=500.0), "vm-0")
        ctrl.register_vm(vm.name, 500.0)
        rng = random.Random(3)

        def tick(t):
            vm.set_uniform_demand(rng.random())
            node.step(1.0)
            ctrl.tick(float(t))

        return ctrl, plane, tick

    def test_page_alert_dumps_flight_recorder(self, tmp_path):
        ctrl, plane, tick = self._paged_controller(tmp_path)
        tick(1)  # a first frame lands in the ring
        # Two tenants burn their budgets at once -> two page transitions
        # in one tick, but the recorder's per-tick dedup writes ONE dump.
        for k in range(10):
            for tenant in ("t-a", "t-b"):
                plane.store.accumulate(
                    S_GUARANTEE_BAD, 5.0, {"tenant": tenant}
                )
                plane.store.accumulate(
                    S_GUARANTEE_CHECKS, 10.0, {"tenant": tenant}
                )
        tick(2)
        pages = [t for t in plane.ledger.transitions
                 if t["severity"] == "page" and t["state"] == "firing"]
        assert len(pages) == 2
        dumps = [f for f in os.listdir(tmp_path)
                 if f.startswith("flight_slo_page_guarantee")]
        assert len(dumps) == 1
        payload = json.loads((tmp_path / dumps[0]).read_text())
        assert payload["reason"].startswith("slo_page_guarantee")
        assert payload["violations"]
        assert "burning at" in payload["violations"][0]

    def test_no_dump_without_page(self, tmp_path):
        ctrl, plane, tick = self._paged_controller(tmp_path)
        tick(1)
        tick(2)
        assert not [f for f in os.listdir(tmp_path)
                    if f.startswith("flight_slo")]
