"""Span trees, stage histograms and the Chrome trace export."""

import json

import pytest

from repro.core.timings import STAGES
from repro.obs.tracing import (
    Histogram,
    JsonlSink,
    RingSink,
    Tracer,
    chrome_trace_events,
    spans_from_jsonl,
    write_chrome_trace,
)
from tests.obs.conftest import drive_host

TICKS = 6


@pytest.fixture(scope="module")
def traced():
    _, ctrl, obs = drive_host(TICKS)
    return ctrl, obs


class TestSpanTree:
    def test_one_trace_per_tick_monotone(self, traced):
        _, obs = traced
        assert obs.ring.trace_ids() == list(range(TICKS))

    def test_root_span_shape(self, traced):
        ctrl, obs = traced
        for tick in obs.ring.trace_ids():
            spans = obs.ring.by_trace(tick)
            roots = [s for s in spans if s.parent_id is None]
            assert len(roots) == 1
            root = roots[0]
            assert root.name == "tick"
            assert root.attrs["engine"] == ctrl.config.engine
            assert root.attrs["vcpus"] == 4  # 2 VMs x 2 vCPUs

    def test_six_stages_in_paper_order(self, traced):
        _, obs = traced
        spans = obs.ring.by_trace(3)
        root = next(s for s in spans if s.parent_id is None)
        stages = [s for s in spans if s.name.startswith("stage:")]
        assert [s.name for s in stages] == [f"stage:{st}" for st in STAGES]
        for s in stages:
            assert s.parent_id == root.span_id
        # Stages tile the root span: contiguous, summing to its duration.
        cursor = root.start_us
        for s in stages:
            assert s.start_us == pytest.approx(cursor, abs=1e-6)
            cursor += s.duration_us
        assert cursor - root.start_us == pytest.approx(
            root.duration_us, rel=1e-9
        )

    def test_vm_and_vcpu_spans_nest(self, traced):
        """The per-VM and per-vCPU facts nest in the tick's ledger entry,
        not in spans: one row per vCPU, the VM totals in its meta."""
        ctrl, obs = traced
        entries = {e["meta"]["tick"]: e for e in obs.ledger.ticks}
        for tick, report in enumerate(ctrl.reports):
            entry = entries[tick]
            rows = {(r["vm"], r["vcpu"]): r for r in entry["decisions"]}
            assert len(rows) == len(report.samples) == 4
            purchased = report.auction.purchased
            for s in report.samples:
                row = rows[(s.vm_name, s.vcpu_index)]
                path = s.cgroup_path
                assert row["consumed"] == s.consumed_cycles
                assert row["estimate"] == \
                    report.decisions[path].estimate_cycles
                assert row["allocation"] == report.allocations[path]
                assert row["purchased"] == purchased.get(path, 0.0)
            meta = entry["meta"]
            assert meta["wallets_after"] == report.wallets
            assert set(meta["wallets_after"]) == {"vm-0", "vm-1"}
            assert meta["spent_per_vm"] == report.auction.spent_per_vm

    def test_per_vcpu_spans_can_be_disabled(self, traced):
        """No per-VM or per-vCPU span is ever emitted: each tick's trace
        is exactly the root plus the six stage spans, seven in all."""
        _, obs = traced
        stage_names = [f"stage:{st}" for st in STAGES]
        for tick in range(TICKS):
            spans = obs.ring.by_trace(tick)
            assert [s.name for s in spans] == ["tick"] + stage_names


class TestHistograms:
    def test_every_stage_observed_once_per_tick(self, traced):
        _, obs = traced
        assert set(obs.tracer.histograms) == set(STAGES)
        for hist in obs.tracer.histograms.values():
            assert hist.count == TICKS
            assert hist.sum >= 0.0

    def test_cumulative_is_monotone_and_bounded(self):
        hist = Histogram()
        for v in (1e-6, 2e-5, 5e-4, 0.5, 100.0):
            hist.observe(v)
        cum = hist.cumulative()
        assert cum == sorted(cum)
        assert hist.count == 5
        # 100.0 exceeds every bound: it only lands in +Inf (the count).
        assert cum[-1] == 4


class TestSinksAndExport:
    def test_ring_is_bounded(self):
        ring = RingSink(maxlen=3)
        tracer = Tracer([ring])
        for i in range(10):
            tracer.record(
                "s", trace_id=i, parent_id=None, start_us=0.0, duration_us=1.0
            )
        assert len(ring.spans) == 3
        assert [s.trace_id for s in ring.spans] == [7, 8, 9]

    def test_jsonl_round_trip(self, tmp_path, traced):
        _, obs = traced
        path = str(tmp_path / "spans.jsonl")
        sink = JsonlSink(path)
        for span in obs.ring.spans:
            sink.on_span(span)
        sink.close()
        loaded = spans_from_jsonl(path)
        assert [s.to_dict() for s in loaded] == [
            s.to_dict() for s in obs.ring.spans
        ]

    def test_chrome_trace_events_shape(self, traced):
        _, obs = traced
        events = chrome_trace_events(obs.ring.spans)
        assert len(events) == len(obs.ring.spans)
        for ev, span in zip(events, obs.ring.spans):
            assert ev["ph"] == "X"
            assert ev["name"] == span.name
            assert ev["args"]["trace_id"] == span.trace_id
            assert ev["dur"] >= 0.0

    def test_write_chrome_trace_is_loadable(self, tmp_path, traced):
        _, obs = traced
        path = write_chrome_trace(obs.ring.spans, str(tmp_path / "t.json"))
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(obs.ring.spans)

    def test_span_context_manager_measures(self):
        ring = RingSink()
        tracer = Tracer([ring])
        with tracer.span("stage:manual", trace_id=9, samples=3) as attrs:
            attrs["extra"] = True
        (span,) = ring.spans
        assert span.name == "stage:manual"
        assert span.attrs == {"samples": 3, "extra": True}
        assert span.duration_us >= 0.0
        assert tracer.histograms["manual"].count == 1
