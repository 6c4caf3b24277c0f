"""The observability hub: one object a controller carries (or not).

:class:`Observability` owns the tracer, the decision ledger and the
flight recorder, and folds each finished
:class:`~repro.core.controller.ControllerReport` into all three
(``on_tick``), keeping each fact in one place.  One frame per tick:
the ledger entry is the ledger ``meta`` plus the report's
:class:`~repro.core.frame.DecisionFrame` (the columns the billing
meter and the SLO plane read too), and its per-vCPU dicts are built
only when an entry is read or written to JSONL.  A flight frame holds
only what the ledger lacks (registered VMs, raw samples, stage
timings) and shares the ledger's :class:`~repro.obs.ledger.TickRecord`
for the rest; its samples are materialised when the ring is read or
dumped.  Spans carry time only: the ``tick`` root and its six
``stage:*`` children, with counts read off the frame.  The
controller's hot loop stays untouched: with no hub attached a tick
pays exactly one ``is None`` check, and with a hub attached the
stages still run unmodified — the hub works *post hoc* from the
report, the stage timings the controller already measures, and the
controller's own registries.  Report streams are therefore
bit-identical with the hub on or off
(``tests/obs/test_transparency.py``).

Attach either declaratively (``ControllerConfig.observability``) or at
runtime::

    from repro.obs import Observability, ObsConfig
    obs = Observability.attach(controller, ObsConfig(out_dir="obs-out"))
    ...
    print(obs.ledger.ticks[-1])

Dump triggers (all routed here):

* ``Observability.on_violation`` — from ``_finish`` just before an
  ``InvariantViolationError`` propagates;
* ``Observability.on_tick_error`` — from the ``tick()`` wrapper when
  any other exception (e.g. an injected ``ControllerCrash``) escapes;
* ``Observability.on_node_error`` — from ``NodeManager._record_error``
  (idempotent with the above: one dump per crashing tick).
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.timings import STAGES
from repro.obs.config import ObsConfig
from repro.obs.flight_recorder import FlightRecorder
from repro.obs.ledger import DecisionLedger, TickRecord
from repro.obs.logging import get_logger
from repro.obs.tracing import JsonlSink, RingSink, Tracer, write_chrome_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.controller import ControllerReport, VirtualFrequencyController

log = get_logger("repro.obs")

class Observability:
    """Tracer + ledger + flight recorder behind one ``on_tick``."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        cfg = config if config is not None else ObsConfig()
        self.config = cfg
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
        self.ring: Optional[RingSink] = None
        self.tracer: Optional[Tracer] = None
        if cfg.tracing:
            self.ring = RingSink(cfg.span_ring_size)
            sinks = [self.ring]
            if cfg.out_dir:
                sinks.append(JsonlSink(os.path.join(cfg.out_dir, "spans.jsonl")))
            self.tracer = Tracer(sinks)
        self.ledger: Optional[DecisionLedger] = None
        if cfg.ledger:
            path = (
                os.path.join(cfg.out_dir, "ledger.jsonl") if cfg.out_dir else None
            )
            self.ledger = DecisionLedger(cfg.ledger_ring_ticks, path=path)
        self.recorder: Optional[FlightRecorder] = None
        if cfg.flight_recorder_ticks:
            self.recorder = FlightRecorder(
                cfg.flight_recorder_ticks, dump_dir=cfg.out_dir
            )
        self._prev_wallets: Dict[str, float] = {}
        #: Last-known observed vCPU count per registered VM (so a frame
        #: captured while a VM is occluded still records its true
        #: shape).  Kept only while the recorder is on.
        self._vm_vcpus: Dict[str, int] = {}

    # -- wiring -----------------------------------------------------------------

    @classmethod
    def attach(
        cls,
        controller: "VirtualFrequencyController",
        config: Optional[ObsConfig] = None,
    ) -> "Observability":
        """Attach a hub to an already-built controller (runtime wiring)."""
        obs = cls(config)
        obs.bind(controller)
        controller.obs = obs
        return obs

    def bind(self, controller: "VirtualFrequencyController") -> None:
        """Capture the host facts every flight dump needs as a header."""
        self._prev_wallets = controller.ledger.wallets()
        if self.recorder is None:
            return
        plan = getattr(controller.backend, "plan", None)
        self.recorder.set_meta(
            num_cpus=controller.num_cpus,
            fmax_mhz=controller.fmax_mhz,
            period_s=controller.config.period_s,
            engine=controller.config.engine,
            resilience=controller.resilience is not None,
            fault_plan=(
                {"seed": plan.seed, "specs": [s.as_dict() for s in plan.specs]}
                if plan is not None else None
            ),
            seed=getattr(plan, "seed", 0),
        )

    # -- the per-tick hook -------------------------------------------------------

    def on_tick(
        self,
        controller: "VirtualFrequencyController",
        report: "ControllerReport",
        tick: int,
    ) -> None:
        """Fold one finished tick into spans, ledger and flight ring."""
        if self.ledger is not None or self.recorder is not None:
            meta = self._build_meta(controller, report, tick)
            if self.ledger is not None:
                record = self.ledger.record_tick(meta, report.frame)
            else:
                record = TickRecord(meta, report.frame)
            if self.recorder is not None:
                self.recorder.record(
                    self._build_frame(controller, report, tick, record)
                )
        if self.tracer is not None:
            self._emit_spans(controller, report, tick)
        self._prev_wallets = report.wallets

    # -- ledger record construction ---------------------------------------------

    def _build_meta(self, controller, report, tick):
        cfg = controller.config
        auction = report.auction
        return {
            "tick": tick,
            "t": report.t,
            "engine": cfg.engine,
            "p_us": cfg.period_s * 1e6,
            "fmax_mhz": controller.fmax_mhz,
            "enforcement_period_us": cfg.enforcement_period_us,
            "market_initial": report.market_initial,
            "market_left": auction.market_left if auction else 0.0,
            "rounds": auction.rounds if auction else 0,
            "freely_distributed": report.freely_distributed,
            "wallets_before": dict(self._prev_wallets),
            "wallets_after": dict(report.wallets),
            "spent_per_vm": dict(auction.spent_per_vm) if auction else {},
            # Recorded whether or not a billing engine is attached, so
            # the ledger stream is byte-identical billing on vs. off
            # and the billing oracle can always resolve tenancy.
            "tenants": dict(controller._vm_tenant),
        }

    # -- flight frame construction ------------------------------------------------

    def _build_frame(self, controller, report, tick, record):
        """The tick's flight frame, built when the ring is read."""
        seen = Counter(_observed_vms(report))
        last = self._vm_vcpus
        registered = {}
        for vm, vfreq in controller._vm_vfreq.items():
            registered[vm] = {
                "vfreq": vfreq, "vcpus": seen.get(vm) or last.get(vm, 0),
            }
        self._vm_vcpus = {vm: info["vcpus"] for vm, info in registered.items()}
        return functools.partial(
            _flight_frame, tick, report, registered, record
        )

    # -- span synthesis ------------------------------------------------------------

    def _emit_spans(self, controller, report, tick) -> None:
        tracer = self.tracer
        timings = report.timings
        total_us = timings.total * 1e6
        end_us = tracer.now_us()
        start_us = end_us - total_us
        market_left = report.auction.market_left if report.auction else 0.0
        observed = _observed_vms(report)
        root = tracer.record(
            "tick",
            trace_id=tick,
            parent_id=None,
            start_us=start_us,
            duration_us=total_us,
            attrs={
                "t": report.t,
                "engine": controller.config.engine,
                "vcpus": len(observed),
                "vms": len(set(observed)),
                "market_initial": report.market_initial,
                "freely_distributed": report.freely_distributed,
                "degraded": len(report.degraded),
            },
        )
        stage_attrs = {
            "monitor": {"samples": len(observed)},
            "estimate": {"decisions": report.frame.sampled},
            "credits": {"wallets": len(report.wallets)},
            "auction": {
                "market_initial": report.market_initial,
                "market_left": market_left,
                "rounds": report.auction.rounds if report.auction else 0,
                "cycles_sold": report.market_initial - market_left
                if report.auction else 0.0,
            },
            "distribute": {
                "freely_distributed": report.freely_distributed,
                "recipients": len(report.free_shares),
            },
            "enforce": {
                "allocations": len(report.allocations),
                "degraded": len(report.degraded),
            },
        }
        cursor = start_us
        for stage in STAGES:
            dur_us = getattr(timings, stage) * 1e6
            tracer.record(
                f"stage:{stage}",
                trace_id=tick,
                parent_id=root.span_id,
                start_us=cursor,
                duration_us=dur_us,
                attrs=stage_attrs[stage],
            )
            cursor += dur_us

    # -- dump triggers -------------------------------------------------------------

    def on_violation(
        self, controller, report, violations, tick
    ) -> Optional[str]:
        """Invariant violation: log it and dump the black box."""
        log.error(
            "invariant violation at tick %d: %s",
            tick, "; ".join(str(v) for v in violations),
        )
        if self.recorder is None:
            return None
        path = self.recorder.dump(
            "invariant_violation", [str(v) for v in violations]
        )
        if path:
            log.warning("flight recorder dumped %d tick(s) to %s",
                        len(self.recorder.frames), path)
        return path

    def on_tick_error(self, controller, exc, tick) -> Optional[str]:
        """Any non-invariant exception escaping ``tick()``."""
        log.error("controller tick %d raised %s: %s",
                  tick, type(exc).__name__, exc)
        if self.recorder is None:
            return None
        path = self.recorder.dump(f"tick_error_{type(exc).__name__}", [str(exc)])
        if path:
            log.warning("flight recorder dumped %d tick(s) to %s",
                        len(self.recorder.frames), path)
        return path

    def on_node_error(self, node_id: str, exc) -> Optional[str]:
        """Node-manager level trigger (idempotent with the tick wrapper)."""
        if self.recorder is None:
            return None
        return self.recorder.dump(f"node_error_{node_id}", [str(exc)])

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        """Flush sinks; write the Chrome trace export when file-backed."""
        if self.tracer is not None:
            if self.config.out_dir and self.ring is not None and self.ring.spans:
                write_chrome_trace(
                    self.ring.spans,
                    os.path.join(self.config.out_dir, "trace_chrome.json"),
                )
            self.tracer.close()
        if self.ledger is not None:
            self.ledger.close()


def _observed_vms(report) -> List[str]:
    """The owning VM of each stage-1 sample, in sample order.

    With control on every sample has a frame row, so the frame answers
    without building sample objects; only a tick that enforced nothing
    (config A) reads its samples.
    """
    if report.allocations:
        frame = report.frame
        return frame.vm[:frame.sampled]
    return [s.vm_name for s in report.samples]


def _flight_frame(tick: int, report, registered: Dict,
                  record: TickRecord) -> Dict:
    """One flight-recorder frame: replay inputs plus the ledger record."""
    entry = record.entry()
    return {
        "tick": tick,
        "t": report.t,
        "registered": registered,
        "samples": [
            [s.cgroup_path, s.vm_name, s.vcpu_index,
             s.consumed_cycles, s.vfreq_mhz]
            for s in report.samples
        ],
        "timings": {
            stage: getattr(report.timings, stage) for stage in STAGES
        },
        "meta": entry["meta"],
        "decisions": entry["decisions"],
    }
