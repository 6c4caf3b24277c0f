"""Event traces: the fuzzer's scenario format and its replayer.

A :class:`Trace` is a header plus a flat list of events — everything a
scenario did, written down concretely (demand levels included), so a
replay needs **no randomness**: the trace alone reproduces the run
bit-for-bit.  That property is what makes delta-debugging work — the
shrinker can delete any subset of events and replay the remainder.

Serialised as JSONL (one JSON object per line, header first), the same
format ``python -m repro check replay`` consumes and
``tests/checking/test_repros.py`` auto-collects:

.. code-block:: text

    {"kind": "header", "version": 1, "seed": 7, "cores": 2, ...}
    {"kind": "provision", "vm": "fz-0", "vcpus": 2, "vfreq": 500.0}
    {"kind": "demand", "vm": "fz-0", "level": 0.73}
    {"kind": "tick"}
    {"kind": "set_vfreq", "vm": "fz-0", "vfreq": 900.0}
    {"kind": "restart"}
    {"kind": "tick"}

Event kinds: ``provision`` / ``destroy`` (VM churn), ``set_vfreq`` (QoS
renegotiation), ``demand`` (uniform per-VM demand level for the next
tick), ``restart`` (snapshot the controller and restore onto a fresh
instance — the crash-recovery path), ``tick`` (advance the node by one
controller period and run one iteration).  Events referring to VMs that
do not (or already) exist are skipped silently: a shrunken trace stays
replayable no matter which events the shrinker removed.

Replay drives one *replica* per requested engine — separate node,
hypervisor and controller built from the same header — applies every
event to all replicas, runs the full invariant catalogue after every
tick, and (with two replicas) checks cross-engine bit-identity of every
report field the operators consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checking.invariants import InvariantChecker, Violation
from repro.core.config import ControllerConfig
from repro.core.controller import ControllerReport, VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate

TRACE_VERSION = 1

#: Engines a trace can run under.
ENGINES: Tuple[str, ...] = ("scalar", "bulk")
#: Engine selectors: one engine by name, or ``"both"`` for all of them.
ENGINE_SELECTORS: Tuple[str, ...] = ENGINES + ("both",)


def resolve_engines(selector: str) -> Tuple[str, ...]:
    """The engines an engine selector names.

    ``"both"`` runs scalar and bulk in lockstep (cross-engine
    bit-identity checked each tick); an engine name runs just that one.
    """
    if selector == "both":
        return ENGINES
    if selector not in ENGINES:
        raise ValueError(f"unknown engine {selector!r}")
    return (selector,)


@dataclass
class Trace:
    """A fuzzing scenario: header dict + concrete event list."""

    header: Dict
    events: List[Dict] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    @classmethod
    def make_header(
        cls,
        *,
        seed: int = 0,
        cores: int = 2,
        threads_per_core: int = 2,
        fmax_mhz: float = 2400.0,
        resilience: bool = False,
        fault_plan: Optional[Dict] = None,
        engine: str = "both",
    ) -> Dict:
        return {
            "kind": "header",
            "version": TRACE_VERSION,
            "seed": seed,
            "cores": cores,
            "threads_per_core": threads_per_core,
            "fmax_mhz": fmax_mhz,
            "resilience": resilience,
            "fault_plan": fault_plan,
            "engine": engine,
        }

    def with_events(self, events: Sequence[Dict]) -> "Trace":
        """A copy holding ``events`` (the shrinker's probe constructor)."""
        return Trace(header=dict(self.header), events=list(events))

    @property
    def ticks(self) -> int:
        return sum(1 for e in self.events if e.get("kind") == "tick")

    # -- persistence ----------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header, sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True) for e in self.events]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, payload: str) -> "Trace":
        rows = [json.loads(line) for line in payload.splitlines() if line.strip()]
        if not rows or rows[0].get("kind") != "header":
            raise ValueError("trace must start with a header line")
        header = rows[0]
        version = header.get("version")
        if version != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version!r}")
        return cls(header=header, events=rows[1:])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as fh:
            return cls.from_jsonl(fh.read())


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of one trace replay."""

    ticks: int
    violations: List[Violation]
    engines: Tuple[str, ...]
    #: Per-engine reports, only kept when ``collect_reports=True``.
    reports: Dict[str, List[ControllerReport]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class _Replica:
    """One engine's closed-loop host: node + hypervisor + controller."""

    def __init__(
        self,
        trace: Trace,
        engine: str,
        attach: Optional[Callable[[VirtualFrequencyController, str], None]] = None,
    ) -> None:
        h = trace.header
        spec = NodeSpec(
            name="fuzz",
            cpu_model="fuzz host",
            sockets=1,
            cores_per_socket=int(h.get("cores", 2)),
            threads_per_core=int(h.get("threads_per_core", 2)),
            fmax_mhz=float(h.get("fmax_mhz", 2400.0)),
            fmin_mhz=float(h.get("fmax_mhz", 2400.0)) / 2.0,
            memory_mb=64 * 1024,
            freq_jitter_mhz=0.0,
        )
        self.node = Node(spec, seed=int(h.get("seed", 0)))
        self.hypervisor = Hypervisor(self.node, enforce_admission=False)
        resilience = (
            ResiliencePolicy(stale_sample_max_age=1, degraded_after_ticks=3)
            if h.get("resilience") or h.get("fault_plan")
            else None
        )
        self.config = ControllerConfig.paper_evaluation(
            engine=engine, resilience=resilience
        )
        backend = None
        if h.get("fault_plan"):
            from repro.faults import FaultInjector, FaultPlan

            plan = FaultPlan.from_json(json.dumps(h["fault_plan"]))
            backend = FaultInjector(
                plan, self.node.fs, self.node.procfs, self.node.sysfs
            )
        self.controller = self._make_controller(backend)
        self.checker = InvariantChecker(self.controller)
        self.templates: Dict[str, VMTemplate] = {}
        #: Optional instrumentation hook (obs hub, billing engine); also
        #: re-invoked after every ``restart`` event so attachments can
        #: re-bind to the freshly restored controller instance.
        self._attach = attach
        if attach is not None:
            attach(self.controller, engine)

    def _make_controller(self, backend) -> VirtualFrequencyController:
        spec = self.node.spec
        if backend is not None:
            return VirtualFrequencyController(
                backend,
                num_cpus=spec.logical_cpus,
                fmax_mhz=spec.fmax_mhz,
                config=self.config,
            )
        return VirtualFrequencyController(
            self.node.fs,
            self.node.procfs,
            self.node.sysfs,
            num_cpus=spec.logical_cpus,
            fmax_mhz=spec.fmax_mhz,
            config=self.config,
        )

    # -- event handlers -------------------------------------------------------

    def apply(self, event: Dict) -> None:
        kind = event["kind"]
        vms = self.hypervisor._vms
        if kind == "provision":
            name = event["vm"]
            if name in vms:
                return
            template = VMTemplate(
                name=f"fz-{event['vcpus']}c",
                vcpus=int(event["vcpus"]),
                vfreq_mhz=float(event["vfreq"]),
                tenant=event.get("tenant", "default"),
            )
            vm = self.hypervisor.provision(template, name)
            self.controller.register_vm(
                vm.name, template.vfreq_mhz, tenant=event.get("tenant")
            )
            self.templates[name] = template
            # Optional initial demand, so a billing repro can express
            # "provision a busy VM" as a single event.
            if "level" in event:
                vm.set_uniform_demand(float(event["level"]))
        elif kind == "destroy":
            name = event["vm"]
            if name not in vms:
                return
            self.controller.unregister_vm(name)
            self.hypervisor.destroy(name)
            self.templates.pop(name, None)
        elif kind == "set_vfreq":
            name = event["vm"]
            if name not in vms:
                return
            self.controller.set_vfreq(name, float(event["vfreq"]))
        elif kind == "demand":
            name = event["vm"]
            if name not in vms:
                return
            vms[name].set_uniform_demand(float(event["level"]))
        elif kind == "restart":
            self._restart()
        else:
            raise ValueError(f"unknown trace event kind {kind!r}")

    def _restart(self) -> None:
        """Controller crash + recovery: snapshot, rebuild, restore.

        The new instance reuses the old backend (and so any active
        FaultInjector keeps its tick position — a restart does not
        rewind the fault schedule).
        """
        from repro.core.snapshot import restore, snapshot

        state = snapshot(self.controller)
        self.controller = self._make_controller(self.controller.backend)
        restore(self.controller, state)
        self.checker = InvariantChecker(self.controller)
        if self._attach is not None:
            # After restore, so attachments re-bind to the recovered
            # wallets/registries (a billing engine keeps its meter —
            # usage accrued before the crash stays billed).
            self._attach(self.controller, self.config.engine)

    def tick(self, t: float) -> Tuple[ControllerReport, List[Violation]]:
        self.node.step(self.config.period_s)
        report = self.controller.tick(t)
        violations = self.checker.check(report)
        # keep_reports stays on (the oracles need report.decisions), but a
        # 100k-tick fuzz run must not hold 100k reports alive.
        if len(self.controller.reports) > 8:
            del self.controller.reports[:-2]
        return report, violations


def _compare_reports(
    a: ControllerReport, b: ControllerReport, engines: Tuple[str, str], t: float
) -> List[Violation]:
    """Cross-engine bit-identity of every operator-visible report field."""
    diffs: List[str] = []
    if a.allocations != b.allocations:
        diffs.append("allocations")
    if a.wallets != b.wallets:
        diffs.append("wallets")
    if a.market_initial != b.market_initial:
        diffs.append("market_initial")
    if a.freely_distributed != b.freely_distributed:
        diffs.append("freely_distributed")
    if a.free_shares != b.free_shares:
        diffs.append("free_shares")
    if a.degraded != b.degraded:
        diffs.append("degraded")
    da = {p: (d.estimate_cycles, d.trend, d.case) for p, d in a.decisions.items()}
    db = {p: (d.estimate_cycles, d.trend, d.case) for p, d in b.decisions.items()}
    if da != db:
        diffs.append("decisions")
    if (a.auction is None) != (b.auction is None):
        diffs.append("auction presence")
    elif a.auction is not None:
        if a.auction.purchased != b.auction.purchased:
            diffs.append("auction.purchased")
        if a.auction.market_left != b.auction.market_left:
            diffs.append("auction.market_left")
        if a.auction.rounds != b.auction.rounds:
            diffs.append("auction.rounds")
        if a.auction.spent_per_vm != b.auction.spent_per_vm:
            diffs.append("auction.spent_per_vm")
    if not diffs:
        return []
    return [Violation(
        "engine_identity",
        f"{engines[0]} and {engines[1]} reports differ in: "
        + ", ".join(diffs),
        t=t,
    )]


def replay(
    trace: Trace,
    *,
    engines: Optional[Sequence[str]] = None,
    stop_at_first: bool = True,
    collect_reports: bool = False,
    attach: Optional[Callable[[VirtualFrequencyController, str], None]] = None,
) -> ReplayResult:
    """Replay a trace under one or more engines, oracles armed.

    ``engines`` defaults to the header's ``engine`` selector (see
    :func:`resolve_engines`); with two replicas cross-engine
    bit-identity is checked each tick.
    With ``stop_at_first`` (the default) replay returns at the first
    violating tick — what the shrinker's predicate wants; pass
    ``False`` to collect everything.

    ``attach`` is an optional ``(controller, engine) -> None`` hook
    invoked on every replica controller at construction *and* after
    each ``restart`` event's restore — the wiring point for
    observability hubs and billing engines (which must survive a
    controller crash with their accumulated state intact).
    """
    if engines is None:
        engines = resolve_engines(trace.header.get("engine", "both"))
    engines = tuple(engines)
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
    replicas = [_Replica(trace, engine, attach) for engine in engines]
    violations: List[Violation] = []
    reports: Dict[str, List[ControllerReport]] = {e: [] for e in engines}
    ticks = 0
    for event in trace.events:
        if event.get("kind") != "tick":
            for replica in replicas:
                replica.apply(event)
            continue
        ticks += 1
        t = float(ticks)
        tick_reports = []
        for replica in replicas:
            report, tick_violations = replica.tick(t)
            tick_reports.append(report)
            violations.extend(tick_violations)
            if collect_reports:
                reports[replica.config.engine].append(report)
        if len(tick_reports) >= 2:
            for other, other_report in enumerate(tick_reports[1:], start=1):
                violations.extend(_compare_reports(
                    tick_reports[0], other_report,
                    (engines[0], engines[other]), t,
                ))
        if violations and stop_at_first:
            break
    return ReplayResult(
        ticks=ticks,
        violations=violations,
        engines=engines,
        reports=reports if collect_reports else {},
    )
