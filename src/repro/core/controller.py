"""The virtual frequency controller — six stages tied together.

One :meth:`VirtualFrequencyController.tick` is one iteration of the
paper's Fig. 2 loop.  The controller talks to the host exclusively
through one :class:`~repro.core.backend.HostBackend` — the batched
facade over the kernel surfaces (cgroupfs / procfs / sysfs) — plus a
registry of VM guarantees (on a real host: the template's virtual
frequency from the provisioning layer).  It implements the shared
:class:`~repro.core.api.Controller` protocol.

Configuration A (the paper's baseline) is the same object with
``config.control_enabled = False``: the monitoring stage runs — its cost
is part of both configurations, §IV-A2 — but stages 3-6 are skipped and
vCPUs stay uncapped.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cgroups.fs import CgroupFS
from repro.cgroups.procfs import ProcFS
from repro.cgroups.sysfs import CpuFreqSysFS
from repro.core.auction import AuctionOutcome, compute_market, run_auction
from repro.core.backend import HostBackend, vm_component
from repro.core.config import ControllerConfig
from repro.core.credits import CreditLedger, apply_base_capping
from repro.core.distribute import distribute_leftovers
from repro.core.enforcer import Enforcer
from repro.core.estimator import EstimatorDecision, TrendEstimator
from repro.core.monitor import Monitor, VCpuSample
from repro.core.resilience import (
    DegradedVcpu,
    ResiliencePolicy,
    ResilienceStats,
    fallback_caps,
)
from repro.core.soa import SlotArena, VcpuTable
from repro.core.timings import StageTimings
from repro.core.units import cycles_per_period, guaranteed_cycles, period_us
from repro.obs.logging import get_logger

import numpy as np

log = get_logger("repro.controller")

#: Billing owner assigned to VMs registered without an explicit tenant.
DEFAULT_TENANT = "default"


@dataclass
class ControllerReport:
    """Everything one iteration observed and decided."""

    t: float
    samples: List[VCpuSample] = field(default_factory=list)
    decisions: Dict[str, EstimatorDecision] = field(default_factory=dict)
    allocations: Dict[str, float] = field(default_factory=dict)
    market_initial: float = 0.0
    auction: Optional[AuctionOutcome] = None
    freely_distributed: float = 0.0
    wallets: Dict[str, float] = field(default_factory=dict)
    timings: StageTimings = field(default_factory=StageTimings)
    #: Degraded-mode fallback caps applied this tick (path -> cycles);
    #: empty without a resilience policy or when all vCPUs are healthy.
    degraded: Dict[str, float] = field(default_factory=dict)
    #: Stage-5 free-distribution shares granted this tick (path ->
    #: cycles > 0).  Part of the cross-engine comparison surface and
    #: the decision ledger's per-write provenance.
    free_shares: Dict[str, float] = field(default_factory=dict)

    def vfreq_by_vm(self) -> Dict[str, float]:
        """Average estimated virtual frequency per VM (for Figs. 6-9)."""
        sums: Dict[str, List[float]] = {}
        for s in self.samples:
            sums.setdefault(s.vm_name, []).append(s.vfreq_mhz)
        return {vm: sum(v) / len(v) for vm, v in sums.items()}


class VirtualFrequencyController:
    """Per-node controller instance."""

    def __init__(
        self,
        fs,
        procfs: Optional[ProcFS] = None,
        sysfs: Optional[CpuFreqSysFS] = None,
        *,
        num_cpus: int,
        fmax_mhz: float,
        config: Optional[ControllerConfig] = None,
        machine_slice: str = "/machine.slice",
        backend: Optional[HostBackend] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.config = config or ControllerConfig.paper_evaluation()
        if backend is None:
            if isinstance(fs, HostBackend):
                backend = fs
            elif self.config.fault_plan_path:
                # Import deferred: repro.faults imports the backend seam.
                from repro.faults import FaultInjector, FaultPlan

                backend = FaultInjector(
                    FaultPlan.load(self.config.fault_plan_path),
                    fs, procfs, sysfs, machine_slice=machine_slice,
                )
            else:
                backend = HostBackend(
                    fs, procfs, sysfs, machine_slice=machine_slice
                )
        self.backend = backend
        self.fs = backend.fs
        self.machine_slice = backend.machine_slice
        self.num_cpus = num_cpus
        self.fmax_mhz = fmax_mhz
        #: Degraded-mode defenses; ``None`` keeps the seed fail-fast
        #: behaviour (faults at the backend seam raise out of tick()).
        self.resilience = (
            resilience if resilience is not None else self.config.resilience
        )
        self.resilience_stats = ResilienceStats()
        if self.resilience is not None:
            backend.tolerate_errors = True
        self.monitor = Monitor(
            backend,
            period_s=self.config.period_s,
            stale_max_age=(
                self.resilience.stale_sample_max_age if self.resilience else 0
            ),
        )
        self.estimator = TrendEstimator(self.config)
        self.ledger = CreditLedger(self.config)
        self.enforcer = Enforcer(backend, self.config)
        self._vm_vfreq: Dict[str, float] = {}
        #: Billing owner per VM.  Purely descriptive metadata: no stage
        #: reads it, so tenancy can never perturb allocation decisions.
        self._vm_tenant: Dict[str, str] = {}
        #: Eq. 2 guarantees cached per VM at registration — the formula
        #: is pure in ``period_s * vfreq / fmax``, all fixed between
        #: (re-)registrations, so stage 3 never recomputes it per sample.
        self._guarantee: Dict[str, float] = {}
        #: Structure-of-arrays state for the bulk engine (None on the
        #: scalar oracle path).
        self._table: Optional[VcpuTable] = (
            VcpuTable(self.config.history_len)
            if self.config.engine == "bulk"
            else None
        )
        #: Bumped on every registry mutation; part of the bulk view
        #: cache key (a stable backend batch + an unchanged registry
        #: means the gathered TickView can be reused as-is).
        self._registry_version = 0
        self._bulk_cache = None
        #: The bulk engine's one-host executor (built on first tick).
        self._executor = None
        self._cap_epoch_seen = backend.cap_epoch
        self._current_cap: Dict[str, float] = {}
        self._degraded: Dict[str, DegradedVcpu] = {}
        self._tick_count = 0
        self.reports: List[ControllerReport] = []
        self.keep_reports: bool = True
        #: Inline paper-equation oracle (``config.check_invariants``);
        #: ``None`` when disabled.  Import deferred: repro.checking
        #: imports this module.
        self.invariant_checker = None
        if self.config.check_invariants:
            from repro.checking.invariants import InvariantChecker

            self.invariant_checker = InvariantChecker(self)
        if self.config.snapshot_path and os.path.exists(self.config.snapshot_path):
            # Crash recovery: a restarting controller resumes from the
            # last periodic snapshot instead of forgetting every wallet
            # and history (import deferred: snapshot imports this module).
            from repro.core.snapshot import from_json

            with open(self.config.snapshot_path) as fh:
                from_json(self, fh.read())
            log.info("restored controller state from snapshot %s",
                     self.config.snapshot_path)
        #: ``(report, rows)`` of the latest tick, filled on first use by
        #: :func:`repro.obs.ledger.decision_rows` so the tick observers
        #: share one per-vCPU walk.
        self._decision_rows = None
        #: Observability hub (spans + ledger + flight recorder); ``None``
        #: keeps the tick path at one attribute check.  Attach later at
        #: runtime with ``Observability.attach(controller, cfg)`` too.
        self.obs = None
        if self.config.observability is not None:
            from repro.obs.hub import Observability

            Observability.attach(self, self.config.observability)
        #: Billing engine (``repro.billing.BillingEngine``); ``None``
        #: keeps the tick path at one attribute check, and the hard
        #: transparency contract is that attaching one never changes a
        #: report or ledger byte.
        self.billing = None
        #: SLO/alerting plane (``repro.obs.slo.SLOPlane``); same deal:
        #: one attribute check when absent, pure observer when present.
        #: Attach declaratively via ``ObsConfig.slo`` or at runtime with
        #: ``SLOPlane.attach(controller)``.
        self.slo = None
        if (
            self.config.observability is not None
            and self.config.observability.slo is not None
        ):
            from repro.obs.slo import SLOPlane

            SLOPlane.attach(self, self.config.observability.slo)

    @property
    def period_s(self) -> float:
        """Control-loop period (the shared Controller protocol surface)."""
        return self.config.period_s

    # -- VM registry ------------------------------------------------------------

    def register_vm(
        self,
        vm_name: str,
        vfreq_mhz: float,
        *,
        tenant: Optional[str] = None,
    ) -> None:
        """Declare a hosted VM's guaranteed virtual frequency.

        ``tenant`` names the billing owner; ``None`` preserves an
        existing assignment (so ``set_vfreq`` re-registration keeps it)
        and defaults fresh VMs to :data:`DEFAULT_TENANT`.
        """
        if vfreq_mhz <= 0:
            raise ValueError("vfreq must be positive")
        if vfreq_mhz > self.fmax_mhz:
            raise ValueError(
                f"guarantee {vfreq_mhz} MHz exceeds host F_MAX {self.fmax_mhz} MHz"
            )
        self._vm_vfreq[vm_name] = vfreq_mhz
        if tenant is not None:
            self._vm_tenant[vm_name] = tenant
        elif vm_name not in self._vm_tenant:
            self._vm_tenant[vm_name] = DEFAULT_TENANT
        self._guarantee[vm_name] = guaranteed_cycles(
            self.config.period_s, vfreq_mhz, self.fmax_mhz
        )
        if self._table is not None:
            # A re-registration (set_vfreq) must refresh live slots too.
            self._table.set_vm_guarantee(vm_name, self._guarantee[vm_name])
        self._registry_version += 1
        # VM churn invalidates the backend's cached cgroup topology.
        self.backend.invalidate()

    def set_vfreq(self, vm_name: str, vfreq_mhz: float) -> None:
        """Reconfigure a running VM's guaranteed virtual frequency.

        This is the "dynamic" in the paper's title taken literally: the
        customer can re-negotiate QoS without restarting the VM — the new
        ``C_i`` (Eq. 2) takes effect at the next iteration.
        """
        if vm_name not in self._vm_vfreq:
            raise KeyError(f"VM not registered: {vm_name}")
        self.register_vm(vm_name, vfreq_mhz)

    def unregister_vm(self, vm_name: str) -> None:
        self._vm_vfreq.pop(vm_name, None)
        self._vm_tenant.pop(vm_name, None)
        self._guarantee.pop(vm_name, None)
        if self._table is not None:
            self._table.release_vm(vm_name)
        self.ledger.forget(vm_name)
        # Match on the parsed VM path component, not a substring — a
        # substring test would let "vm-1" also claim "foo/vm-1/..."
        # nested names.
        matches = [
            p
            for p in self._current_cap
            if vm_component(p, self.machine_slice) == vm_name
        ]
        for path in matches:
            self._current_cap.pop(path, None)
            self.estimator.forget(path)
            self.monitor.forget(path)
            self.backend.forget_vcpu(path)
        for path in list(self._degraded):
            if vm_component(path, self.machine_slice) == vm_name:
                del self._degraded[path]
                self.monitor.forget(path)
        self._registry_version += 1
        self.backend.invalidate()

    def reset(self) -> None:
        """Drop all per-VM dynamic state, keeping configuration.

        This is the precondition for a safe snapshot restore onto a
        non-fresh instance: wallets, histories, caps, usage baselines
        and degraded-mode tracking are cleared (iteration reports are
        operational history and are kept).
        """
        for path in list(self._current_cap):
            self.backend.forget_vcpu(path)
        self._vm_vfreq.clear()
        self._vm_tenant.clear()
        self._guarantee.clear()
        if self._table is not None:
            self._table.clear()
        self._current_cap.clear()
        self._degraded.clear()
        self.ledger.clear()
        self.estimator.reset()
        self.monitor.reset()
        self._registry_version += 1
        self._bulk_cache = None
        self.backend.invalidate()
        if self.invariant_checker is not None:
            self.invariant_checker.resync()

    def guaranteed_cycles_of(self, vm_name: str) -> float:
        """``C_i`` for one vCPU of the named VM (Eq. 2, cached)."""
        return self._guarantee[vm_name]

    # -- engine-agnostic history access (snapshot schema) -----------------------

    def histories(self) -> Dict[str, List[float]]:
        """Per-vCPU consumption windows, oldest first, keyed by path."""
        if self._table is not None:
            return self._table.histories()
        return {
            path: list(hist)
            for path, hist in self.estimator._history.items()
        }

    def load_history(self, path: str, values: List[float]) -> None:
        """Replace one vCPU's window (snapshot restore), either engine."""
        if self._table is not None:
            vm_name = vm_component(path, self.machine_slice)
            if vm_name is None or vm_name not in self._guarantee:
                raise KeyError(f"history for unregistered VM path: {path}")
            self._table.ensure_slot(
                path, vm_name, self._guarantee[vm_name],
                self._current_cap.get(path),
            )
            self._table.load_history(path, values)
        else:
            for value in values:
                self.estimator.observe(path, float(value))

    # -- the control loop ----------------------------------------------------------

    def tick(self, t: float) -> ControllerReport:
        """One full iteration of the feedback loop at simulation time ``t``.

        Dispatches to the engine selected by ``config.engine``: the
        bulk structure-of-arrays fast path (default) or the per-vCPU
        scalar oracle.  Both produce bit-identical reports.
        """
        if self.obs is None:
            if self._table is not None:
                return self._tick_bulk(t)
            return self._tick_scalar(t)
        try:
            if self._table is not None:
                return self._tick_bulk(t)
            return self._tick_scalar(t)
        except Exception as exc:
            self.tick_failed(exc)
            raise

    def tick_failed(self, exc: BaseException) -> None:
        """Flight-recorder hook for a tick that raised ``exc``.

        :meth:`tick` calls it on the way out; a node manager that ran
        this controller in a batched group calls it for the same effect.
        """
        if self.obs is None:
            return
        from repro.checking.invariants import InvariantViolationError

        if not isinstance(exc, InvariantViolationError):
            # Violations dump in _finish (the failing report is in
            # the ring by then); everything else — e.g. an injected
            # ControllerCrash — dumps here on the way out.
            self.obs.on_tick_error(self, exc, self._tick_count)

    def _tick_scalar(self, t: float) -> ControllerReport:
        """The per-vCPU reference implementation (``engine="scalar"``)."""
        cfg = self.config
        p_us = period_us(cfg.period_s)
        report = ControllerReport(t=t)

        # Stage 1 — monitoring.
        t0 = time.perf_counter()
        samples = [s for s in self.monitor.sample() if s.vm_name in self._vm_vfreq]
        if self.resilience is not None:
            self._update_health(samples)
        report.samples = samples
        report.timings.monitor = time.perf_counter() - t0

        # Stage 2 — estimation (history always updated, even in config A,
        # so enabling control mid-run has warm state).
        t0 = time.perf_counter()
        for s in samples:
            self.estimator.observe(s.cgroup_path, s.consumed_cycles)
        if not cfg.control_enabled:
            report.timings.estimate = time.perf_counter() - t0
            self._finish(report)
            return report
        decisions: Dict[str, EstimatorDecision] = {}
        for s in samples:
            cap = self._current_cap.get(s.cgroup_path, p_us)
            decisions[s.cgroup_path] = self.estimator.decide(s.cgroup_path, cap)
        report.decisions = decisions
        report.timings.estimate = time.perf_counter() - t0

        # Stage 3 — credits (Eq. 4) and base capping (Eq. 5).
        t0 = time.perf_counter()
        consumed_by_vm: Dict[str, List[float]] = {}
        vm_of: Dict[str, str] = {}
        guarantees: Dict[str, float] = {}
        for s in samples:
            consumed_by_vm.setdefault(s.vm_name, []).append(s.consumed_cycles)
            vm_of[s.cgroup_path] = s.vm_name
            guarantees[s.cgroup_path] = self.guaranteed_cycles_of(s.vm_name)
        for vm_name, consumed in consumed_by_vm.items():
            self.ledger.accrue(
                vm_name, consumed, self.guaranteed_cycles_of(vm_name)
            )
        estimates = {path: d.estimate_cycles for path, d in decisions.items()}
        base = apply_base_capping(estimates, guarantees)
        allocations = {path: b.cycles for path, b in base.items()}
        if cfg.reserve_guarantee:
            # Extension: pin the floor at C_i so a waking vCPU never
            # ramps from below its guarantee (waste-for-SLA trade).
            for path in allocations:
                allocations[path] = max(allocations[path], guarantees[path])
        report.timings.credits = time.perf_counter() - t0

        # Stage 4 — auction (Eq. 6 + Algorithm 1).
        t0 = time.perf_counter()
        total_cycles = cycles_per_period(cfg.period_s, self.num_cpus)
        market = compute_market(total_cycles, allocations)
        report.market_initial = market
        residual = {
            path: min(estimates[path], p_us) - allocations[path]
            for path in allocations
            if estimates[path] > allocations[path]
        }
        window = cfg.auction_window_frac * p_us
        priorities = (
            {vm: self._vm_vfreq[vm] for vm in consumed_by_vm}
            if cfg.auction_priority == "frequency"
            else None
        )
        outcome = run_auction(
            market, residual, vm_of, self.ledger, window, priorities=priorities
        )
        for path, bought in outcome.purchased.items():
            allocations[path] += bought
            residual[path] -= bought
        report.auction = outcome
        report.timings.auction = time.perf_counter() - t0

        # Stage 5 — free distribution of what the auction could not sell.
        t0 = time.perf_counter()
        leftovers = distribute_leftovers(outcome.market_left, residual)
        for path, extra in leftovers.items():
            allocations[path] += extra
        report.freely_distributed = sum(leftovers.values())
        report.free_shares = leftovers
        report.timings.distribute = time.perf_counter() - t0

        # Stage 6 — apply the capping.
        t0 = time.perf_counter()
        for path in allocations:
            allocations[path] = min(allocations[path], p_us)
        if self.resilience is not None and self._degraded:
            overrides = fallback_caps(
                self.resilience, self._degraded, self._vm_vfreq,
                self._current_cap, self.guaranteed_cycles_of, p_us,
            )
            allocations.update(overrides)
            report.degraded.update(overrides)
        self.enforcer.apply(allocations)
        if self.resilience is not None:
            self._retry_failed_writes(allocations)
        self._current_cap.update(allocations)
        report.allocations = allocations
        report.timings.enforce = time.perf_counter() - t0

        self._finish(report)
        return report

    def _tick_bulk(self, t: float) -> ControllerReport:
        """Structure-of-arrays fast path (``engine="bulk"``).

        The one-host case of :class:`repro.core.bulk.BulkExecutor`,
        which also runs whole node groups for
        :class:`~repro.sim.node_manager.NodeManager`; see
        :mod:`repro.core.soa` for why every array is gathered in sample
        order and how reductions keep the scalar engine's operation
        order (and therefore its exact bits).
        """
        if self._executor is None:
            # Import deferred: repro.core.bulk imports this module.
            from repro.core.bulk import BulkExecutor

            self._executor = BulkExecutor()
        outcome = self._executor.tick([self], t)[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def use_arena(self, arena: Optional[SlotArena]) -> None:
        """Move the bulk engine's per-vCPU state into ``arena``.

        ``None`` gives the controller a private arena again.  A node
        manager shares one arena across its serial node group so the
        group's stages run as single array passes; the values move
        unchanged, so no report changes.
        """
        table = self._table
        if table is None or (arena is not None and table.arena is arena):
            return
        table.move_to(arena or SlotArena(table.history_len))
        self._bulk_cache = None

    # -- bulk-array engine helpers ------------------------------------------------

    def _need_detail(self) -> bool:
        """Whether anything downstream consumes ``report.samples`` and
        ``report.decisions`` (kept reports or any tick observer)."""
        return (
            self.keep_reports
            or self.obs is not None
            or self.billing is not None
            or self.slo is not None
            or self.invariant_checker is not None
        )

    def _bulk_sample(self):
        """Bulk stage 1: this tick's samples and their :class:`TickView`.

        Goes through :meth:`HostBackend.sample_all`.  While the backend
        batch keeps the same slot order (``paths`` is the identical list
        object) and the VM registry is unchanged, the gathered view is
        reused with only its ``consumed`` column swapped — the
        steady-state tick carries no per-vCPU Python work at all.
        Per-sample objects are only materialised when
        :meth:`_need_detail` says something consumes them.
        Stale-sample carry-forward is inherently per-path, so an active
        resilience policy keeps the list-based monitor.
        """
        table = self._table
        if self.resilience is not None:
            samples = [
                s for s in self.monitor.sample() if s.vm_name in self._vm_vfreq
            ]
            view = table.ingest(
                samples, self._guarantee.__getitem__, self._current_cap
            )
            self._update_health(samples)
            return samples, view
        batch = self.backend.sample_all(self.config.period_s)
        cache = self._bulk_cache
        if (
            cache is not None
            and cache[0] is batch.paths
            and cache[1] == self._registry_version
        ):
            keep, view = cache[2], cache[3]
            view.consumed = (
                batch.consumed if keep is None else batch.consumed[keep]
            )
            samples = batch.to_samples(keep) if self._need_detail() else []
            return samples, view
        # View (re)build: same filter + gather as the list-based path.
        samples_all = batch.to_samples()
        registered = self._vm_vfreq
        keep_idx = [
            i for i, s in enumerate(samples_all) if s.vm_name in registered
        ]
        if len(keep_idx) == len(samples_all):
            samples = samples_all
            keep = None
        else:
            samples = [samples_all[i] for i in keep_idx]
            keep = np.asarray(keep_idx, dtype=np.intp)
        view = table.ingest(
            samples, self._guarantee.__getitem__, self._current_cap
        )
        self._bulk_cache = (batch.paths, self._registry_version, keep, view)
        return samples, view

    # -- degraded-mode resilience -------------------------------------------------

    def _update_health(self, samples: List[VCpuSample]) -> None:
        """Track per-vCPU observability; enter/leave degraded mode.

        Called once per tick, right after monitoring, only when a
        :class:`ResiliencePolicy` is active.
        """
        policy = self.resilience
        stats = self.resilience_stats
        stats.stale_samples_used += self.monitor.last_carried
        missing = self.monitor.missing_ages()
        if (
            not samples
            and self._vm_vfreq
            and missing
            and all(age > 0 for age in missing.values())
        ):
            stats.monitor_failures += 1
        # Recoveries first: a path observed again this tick has no
        # missing-age entry any more.
        for path in list(self._degraded):
            if path not in missing:
                rec = self._degraded.pop(path)
                stats.recoveries += 1
                stats.last_recovery_ticks = self._tick_count - rec.since_tick
                log.info(
                    "vcpu recovered after %d tick(s) degraded",
                    stats.last_recovery_ticks,
                    extra={"path": path, "tick": self._tick_count},
                )
        for path, age in missing.items():
            if age < policy.degraded_after_ticks or path in self._degraded:
                continue
            vm_name = vm_component(path, self.machine_slice)
            if vm_name not in self._vm_vfreq:
                continue
            self._degraded[path] = DegradedVcpu(
                cgroup_path=path, vm_name=vm_name, since_tick=self._tick_count
            )
            stats.degraded_transitions += 1
            log.warning(
                "vcpu unobservable for %d tick(s): entering degraded mode",
                age,
                extra={"path": path, "vm": vm_name, "tick": self._tick_count},
            )
        stats.degraded_vcpu_ticks += len(self._degraded)

    def _retry_failed_writes(self, allocations: Dict[str, float]) -> None:
        """Bounded retry-with-backoff for transiently failed cap writes."""
        policy = self.resilience
        stats = self.resilience_stats
        failed = dict(self.backend.last_write_errors)
        for attempt in range(1, policy.write_retries + 1):
            if not failed:
                return
            stats.write_retries += len(failed)
            if policy.write_backoff_s:
                time.sleep(policy.write_backoff_s * attempt)
            retry = {p: allocations[p] for p in failed if p in allocations}
            self.enforcer.apply(retry)
            failed = dict(self.backend.last_write_errors)
        stats.write_failures += len(failed)
        if failed:
            log.warning(
                "%d cap write(s) still failing after %d retries",
                len(failed), policy.write_retries,
                extra={"paths": sorted(failed), "tick": self._tick_count},
            )

    @property
    def degraded_vcpus(self) -> int:
        """vCPUs currently held at their degraded-mode fallback cap."""
        return len(self._degraded)

    def _finish(self, report: ControllerReport) -> None:
        report.wallets = self.ledger.wallets()
        if self.obs is not None:
            # Before the oracle check, so a violating tick is already in
            # the flight ring (and ledger) when the dump fires.
            self.obs.on_tick(self, report, self._tick_count)
        if self.billing is not None:
            # After obs, so the ledger entry the oracle audits against
            # exists before the tick is metered.
            self.billing.on_tick(self, report, self._tick_count)
        if self.slo is not None:
            # After billing, so this tick's credit dollars are already
            # metered when the credit-burn SLO ingests them.
            self.slo.on_tick(self, report, self._tick_count)
        if self.invariant_checker is not None:
            violations = self.invariant_checker.check(report)
            if violations:
                from repro.checking.invariants import InvariantViolationError

                if self.obs is not None:
                    self.obs.on_violation(
                        self, report, violations, self._tick_count
                    )
                raise InvariantViolationError(violations)
        if self.keep_reports:
            self.reports.append(report)
        self._tick_count += 1
        cfg = self.config
        if cfg.snapshot_path and self._tick_count % cfg.snapshot_every_ticks == 0:
            from repro.core.snapshot import to_json

            with open(cfg.snapshot_path, "w") as fh:
                fh.write(to_json(self))

    # -- reporting helpers ----------------------------------------------------------

    def mean_iteration_seconds(self) -> float:
        """Average wall-clock cost of an iteration (§IV-A2 overhead)."""
        if not self.reports:
            return 0.0
        return sum(r.timings.total for r in self.reports) / len(self.reports)
