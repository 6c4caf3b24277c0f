"""The bulk engine's tick executor: stages 1-6 over a group of hosts.

:class:`BulkExecutor` runs one iteration of several
:class:`~repro.core.controller.VirtualFrequencyController` s that share
one config and one :class:`~repro.core.soa.SlotArena`.  It is the only
implementation of the bulk engine's stages:
``VirtualFrequencyController._tick_bulk`` runs it over its one host, and
:class:`~repro.sim.node_manager.NodeManager` runs it over a whole node
group.  Every host keeps its own controller, config, wallets, market
and report; the executor only decides which work is one array pass over
the group and which stays per host:

* stage 1 (monitoring) is per host: each host reads its own kernel
  surfaces into its own cached :class:`~repro.core.soa.TickView`;
* stage 2 (history + Eq. 3 decisions), the Eq. 4 ``bincount`` and
  Eq. 5 of stage 3, the Eq. 6 sums of stage 4 and stage 6's quota and
  dirty-mask arithmetic are one pass over the concatenated rows;
* the wallet updates of stage 3, the auction of stage 4, stage 5's
  ``proportional_share`` (its ``np.sum`` is pairwise, so a per-host sum
  cannot come out of one segmented pass bit for bit), the cap writes
  of stage 6, report assembly and ``_finish`` stay per host, in host
  order.

Why batching is exact: every batched operation is elementwise per row
(histories, decisions, Eq. 5, quotas), a ``bincount`` over VM ids that
are unique across the arena (each VM's contributions are still added in
its host's sample order), or a per-host sequential sum
(:func:`~repro.core.soa.segment_seqsums`).  A group's reports are
therefore bit-identical to ticking its hosts one by one.

Timings: each host's :class:`~repro.core.timings.StageTimings` holds
its own per-host work plus a share of the batched work in proportion
to its rows, so the hosts' stage timings still sum to the stage's wall
time.

A host whose tick raises (a crashed monitor pass, a failed cap write
or write retry, an invariant violation in ``_finish``) gets its
exception as its outcome; the others finish their iteration.  Its rows
leave the batch at the stage it failed in, so its state changes stop
exactly where its own ``tick()`` would have stopped them.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core import enforcer
from repro.core.auction import AuctionOutcome, run_auction
from repro.core.controller import ControllerReport, VirtualFrequencyController
from repro.core.frame import EMPTY_FRAME, DecisionFrame, unsampled_rows
from repro.core.resilience import fallback_caps
from repro.core.soa import (
    decide_batch,
    gather_free_shares,
    segment_seqsums,
    seqsum,
)
from repro.core.units import cycles_per_period, period_us
from repro.sched.fairshare import proportional_share

__all__ = ["BulkExecutor", "Outcome"]

#: What one host's tick produced: its report or the exception it raised.
Outcome = Union[ControllerReport, BaseException]

_perf = time.perf_counter


class _Host:
    """One host's part of a group tick."""

    __slots__ = ("k", "ctrl", "report", "view", "lo", "hi", "extra", "detail")

    def __init__(self, k: int, ctrl, report: ControllerReport, view,
                 detail: "_Detail") -> None:
        self.k = k
        self.ctrl = ctrl
        self.report = report
        self.view = view
        self.lo = self.hi = 0
        #: Degraded-mode fallbacks of paths with no row this tick.
        self.extra: Dict[str, float] = {}
        self.detail = detail


class _Columns(NamedTuple):
    """The group's per-row decision arrays of one tick (never rewritten)."""

    consumed: np.ndarray
    estimate: np.ndarray
    trend: np.ndarray
    case: np.ndarray
    guarantee: np.ndarray
    base: np.ndarray
    purchased: np.ndarray
    free_share: np.ndarray
    fallback: np.ndarray
    allocation: np.ndarray
    quota: np.ndarray
    reserve_guarantee: bool


class _Detail:
    """One host's lazy report detail: its samples and its frame.

    Holds the tick's stage-1 batch and, once stage 6 is done, a row
    slice of the group's :class:`_Columns`; builds objects only when
    ``report.samples`` / ``report.frame`` are read.
    """

    __slots__ = ("batch", "keep", "view", "cols", "lo", "hi", "tail")

    def __init__(self, view, batch, keep) -> None:
        self.view = view
        self.batch = batch
        self.keep = keep
        self.cols: Optional[_Columns] = None
        self.lo = self.hi = 0
        #: The degraded-only rows (paths with no sample), if any.
        self.tail: Optional[DecisionFrame] = None

    def samples(self):
        return self.batch.to_samples(self.keep)

    def frame(self) -> DecisionFrame:
        c = self.cols
        if c is None:
            return EMPTY_FRAME  # config A: nothing enforced
        lo, hi, view = self.lo, self.hi, self.view
        frame = DecisionFrame(
            path=view.paths, vm=view.vms, vcpu=view.vcpus, vfreq=view.vfreq,
            consumed=c.consumed[lo:hi], estimate=c.estimate[lo:hi],
            trend=c.trend[lo:hi], case=c.case[lo:hi],
            guarantee=c.guarantee[lo:hi], base=c.base[lo:hi],
            purchased=c.purchased[lo:hi], free_share=c.free_share[lo:hi],
            fallback=c.fallback[lo:hi], allocation=c.allocation[lo:hi],
            quota=c.quota[lo:hi], sampled=hi - lo,
            reserve_guarantee=c.reserve_guarantee,
        )
        return frame if self.tail is None else frame.concat(self.tail)


class _Layout:
    """The group's rows, concatenated in host order, and their segments.

    Rebuilt only when some host's view changed (a view is reused tick
    over tick while its host's VM set is stable).
    """

    def __init__(self, views: Sequence) -> None:
        self.keys = [v.rows for v in views]
        counts = [v.rows.size for v in views]
        self.bounds = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        self.bounds_list = self.bounds.tolist()
        self.rows = (
            views[0].rows if len(views) == 1
            else np.concatenate(self.keys)
        )
        self.seg = np.repeat(np.arange(len(views), dtype=np.intp), counts)
        self.col = np.arange(self.rows.size, dtype=np.intp) - self.bounds[self.seg]
        self.width = max(counts, default=0)

    def matches(self, views: Sequence) -> bool:
        keys = self.keys
        return len(keys) == len(views) and all(
            k is v.rows for k, v in zip(keys, views)
        )


def _charge(hosts: List[_Host], stage: str, wall: float,
            own: Optional[List[float]] = None) -> None:
    """Split one stage's wall time over its hosts.

    Each host is charged its own per-host work (``own``) plus a share
    of the rest — the batched passes — in proportion to its rows (an
    even share when no host has rows), so the charges sum to ``wall``.
    """
    if len(hosts) == 1:
        setattr(hosts[0].report.timings, stage, wall)
        return
    shared = wall - (sum(own) if own else 0.0)
    total = sum(h.hi - h.lo for h in hosts)
    for i, h in enumerate(hosts):
        part = (h.hi - h.lo) / total if total else 1.0 / len(hosts)
        seconds = shared * part + (own[i] if own else 0.0)
        setattr(h.report.timings, stage, seconds)


class BulkExecutor:
    """Runs the bulk stages over a group of controllers (see module doc).

    The group's controllers must share one config and one arena.  An
    executor caches the group's row layout between ticks; keep one per
    group.
    """

    def __init__(self) -> None:
        self._layout: Optional[_Layout] = None

    def tick(
        self,
        controllers: Sequence[VirtualFrequencyController],
        t: float,
    ) -> List[Outcome]:
        """One iteration of every controller; one outcome per controller."""
        out: List[Optional[Outcome]] = [None] * len(controllers)
        cfg = controllers[0].config
        arena = controllers[0]._table.arena
        p_us = period_us(cfg.period_s)

        # Stage 1 — monitoring, per host; samples land in table slots.
        hosts: List[_Host] = []
        for k, ctrl in enumerate(controllers):
            report = ControllerReport(t=t)
            t0 = _perf()
            try:
                view, batch, keep = ctrl._bulk_sample()
            except Exception as exc:
                out[k] = exc
                continue
            report.detail = detail = _Detail(view, batch, keep)
            report.timings.monitor = _perf() - t0
            hosts.append(_Host(k, ctrl, report, view, detail))
        if not hosts:
            return out  # type: ignore[return-value]

        # Stage 2 — estimation (histories always updated, as in config A).
        t0 = _perf()
        views = [h.view for h in hosts]
        layout = self._layout
        if layout is None or not layout.matches(views):
            layout = self._layout = _Layout(views)
        bounds = layout.bounds_list
        for i, h in enumerate(hosts):
            h.lo, h.hi = bounds[i], bounds[i + 1]
        rows = layout.rows
        consumed = (
            views[0].consumed if len(views) == 1
            else np.concatenate([v.consumed for v in views])
        )
        arena.observe(rows, consumed)
        if not cfg.control_enabled:
            _charge(hosts, "estimate", _perf() - t0)
            return self._finish(hosts, out)
        estimates, trends, cases = decide_batch(arena, rows, consumed, cfg)
        _charge(hosts, "estimate", _perf() - t0)

        # Stage 3 — credits (Eq. 4) and base capping (Eq. 5).
        t0 = _perf()
        guarantees = arena.guarantee[rows]
        # Eq. 4 per-VM segment reduction: bincount adds contributions in
        # sample order, exactly like the scalar per-VM sums (the masked
        # zeros are exact no-ops).
        contrib = np.where(consumed < guarantees, guarantees - consumed, 0.0)
        gains = np.bincount(
            arena.vm_ids[rows], weights=contrib, minlength=arena.num_vm_ids
        ).tolist()
        marks = [_perf()]
        for h in hosts:
            h.ctrl.ledger.apply_gains(
                (vm, gains[vid]) for vm, vid in h.view.vm_order
            )
            marks.append(_perf())
        base = np.minimum(estimates, guarantees)  # Eq. 5
        if cfg.reserve_guarantee:
            base = np.maximum(base, guarantees)
        alloc = base.copy()
        _charge(hosts, "credits", _perf() - t0, _diffs(marks))

        # Stage 4 — auction (Eq. 6 + Algorithm 1, shared heap version),
        # one market per host.
        t0 = _perf()
        n = len(hosts)
        spent = segment_seqsums(alloc, layout.seg, layout.col, n, layout.width)
        residual = np.minimum(estimates, p_us) - alloc
        purchased = np.zeros(rows.size)
        markets: List[float] = []
        broke: List[bool] = []
        for i, h in enumerate(hosts):
            total_cycles = cycles_per_period(cfg.period_s, h.ctrl.num_cpus)
            market = max(0.0, total_cycles - spent[i])
            # Nobody can pay: run_auction would return empty-handed
            # after scanning every buyer, so its exact result (rounds
            # included) is synthesised below without the per-path dicts.
            markets.append(market)
            broke.append(market > 0 and not h.ctrl.ledger.any_funded())
        if True in broke:
            wanting = np.zeros(n, dtype=bool)
            wanting[layout.seg[residual > 1e-9]] = True
        if False in broke:
            buyers = (estimates > alloc).nonzero()[0]
            buyer_bounds = buyers.searchsorted(layout.bounds).tolist()
            buyers_list = buyers.tolist()
            residual_list = residual.tolist()
        window = cfg.auction_window_frac * p_us
        by_frequency = cfg.auction_priority == "frequency"
        marks = [_perf()]
        for i, h in enumerate(hosts):
            ctrl, view, lo = h.ctrl, h.view, h.lo
            market = markets[i]
            h.report.market_initial = market
            if broke[i]:
                outcome = AuctionOutcome(market_left=market)
                outcome.rounds = 1 if wanting[i] else 0
            else:
                demands = {}
                vm_of = {}
                paths, vms = view.paths, view.vms
                for j in buyers_list[buyer_bounds[i]:buyer_bounds[i + 1]]:
                    path = paths[j - lo]
                    demands[path] = residual_list[j]
                    vm_of[path] = vms[j - lo]
                priorities = (
                    {vm: ctrl._vm_vfreq[vm] for vm, _ in view.vm_order}
                    if by_frequency else None
                )
                outcome = run_auction(
                    market, demands, vm_of, ctrl.ledger, window,
                    priorities=priorities,
                )
                pos = view.pos
                for path, bought in outcome.purchased.items():
                    j = lo + pos[path]
                    purchased[j] = bought
                    alloc[j] += bought
                    residual[j] -= bought
            h.report.auction = outcome
            marks.append(_perf())
        _charge(hosts, "auction", _perf() - t0, _diffs(marks))

        # Stage 5 — free distribution of what each auction could not
        # sell; proportional_share's total is a per-host np.sum.
        t0 = _perf()
        free = np.zeros(rows.size)
        if any(h.report.auction.market_left > 0 for h in hosts):
            needy_all = (residual > 1e-9).nonzero()[0]
            needy_bounds = needy_all.searchsorted(layout.bounds).tolist()
        marks = [_perf()]
        for i, h in enumerate(hosts):
            market_left = h.report.auction.market_left
            if market_left > 0 and needy_bounds[i] < needy_bounds[i + 1]:
                needy = needy_all[needy_bounds[i]:needy_bounds[i + 1]]
                shares = proportional_share(market_left, residual[needy])
                given = shares > 0
                free[needy[given]] = shares[given]
                alloc[needy[given]] += shares[given]
                h.report.freely_distributed = seqsum(shares[given])
                h.report.free_shares = gather_free_shares(
                    h.view.paths, needy, shares, h.lo
                )
            marks.append(_perf())
        _charge(hosts, "distribute", _perf() - t0, _diffs(marks))

        # Stage 6 — apply the capping.
        t0 = _perf()
        np.minimum(alloc, p_us, out=alloc)
        fallback = np.full(rows.size, np.nan)
        for h in hosts:
            ctrl = h.ctrl
            if ctrl.resilience is not None and ctrl._degraded:
                overrides = fallback_caps(
                    ctrl.resilience, ctrl._degraded, ctrl._vm_vfreq,
                    ctrl._current_cap, ctrl.guaranteed_cycles_of, p_us,
                )
                h.report.degraded.update(overrides)
                # One cap per vCPU, as in the scalar dict update: a
                # degraded path that still has a (carried-forward) row
                # takes its fallback in place; only paths with no row
                # are written on top.
                for path, cycles in overrides.items():
                    j = h.view.pos.get(path)
                    if j is None:
                        h.extra[path] = cycles
                    else:
                        alloc[h.lo + j] = cycles
                        fallback[h.lo + j] = cycles
                if h.extra:
                    h.detail.tail = unsampled_rows(ctrl, h.extra)
        quota = enforcer.quota_us_array(alloc, cfg)
        own = self._enforce(hosts, out, arena, layout, alloc, quota)
        cols = _Columns(
            consumed, estimates, trends, cases, guarantees, base, purchased,
            free, fallback, alloc, quota, cfg.reserve_guarantee,
        )
        for h in hosts:
            d = h.detail
            d.cols, d.lo, d.hi = cols, h.lo, h.hi
        # Hosts whose cap writes raised leave the group here.
        kept = [i for i, h in enumerate(hosts) if out[h.k] is None]
        _charge([hosts[i] for i in kept], "enforce", _perf() - t0,
                [own[i] for i in kept])
        return self._finish([hosts[i] for i in kept], out)

    @staticmethod
    def _enforce(
        hosts: List[_Host],
        out: List[Optional[Outcome]],
        arena,
        layout: _Layout,
        alloc: np.ndarray,
        quota: np.ndarray,
    ) -> List[float]:
        """Stage 6's writes through each host's ``write_caps``.

        ``quota`` is ``alloc`` under the quota rule's array form
        (``enforcer.quota_us_array``), and only rows whose quota differs
        from the one known to be in force (``SlotArena.last_quota``) are
        handed to the backend; rows the backend reports as not in force
        (failed or vanished writes) reset to "unknown" (-1) so they are
        rewritten next tick.  The backend's record is dropped outside a
        write only by the controller's ``forget_vcpu``, which releases
        the same paths' slots, and by ``sample_all`` for a recreated
        cgroup, whose slot stage 1 marks -1 (``HostBackend.recreated``),
        so the mask never holds a quota the backend forgot.  A new slot
        starts from the backend's record (``HostBackend.quota_in_force``),
        and a host's degraded-mode fallbacks for paths with no row are
        decided by that record, so the mask is exactly the backend's own
        skip-unchanged decision: one per row, and the backend's direct
        route writes every row handed to it.  Returns each host's own
        time in its write loop.
        """
        cfg = hosts[0].ctrl.config
        rows = layout.rows
        dirty = arena.last_quota[rows] != quota
        alloc_list = alloc.tolist()
        unwritten: List[int] = []
        failed = False
        marks = [_perf()]
        for h in hosts:
            ctrl, view, lo, hi = h.ctrl, h.view, h.lo, h.hi
            paths = view.paths
            quota_h = quota[lo:hi]
            dirty_h = dirty[lo:hi]
            extra_paths = list(h.extra)
            if extra_paths:
                extra_quota = h.detail.tail.quota.tolist()
                paths = paths + extra_paths
                quota_h = np.concatenate([quota_h, h.detail.tail.quota])
                in_force = ctrl.backend.quota_in_force
                dirty_h = np.concatenate([dirty_h, np.array([
                    in_force(p, cfg.enforcement_period_us) != q
                    for p, q in zip(extra_paths, extra_quota)
                ], dtype=bool)])
            allocations = dict(zip(view.paths, alloc_list[lo:hi]))
            allocations.update(h.extra)
            try:
                missed = ctrl.backend.write_caps(
                    paths, quota_h, cfg.enforcement_period_us, dirty_h
                )
                if ctrl.resilience is not None:
                    ctrl._retry_failed_writes(allocations)
            except Exception as exc:
                out[h.k] = exc
                failed = True
                marks.append(_perf())
                continue
            # Commit what actually landed (below, in one pass); missed
            # rows become unknown (-1) so the next tick rewrites them
            # unconditionally.
            n = hi - lo
            unwritten.extend(lo + j for j in missed if j < n)
            ctrl._current_cap.update(allocations)
            table = ctrl._table
            for j, path in enumerate(extra_paths):
                slot = table.slot_of(path)
                if slot is not None:
                    arena.last_quota[slot] = (
                        -1 if n + j in missed else extra_quota[j]
                    )
            h.report.allocations = allocations
            marks.append(_perf())
        if failed:
            # A host whose writes (or write retries) raised commits
            # nothing, as its own tick() would not have.
            keep = np.ones(rows.size, dtype=bool)
            for h in hosts:
                if out[h.k] is not None:
                    keep[h.lo:h.hi] = False
            rows, quota, alloc = rows[keep], quota[keep], alloc[keep]
        # A clean row's quota is already the one in force, so every
        # row takes its quota.
        arena.last_quota[rows] = quota
        if unwritten:
            arena.last_quota[layout.rows[unwritten]] = -1
        arena.set_caps(rows, alloc)
        for h in hosts:
            if out[h.k] is None:
                for path, cycles in h.extra.items():
                    h.ctrl._table.set_cap_path(path, cycles)
        return _diffs(marks)

    @staticmethod
    def _finish(hosts: List[_Host], out: List[Optional[Outcome]]) -> List[Outcome]:
        """Per-host ``_finish`` (observers, oracle, snapshot), in order."""
        for h in hosts:
            try:
                h.ctrl._finish(h.report)
            except Exception as exc:
                out[h.k] = exc
                continue
            out[h.k] = h.report
        return out  # type: ignore[return-value]


def _diffs(marks: List[float]) -> List[float]:
    """Per-host durations from consecutive ``perf_counter`` marks."""
    return [b - a for a, b in zip(marks, marks[1:])]
