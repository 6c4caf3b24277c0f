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

A host whose tick raises (a crashed monitor pass, a failed cap write,
an invariant violation in ``_finish``) gets its exception as its
outcome; the others finish their iteration.  Its rows leave the batch
at the stage it failed in, so its state changes stop exactly where its
own ``tick()`` would have stopped them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.auction import AuctionOutcome, run_auction
from repro.core.controller import ControllerReport, VirtualFrequencyController
from repro.core.enforcer import MIN_QUOTA_US
from repro.core.resilience import fallback_caps
from repro.core.soa import (
    build_decisions,
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

    __slots__ = ("k", "ctrl", "report", "view", "lo", "hi", "extra")

    def __init__(self, k: int, ctrl, report: ControllerReport, view) -> None:
        self.k = k
        self.ctrl = ctrl
        self.report = report
        self.view = view
        self.lo = self.hi = 0
        #: Degraded-mode fallbacks of paths with no row this tick.
        self.extra: Dict[str, float] = {}


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
                report.samples, view = ctrl._bulk_sample()
            except Exception as exc:
                out[k] = exc
                continue
            report.timings.monitor = _perf() - t0
            hosts.append(_Host(k, ctrl, report, view))
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
        own = [0.0] * len(hosts)
        for i, h in enumerate(hosts):
            if h.ctrl._need_detail():
                # The per-path decision objects are report detail only;
                # the stages below consume the arrays directly.
                s = _perf()
                lo, hi = h.lo, h.hi
                h.report.decisions = build_decisions(
                    h.view.paths, estimates[lo:hi], trends[lo:hi], cases[lo:hi]
                )
                own[i] = _perf() - s
        _charge(hosts, "estimate", _perf() - t0, own)

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
        alloc = np.minimum(estimates, guarantees)  # Eq. 5
        if cfg.reserve_guarantee:
            alloc = np.maximum(alloc, guarantees)
        _charge(hosts, "credits", _perf() - t0, _diffs(marks))

        # Stage 4 — auction (Eq. 6 + Algorithm 1, shared heap version),
        # one market per host.
        t0 = _perf()
        n = len(hosts)
        spent = segment_seqsums(alloc, layout.seg, layout.col, n, layout.width)
        residual = np.minimum(estimates, p_us) - alloc
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
                    alloc[j] += bought
                    residual[j] -= bought
            h.report.auction = outcome
            marks.append(_perf())
        _charge(hosts, "auction", _perf() - t0, _diffs(marks))

        # Stage 5 — free distribution of what each auction could not
        # sell; proportional_share's total is a per-host np.sum.
        t0 = _perf()
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
        own = self._enforce(hosts, out, arena, layout, alloc)
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
    ) -> List[float]:
        """Stage 6's writes through each host's ``write_caps``.

        Quotas are scaled exactly like :meth:`Enforcer.quota_us`
        (multiply before divide, banker's rounding, kernel floor), and
        only rows whose quota differs from the one known to be in
        force are handed to the backend.  A moved backend ``cap_epoch``
        (out-of-band cap invalidation) marks every row of that host
        dirty; failed or vanished writes reset to "unknown" (-1) so
        they are rewritten next tick.  A host's degraded-mode
        fallbacks for paths with no row are always handed over.
        Returns each host's own time in its write loop.
        """
        cfg = hosts[0].ctrl.config
        p_us = period_us(cfg.period_s)
        enf = float(cfg.enforcement_period_us)
        quota_f = np.rint(alloc * enf / p_us)
        np.maximum(quota_f, MIN_QUOTA_US, out=quota_f)
        quota = quota_f.astype(np.int64)
        rows = layout.rows
        dirty = arena.last_quota[rows] != quota
        for h in hosts:
            backend = h.ctrl.backend
            if backend.cap_epoch != h.ctrl._cap_epoch_seen:
                dirty[h.lo:h.hi] = True
                h.ctrl._cap_epoch_seen = backend.cap_epoch
        n_dirty = (
            [int(np.count_nonzero(dirty))] if len(hosts) == 1
            else np.bincount(layout.seg[dirty], minlength=len(hosts)).tolist()
        )
        alloc_list = alloc.tolist()
        unwritten: List[int] = []
        failed = False
        marks = [_perf()]
        for i, h in enumerate(hosts):
            ctrl, view, lo, hi = h.ctrl, h.view, h.lo, h.hi
            paths = view.paths
            quota_h = quota[lo:hi]
            dirty_h = dirty[lo:hi]
            extra_paths = list(h.extra)
            if extra_paths:
                extra_quota = [ctrl.enforcer.quota_us(c) for c in h.extra.values()]
                paths = paths + extra_paths
                quota_h = np.concatenate(
                    [quota_h, np.asarray(extra_quota, dtype=np.int64)]
                )
                dirty_h = np.concatenate(
                    [dirty_h, np.ones(len(extra_paths), dtype=bool)]
                )
            try:
                written = ctrl.backend.write_caps(
                    paths, quota_h, cfg.enforcement_period_us, dirty_h
                )
            except Exception as exc:
                out[h.k] = exc
                failed = True
                marks.append(_perf())
                continue
            # Commit what actually landed (below, in one pass); failed
            # or vanished rows become unknown (-1) so the next tick
            # rewrites them unconditionally.
            if len(written) != n_dirty[i] + len(extra_paths):
                for j in dirty[lo:hi].nonzero()[0].tolist():
                    if view.paths[j] not in written:
                        unwritten.append(lo + j)
            allocations = dict(zip(view.paths, alloc_list[lo:hi]))
            allocations.update(h.extra)
            if ctrl.resilience is not None:
                ctrl._retry_failed_writes(allocations)
            ctrl._current_cap.update(allocations)
            table = ctrl._table
            for j, path in enumerate(extra_paths):
                slot = table.slot_of(path)
                if slot is not None:
                    arena.last_quota[slot] = (
                        extra_quota[j] if path in written else -1
                    )
            h.report.allocations = allocations
            marks.append(_perf())
        if failed:
            # A host whose write raised commits nothing, as its own
            # tick() would not have.
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
