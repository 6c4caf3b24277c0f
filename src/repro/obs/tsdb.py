"""In-memory time-series store for the cluster SLO plane.

The observability hub (PR 5) explains a single ``cpu.max`` write and
the shm telemetry lane (PR 8) publishes instantaneous scalars — neither
can answer a *windowed* question ("what fraction of tenant A's
guarantee checks failed over the last hour?").  :class:`SeriesStore`
closes that gap with fixed-capacity float64 rings keyed
``(name, labels)``, one ring per level of a raw → 10-tick → 100-tick
downsample ladder, and windowed queries (:meth:`~SeriesStore.avg`,
:meth:`~SeriesStore.rate`, :meth:`~SeriesStore.quantile`) that pick the
finest level still covering the window.

Everything is deterministic: appends happen at tick boundaries only,
downsampling is a plain mean over a fixed fanout, and queries are pure
functions of the stored values — the property the alert-determinism
suite (``tests/obs/test_slo_transparency.py``) leans on.

Ingest is three-dialect, mirroring how the repo's planes report:

* :meth:`SeriesStore.ingest_report` — one finished tick's
  :class:`~repro.core.frame.DecisionFrame` and the owning controller's
  tenant map, post hoc exactly like the obs hub;
* :meth:`SeriesStore.ingest_node_manager` — an in-process
  :class:`~repro.sim.node_manager.NodeManager` after a barrier tick;
* :meth:`SeriesStore.ingest_shard_reader` — *objectless*: straight off
  a :class:`~repro.sim.shard_telemetry.ShardTelemetryReader`'s mapped
  NumPy blocks in the shm dialect, so the 1000-node steady state never
  touches a dict per node.

The store holds only series a rule or detector reads: per-tenant
guarantee checks, the deadline, revenue and credit counters, per-stage
seconds and backend errors.  Per-node and per-vCPU facts stay in the
controllers' decision ledgers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.timings import STAGES

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.frame import DecisionFrame

#: Canonical series names the SLO plane subscribes to.  One place, so
#: the three ingest dialects and ``slo.py`` can never drift apart.
#: Every name is read by an SLO rule or the anomaly lane; the store
#: appends nothing that no query reads.
S_STAGE_SECONDS = "stage_seconds"                  # {stage} gauge
S_GUARANTEE_BAD = "guarantee_bad_total"            # {tenant} counter
S_GUARANTEE_CHECKS = "guarantee_checks_total"      # {tenant} counter
S_DEADLINE_BAD = "tick_deadline_bad_total"         # {} counter
S_DEADLINE_CHECKS = "tick_deadline_checks_total"   # {} counter
S_BACKEND_ERRORS = "backend_errors_total"          # {source} counter
S_CREDITS_USD = "sla_credits_usd_total"            # {node} counter
S_REVENUE_USD = "revenue_usd_total"                # {node} counter

#: Label tuples are sorted ``(key, value)`` pairs — hashable, ordered.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Series:
    """One metric stream: a raw ring plus its downsample ladder.

    ``levels[0]`` holds the raw per-tick values; ``levels[k]`` holds
    means over ``fanout**k`` consecutive ticks, pushed exactly when the
    accumulator fills — so every level is a pure function of the append
    stream and two runs over identical data are bit-identical.
    """

    __slots__ = (
        "name", "labels", "capacity", "fanout",
        "_bufs", "_counts", "_acc", "_accn", "total",
        "last", "changed", "cumulative",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        *,
        capacity: int = 512,
        fanout: int = 10,
        depth: int = 3,
    ) -> None:
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.name = name
        self.labels = labels
        self.capacity = capacity
        self.fanout = fanout
        self._bufs = [np.zeros(capacity, dtype=np.float64) for _ in range(depth)]
        self._counts = [0] * depth
        self._acc = [0.0] * depth          # partial sums feeding level k+1
        self._accn = [0] * depth
        self.total = 0                     # raw points ever appended
        #: Most recent raw value (0.0 before the first append).
        self.last = 0.0
        #: Raw index of the latest append whose value differed from the
        #: point before it (the first append counts): the ``total -
        #: changed`` newest raw points are all equal.
        self.changed = 0
        #: Running sum of every :meth:`accumulate` delta.
        self.cumulative = 0.0

    def append(self, value: float) -> None:
        v = float(value)
        n = self.total
        if v != self.last:
            self.changed = n
        self.last = v
        bufs = self._bufs
        counts = self._counts
        bufs[0][n % self.capacity] = v
        counts[0] = n + 1
        self.total = n + 1
        # Cascade: a filled accumulator pushes one mean to the next level.
        acc, accn = self._acc, self._accn
        fanout = self.fanout
        for k in range(len(bufs) - 1):
            acc[k] += v
            accn[k] += 1
            if accn[k] < fanout:
                break
            v = acc[k] / fanout
            acc[k] = 0.0
            accn[k] = 0
            m = counts[k + 1]
            bufs[k + 1][m % self.capacity] = v
            counts[k + 1] = m + 1

    def accumulate(self, delta: float) -> float:
        """Add ``delta`` to the running counter and append the new total.

        Ingest sites report per-tick deltas (bad/total counts, credit
        dollars); queries still see a monotone counter to take
        ``increase()`` over.
        """
        total = self.cumulative + delta
        self.cumulative = total
        self.append(total)
        return total

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def _level_for(self, window_ticks: int) -> int:
        """Finest ladder level whose ring still covers the window."""
        level = 0
        span = self.capacity
        while window_ticks > span and level < len(self._bufs) - 1:
            level += 1
            span *= self.fanout
        return level

    def _window(self, window_ticks: int) -> Tuple[int, int, int]:
        """``(level, ticks_per_point, points)`` covering the last window."""
        if window_ticks < 1:
            raise ValueError("window must be >= 1 tick")
        level = self._level_for(window_ticks)
        per_point = self.fanout ** level
        want = -(-window_ticks // per_point)  # ceil division
        return level, per_point, min(self._counts[level], self.capacity, want)

    def tail(self, window_ticks: int) -> Tuple[np.ndarray, int]:
        """``(values, ticks_per_point)`` covering the last window.

        Values come back oldest-first, copied out of the ring.  The
        second element is ``fanout**level`` — how many raw ticks each
        returned point summarizes.
        """
        level, per_point, have = self._window(window_ticks)
        if have == 0:
            return np.empty(0, dtype=np.float64), per_point
        buf = self._bufs[level]
        end = self._counts[level] % self.capacity
        start = (end - have) % self.capacity
        if start < end:
            return buf[start:end].copy(), per_point
        return np.concatenate((buf[start:], buf[:end])), per_point

    def _ends(self, window_ticks: int):
        """``(oldest, newest, points, ticks_per_point)`` of :meth:`tail`,
        read in place from the ring."""
        level, per_point, have = self._window(window_ticks)
        buf, count = self._bufs[level], self._counts[level]
        return (
            buf[(count - have) % self.capacity],
            buf[(count - 1) % self.capacity],
            have,
            per_point,
        )

    # -- windowed queries --------------------------------------------------

    def avg(self, window_ticks: int) -> float:
        values, _ = self.tail(window_ticks)
        if values.size == 0:
            return 0.0
        return float(values.sum() / values.size)

    def rate(self, window_ticks: int) -> float:
        """Per-tick increase over the window (for counter series).

        ``(newest - oldest) / ticks_spanned`` on the finest covering
        level; one point (or none) means no measurable increase yet.
        """
        oldest, newest, points, per_point = self._ends(window_ticks)
        if points < 2:
            return 0.0
        return float((newest - oldest) / ((points - 1) * per_point))

    def increase(self, window_ticks: int) -> float:
        """Total increase over the window (non-negative for counters)."""
        oldest, newest, points, _ = self._ends(window_ticks)
        if points < 2:
            return 0.0
        return float(newest - oldest)

    def quantile(self, q: float, window_ticks: int) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        values, _ = self.tail(window_ticks)
        if values.size == 0:
            return 0.0
        return float(np.quantile(values, q))


class _TenantCodes:
    """Per-row tenant codes of one frame layout (VM list + tenant map).

    Reused tick over tick while the frame's ``vm`` column is the same
    object and the tenant map is unchanged, as the billing meter reuses
    its row keys.  ``names`` is sorted, so code order is tenant order.
    """

    def __init__(self, vm: List[str], tenants: Mapping[str, str]) -> None:
        self.vm = vm
        self.tenants = dict(tenants)
        row_tenants = [tenants.get(name, "default") for name in vm]
        self.names = sorted(set(row_tenants))
        code_of = {tenant: k for k, tenant in enumerate(self.names)}
        self.codes = np.array(
            [code_of[t] for t in row_tenants], dtype=np.intp
        )

    def matches(self, vm: List[str], tenants: Mapping[str, str]) -> bool:
        return vm is self.vm and tenants == self.tenants


class SeriesStore:
    """All series of one plane, keyed ``(name, labels)``."""

    def __init__(
        self,
        *,
        capacity: int = 512,
        fanout: int = 10,
        depth: int = 3,
    ) -> None:
        self.capacity = capacity
        self.fanout = fanout
        self.depth = depth
        self._series: Dict[Tuple[str, LabelSet], Series] = {}
        self._tenant_codes: Optional[_TenantCodes] = None
        #: tenant -> its (bad, checks) guarantee series.
        self._tenant_series: Dict[str, Tuple[Series, Series]] = {}

    # -- series access -----------------------------------------------------

    def series(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Series:
        """The series for ``(name, labels)``, created on first use."""
        key = (name, _labelset(labels))
        found = self._series.get(key)
        if found is None:
            found = Series(
                name, key[1],
                capacity=self.capacity, fanout=self.fanout, depth=self.depth,
            )
            self._series[key] = found
        return found

    def get(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Series]:
        return self._series.get((name, _labelset(labels)))

    def select(self, name: str) -> List[Series]:
        """Every series of one name, across label sets (stable order)."""
        return [s for (n, _), s in self._series.items() if n == name]

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterable[Series]:
        return iter(self._series.values())

    # -- appends -----------------------------------------------------------

    def append(
        self, name: str, value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.series(name, labels).append(value)

    def accumulate(
        self, name: str, delta: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        """:meth:`Series.accumulate` on the ``(name, labels)`` series."""
        return self.series(name, labels).accumulate(delta)

    # -- windowed queries --------------------------------------------------

    def avg(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.avg(window_ticks) if found is not None else 0.0

    def rate(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.rate(window_ticks) if found is not None else 0.0

    def increase(
        self, name: str, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.increase(window_ticks) if found is not None else 0.0

    def quantile(
        self, name: str, q: float, window_ticks: int,
        labels: Optional[Mapping[str, str]] = None,
    ) -> float:
        found = self.get(name, labels)
        return found.quantile(q, window_ticks) if found is not None else 0.0

    # -- ingest: report dialect --------------------------------------------

    def ingest_report(
        self, frame: "DecisionFrame", tenants: Mapping[str, str]
    ) -> Tuple[int, int]:
        """One finished tick, post hoc — the obs-hub dialect.

        ``frame`` is the tick's decision frame.  Every row with a fresh
        sample and a guarantee is one guarantee check for its VM's
        tenant (``tenants``, ``"default"`` when missing), and a miss
        when :meth:`~repro.core.frame.DecisionFrame.missed` holds — the
        billing meter's SLA-shortfall criterion.  Returns ``(bad,
        total)`` summed over tenants, mostly for tests.
        """
        checked = ~(np.isnan(frame.consumed) | np.isnan(frame.guarantee))
        if not checked.any():
            return 0, 0
        missed = frame.missed() & checked
        keys = self._tenant_codes
        if keys is None or not keys.matches(frame.vm, tenants):
            keys = self._tenant_codes = _TenantCodes(frame.vm, tenants)
        width = len(keys.names)
        total_by_code = np.bincount(keys.codes[checked], minlength=width)
        bad_by_code = np.bincount(keys.codes[missed], minlength=width)
        pairs = self._tenant_series
        bad = total = 0
        # Codes follow sorted tenant order; a tenant's pair is created
        # on its first checked tick, bad before checks.
        for k in np.flatnonzero(total_by_code).tolist():
            tenant = keys.names[k]
            pair = pairs.get(tenant)
            if pair is None:
                labels = {"tenant": tenant}
                pair = pairs[tenant] = (
                    self.series(S_GUARANTEE_BAD, labels),
                    self.series(S_GUARANTEE_CHECKS, labels),
                )
            nb = int(bad_by_code[k])
            nt = int(total_by_code[k])
            pair[0].accumulate(float(nb))
            pair[1].accumulate(float(nt))
            bad += nb
            total += nt
        return bad, total

    def ingest_backend_stats(
        self, stats, *, source: str = "node-0"
    ) -> None:
        """Cumulative backend counters -> the error counter series."""
        d = stats.as_dict()
        errors = float(d.get("read_errors", 0) + d.get("write_errors", 0))
        self.append(S_BACKEND_ERRORS, errors, {"source": source})

    # -- ingest: node-manager dialect --------------------------------------

    def ingest_node_manager(
        self, manager, *, deadline_s: Optional[float] = None
    ) -> None:
        """A barrier tick of an in-process :class:`~repro.sim.node_manager.NodeManager`.

        The guarantee checks arrive through :meth:`ingest_report`; this
        adds the cluster series.  The deadline counter compares each
        node's stage total in ``last_reports`` (the nodes that ticked
        this barrier) against ``deadline_s`` when given.
        """
        reports = manager.last_reports.values()
        if deadline_s is not None and reports:
            bad = sum(1 for r in reports if r.timings.total > deadline_s)
            self.accumulate(S_DEADLINE_BAD, float(bad))
            self.accumulate(S_DEADLINE_CHECKS, float(len(reports)))
        timings = manager.aggregate_timings()
        for stage in STAGES:
            self.append(
                S_STAGE_SECONDS, getattr(timings, stage), {"stage": stage}
            )
        self.ingest_backend_stats(manager.backend_stats(), source="cluster")

    # -- ingest: shm dialect -----------------------------------------------

    def ingest_shard_reader(
        self, reader, *, shard: str = "shard-0",
        deadline_s: Optional[float] = None,
    ) -> Optional[BaseException]:
        """One shard's published tick, straight off the mapped arrays.

        Objectless by construction: per-node tick seconds are a single
        vectorized row-sum over the stage columns, counted against the
        deadline without per-node objects, dicts, or report
        materialization.  Uses the seqlock snapshot so a concurrently
        publishing writer can never tear the rows mid-read.

        A shard whose snapshot stays torn through every retry (its
        writer died mid-publish) is skipped: none of its series are
        appended, every node of its catalog counts as a missed
        deadline, and the :class:`~repro.sim.shard_telemetry.
        TornSnapshotError` is returned instead of raised, so one wedged
        shard cannot take down the cluster scrape.  Returns ``None``
        when the shard was ingested.
        """
        from repro.sim.shard_telemetry import BACKEND_FIELDS, TornSnapshotError

        try:
            node_ids, nodes, backend, _invariants = reader.stable_snapshot()
        except TornSnapshotError as exc:
            if deadline_s is not None and reader.node_ids:
                failed = float(len(reader.node_ids))
                self.accumulate(S_DEADLINE_BAD, failed)
                self.accumulate(S_DEADLINE_CHECKS, failed)
            return exc
        if not node_ids:
            return None
        stage_sums = nodes[:, 0:6].sum(axis=0)
        for k, stage in enumerate(STAGES):
            self.append(
                S_STAGE_SECONDS, float(stage_sums[k]),
                {"stage": stage, "shard": shard},
            )
        if deadline_s is not None:
            per_node_seconds = nodes[:, 0:6].sum(axis=1)
            bad = int(np.count_nonzero(per_node_seconds > deadline_s))
            self.accumulate(S_DEADLINE_BAD, float(bad))
            self.accumulate(S_DEADLINE_CHECKS, float(len(node_ids)))
        # Backend counters: reader order follows BACKEND_FIELDS; errors
        # are the two *_errors fields (kept in sync with
        # ingest_backend_stats via the shared field names).
        errors = 0.0
        for field, value in zip(BACKEND_FIELDS, backend.tolist()):
            if field.endswith("_errors"):
                errors += value
        self.append(S_BACKEND_ERRORS, errors, {"source": shard})
        return None

    # -- ingest: attachments -----------------------------------------------

    def ingest_billing(self, engine, tick: int, *, node: str = "node-0") -> None:
        """One metered tick's revenue / SLA-credit dollars.

        ``tick`` is the meter's 1-based control tick (the billing
        engine meters ``tick + 1`` from the 0-based ``_finish`` count,
        so a controller's last metered tick is its tick count once
        ``_finish`` returns).
        Deltas accumulate into monotone counters — deterministic
        because metering itself is (the billing-oracle contract).
        """
        meter = engine.meter
        labels = {"node": node}
        self.accumulate(S_REVENUE_USD, meter.tick_revenue.get(tick, 0.0), labels)
        self.accumulate(S_CREDITS_USD, meter.tick_credits.get(tick, 0.0), labels)
