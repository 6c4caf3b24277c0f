"""One tick's decisions as columns: the :class:`DecisionFrame`.

Every controller tick emits one frame (``ControllerReport.frame``): the
per-vCPU causal chain of the paper's pipeline, one row per enforced
allocation, in *ledger row order* — the sampled rows that got an
allocation first (sample order), then the degraded-only paths that were
enforced without a fresh sample.

=================  ==========  =============================================
column             type        meaning (absent value)
=================  ==========  =============================================
``path``           list[str]   vCPU cgroup path
``vm``             list[str]   owning VM
``vcpu``           int64       vCPU index
``vfreq``          list        the VM's registered vfreq (``None``)
``consumed``       float64     ``u_{i,j,t}``, stage 1 (NaN: not sampled)
``estimate``       float64     ``e_{i,j,t}``, Eq. 3 (NaN)
``trend``          float64     Eq. 3 slope (NaN)
``case``           int8        index into :data:`CASES` (-1)
``guarantee``      float64     ``C_i``, Eq. 2 (NaN: VM unregistered)
``base``           float64     Eq. 5 base cap (NaN)
``purchased``      float64     auction cycles won (Alg. 1)
``free_share``     float64     stage-5 free-distribution share
``fallback``       float64     degraded-mode override (NaN: healthy)
``allocation``     float64     the cycles enforced
``quota``          int64       the ``cpu.max`` quota they scale to
=================  ==========  =============================================

``sampled`` counts the leading sampled rows.  The bulk engine fills a
frame from slices of the arrays its stages already hold; the scalar
engine fills it from its per-path dicts and is the reference (the two
are bit-identical column by column).  Readers — the decision ledger,
the flight recorder, the billing meter and the SLO plane's guarantee
checks — read the columns; :meth:`DecisionFrame.rows` turns a frame
into the ledger's per-vCPU dicts only when someone reads those.

A frame is immutable once emitted: its arrays are fresh per tick (or
cached per stable VM set and never written), so a frame kept in a ring
never changes under a later tick.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.backend import vm_component
from repro.core.enforcer import quota_us
from repro.core.estimator import Case, EstimatorDecision

__all__ = ["DecisionFrame", "CASES", "EMPTY_FRAME", "unsampled_rows"]

#: Eq. 3 case per int8 code (the bulk estimator's codes).
CASES = (Case.WARMUP, Case.INCREASE, Case.DECREASE, Case.STABLE)
CODE_OF_CASE = {case: code for code, case in enumerate(CASES)}
_CASE_NAMES = tuple(case.name.lower() for case in CASES)

#: Every column, in the table's order.
COLUMNS = (
    "path", "vm", "vcpu", "vfreq", "consumed", "estimate", "trend", "case",
    "guarantee", "base", "purchased", "free_share", "fallback",
    "allocation", "quota",
)


class DecisionFrame:
    """One tick's per-vCPU decisions as parallel columns (module doc)."""

    __slots__ = COLUMNS + ("sampled", "reserve_guarantee")

    def __init__(self, *, sampled: int, reserve_guarantee: bool, **columns) -> None:
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self.sampled = sampled
        self.reserve_guarantee = reserve_guarantee

    def __len__(self) -> int:
        return len(self.path)

    # -- derived views -----------------------------------------------------

    def missed(self) -> np.ndarray:
        """The SLA-shortfall criterion, per row.

        A vCPU missed its guarantee when it got less than its Eq. 2
        ``C_i`` while it wanted at least that much, or while its demand
        was unobservable (a degraded-only row has no estimate).  The
        billing meter refunds exactly these shortfalls and the SLO plane
        counts them as guarantee misses.  A row without a guarantee
        never misses.
        """
        g = self.guarantee
        return (self.allocation < g) & ~(self.estimate < g)

    def decisions(self) -> Dict[str, EstimatorDecision]:
        """The sampled rows' stage-2 decisions, keyed by path."""
        n = self.sampled
        return {
            path: EstimatorDecision(
                estimate_cycles=estimate, trend=trend, case=CASES[code]
            )
            for path, estimate, trend, code in zip(
                self.path[:n], self.estimate[:n].tolist(),
                self.trend[:n].tolist(), self.case[:n].tolist(),
            )
        }

    def rows(self) -> List[Dict]:
        """The decision ledger's per-vCPU records, one dict per row."""
        reserve = self.reserve_guarantee
        return [
            {
                "vm": vm,
                "vcpu": vcpu,
                "path": path,
                "consumed": consumed,
                "estimate": estimate,
                "trend": trend,
                "case": None if code < 0 else _CASE_NAMES[code],
                "vfreq": vfreq,
                "guarantee": guarantee,
                "base": base,
                "reserve_guarantee": reserve,
                "purchased": purchased,
                "free_share": free_share,
                "fallback": fallback,
                "allocation": allocation,
                "quota_us": quota,
            }
            for (path, vm, vcpu, vfreq, consumed, estimate, trend, code,
                 guarantee, base, purchased, free_share, fallback,
                 allocation, quota) in zip(
                self.path, self.vm, self.vcpu.tolist(), self.vfreq,
                _optional(self.consumed), _optional(self.estimate),
                _optional(self.trend), self.case.tolist(),
                _optional(self.guarantee), _optional(self.base),
                self.purchased.tolist(), self.free_share.tolist(),
                _optional(self.fallback), self.allocation.tolist(),
                self.quota.tolist(),
            )
        ]

    # -- construction --------------------------------------------------------

    def concat(self, tail: "DecisionFrame") -> "DecisionFrame":
        """This frame's rows followed by ``tail``'s unsampled rows."""
        columns = {}
        for name in COLUMNS:
            head, rest = getattr(self, name), getattr(tail, name)
            columns[name] = (
                head + rest if isinstance(head, list)
                else np.concatenate((head, rest))
            )
        return DecisionFrame(
            sampled=self.sampled, reserve_guarantee=self.reserve_guarantee,
            **columns,
        )


def _nan(value) -> float:
    return math.nan if value is None else value


def _optional(column: np.ndarray) -> List[Optional[float]]:
    """A float column as Python values, NaN read back as ``None``."""
    return [None if v != v else v for v in column.tolist()]


def _empty() -> DecisionFrame:
    floats = np.empty(0, dtype=np.float64)
    ints = np.empty(0, dtype=np.int64)
    return DecisionFrame(
        path=[], vm=[], vcpu=ints, vfreq=[], consumed=floats,
        estimate=floats, trend=floats, case=np.empty(0, dtype=np.int8),
        guarantee=floats, base=floats, purchased=floats, free_share=floats,
        fallback=floats, allocation=floats, quota=ints,
        sampled=0, reserve_guarantee=False,
    )


#: The frame of a tick that enforced nothing (config A, an empty host).
EMPTY_FRAME = _empty()


def vcpu_index_of(path: str) -> int:
    """Trailing vcpu index of a cgroup path (``.../vcpu3`` -> 3)."""
    tail = path.rsplit("/", 1)[-1]
    digits = ""
    for ch in reversed(tail):
        if ch.isdigit():
            digits = ch + digits
        else:
            break
    return int(digits) if digits else -1


def unsampled_rows(controller, allocations: Dict[str, float]) -> DecisionFrame:
    """The degraded-only rows: paths enforced this tick with no sample.

    Each row's fallback is its allocation; the VM's vfreq and guarantee
    come from the controller's registry as it stands now.
    """
    cfg = controller.config
    paths = list(allocations)
    n = len(paths)
    vms = [vm_component(p, controller.machine_slice) for p in paths]
    cycles = np.fromiter(allocations.values(), dtype=np.float64, count=n)
    absent = np.full(n, math.nan)
    zeros = np.zeros(n)
    guarantees = controller._guarantee
    return DecisionFrame(
        path=paths,
        vm=vms,
        vcpu=np.array([vcpu_index_of(p) for p in paths], dtype=np.int64),
        vfreq=[controller._vm_vfreq.get(vm) for vm in vms],
        consumed=absent,
        estimate=absent,
        trend=absent,
        case=np.full(n, -1, dtype=np.int8),
        guarantee=np.array(
            [_nan(guarantees.get(vm)) for vm in vms], dtype=np.float64
        ),
        base=absent,
        purchased=zeros,
        free_share=zeros,
        fallback=cycles,
        allocation=cycles,
        quota=np.array(
            [quota_us(c, cfg) for c in allocations.values()], dtype=np.int64
        ),
        sampled=0,
        reserve_guarantee=cfg.reserve_guarantee,
    )
