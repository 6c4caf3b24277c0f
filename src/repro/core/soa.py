"""Structure-of-arrays fast path for the controller hot loop.

The scalar controller walks Python dicts and objects once per vCPU per
stage; on a dense host (hundreds of vCPUs) that interpreter overhead
dominates the per-tick cost the paper insists must stay negligible
(§III-B2).  :class:`VcpuTable` assigns every registered vCPU a stable
integer *slot* and keeps the controller's per-vCPU state in NumPy
arrays — consumption-history ring buffers, current caps and cached
Eq. 2 guarantees — so stages 2, 3 and 5 become a handful of
vectorised array operations regardless of population size.

The arrays live in a :class:`SlotArena`.  A table normally owns one,
but the tables of a node group run by one
:class:`~repro.sim.node_manager.NodeManager` share a single arena: each
table keeps its own path -> slot and VM -> id maps and draws the
integers from the shared pool, so VM ids are unique across the group
and the group's rows index one set of columns.  That is what lets
:class:`~repro.core.bulk.BulkExecutor` run a stage as one array pass
over many hosts; every operation here is per row (or a per-VM
``bincount``), so mixing the rows of several tables changes no value.

Bit-identity with the scalar oracle
-----------------------------------
The bulk engine (``ControllerConfig.engine = "bulk"``) must produce
*bit-identical* reports to the scalar one (``"scalar"``), which is kept
as the oracle.  Floating-point addition is not associative, so
identical results require identical operation order, which this module
guarantees by construction:

* every per-tick array is gathered in **sample order** (the order the
  scalar code iterates its dicts in), so elementwise operations see the
  exact operands the scalar loops see;
* reductions across the *population* that the scalar code performs
  sequentially (``sum()`` over dict values, per-VM credit sums) use
  :func:`seqsum` (``np.add.accumulate``), :func:`segment_seqsums` (one
  such sum per host of a group) or ``np.bincount`` — all add
  left-to-right exactly like the Python loops, and adding the ``0.0``
  placeholders of masked-out elements is exact;
* reductions across the *history window* (Eq. 3 slope) loop over the
  ≤ ``history_len`` window positions accumulating whole population
  vectors, so each element's additions happen in the same order as the
  scalar ``trend_slope`` loop;
* the data-independent Eq. 3 centring weights and denominator are
  precomputed per history length with the scalar arithmetic itself.

The equivalence is enforced by ``tests/core/test_engine_equivalence.py``
(200 random ticks with churn and degraded vCPUs) and by the Fig. 6/7
report-stream comparison in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.frame import CASES
from repro.core.units import period_us

__all__ = ["SlotArena", "VcpuTable", "TickView", "seqsum", "decide_batch"]

#: Integer case codes used inside the vectorised estimator (int8 array);
#: each indexes :data:`repro.core.frame.CASES`.
_WARMUP, _INCREASE, _DECREASE, _STABLE = 0, 1, 2, 3
_CASE_OF_CODE = dict(enumerate(CASES))

#: (history length, literal flag) -> (centring weights dx, denominator).
_CENTERING: Dict[Tuple[int, bool], Tuple[np.ndarray, float]] = {}


def centering_weights(n: int, literal: bool) -> Tuple[np.ndarray, float]:
    """Eq. 3 centring weights ``dx_k = k - center`` and ``sum(dx_k^2)``.

    Both are data-independent per window length, so they are computed
    once — with the exact scalar arithmetic of
    :func:`repro.core.estimator.trend_slope` so the cached denominator
    is the same float the scalar loop re-derives every call.
    """
    key = (n, literal)
    hit = _CENTERING.get(key)
    if hit is None:
        center = n * (n + 1) / 2.0 if literal else (n + 1) / 2.0
        dx = np.array([float(k) - center for k in range(1, n + 1)])
        denom = 0.0
        for k in range(1, n + 1):
            d = k - center
            denom += d * d
        hit = (dx, denom)
        _CENTERING[key] = hit
    return hit


def seqsum(values: np.ndarray) -> float:
    """Strict left-to-right float sum, bit-identical to Python ``sum()``.

    ``np.sum`` uses pairwise summation, which reassociates additions and
    can differ from the scalar engine's sequential dict-value sums in
    the last ulp; ``np.add.accumulate`` is sequential by definition.
    """
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


@dataclass
class TickView:
    """One tick's samples gathered into slot-indexed arrays.

    Arrays are in *sample order* (see the module docstring); ``rows``
    maps each position to its table slot.
    """

    rows: np.ndarray  # intp, table slot per sample
    consumed: np.ndarray  # float64, u_{i,j,t} per sample
    paths: List[str]  # cgroup path per sample
    pos: Dict[str, int]  # cgroup path -> position in the arrays
    vms: List[str]  # owning VM name per sample
    vm_order: List[Tuple[str, int]]  # first-seen VM order, with dense ids
    vcpus: Optional[np.ndarray] = None  # int64, vCPU index per sample
    vfreq: Optional[List[float]] = None  # owning VM's vfreq per sample


class SlotArena:
    """Per-vCPU NumPy columns plus the slot and VM-id free lists.

    One arena can back several :class:`VcpuTable` s — the tables of a
    node group run by one :class:`~repro.sim.node_manager.NodeManager`
    — so a stage can be one array pass over every host's rows (see
    :mod:`repro.core.bulk`).  The arena knows nothing about paths or VM
    names; each table keeps its own maps and only draws integers here.
    Every column is elementwise per slot, and VM ids are unique across
    the arena, so indexing a mix of tables' rows computes exactly what
    indexing each table's rows alone would.
    """

    #: Every per-slot column (grown and re-homed together).
    COLUMNS = (
        "hist", "hist_n", "cap", "has_cap", "guarantee", "vm_ids",
        "last_quota",
    )

    def __init__(self, history_len: int, capacity: int = 64) -> None:
        if history_len < 2:
            raise ValueError("history_len must be >= 2")
        self.history_len = history_len
        capacity = max(1, capacity)
        # -- per-slot columns ------------------------------------------------
        self.hist = np.zeros((capacity, history_len))  # right-aligned window
        self.hist_n = np.zeros(capacity, dtype=np.int64)  # valid entries
        self.cap = np.zeros(capacity)  # current cap (cycles)
        self.has_cap = np.zeros(capacity, dtype=bool)
        self.guarantee = np.zeros(capacity)  # cached Eq. 2 C_i
        self.vm_ids = np.zeros(capacity, dtype=np.int64)
        #: Quota (µs) this slot's cap scaled to at the last bulk write;
        #: ``-1`` = unknown/failed, always dirty.
        self.last_quota = np.full(capacity, -1, dtype=np.int64)
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._vm_free: List[int] = []
        #: Size of the dense VM-id space (``np.bincount`` minlength).
        self.num_vm_ids = 0

    @property
    def capacity(self) -> int:
        return self.hist.shape[0]

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in self.COLUMNS:
            arr = getattr(self, name)
            shape = (new,) + arr.shape[1:]
            grown = np.zeros(shape, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))

    def take_slot(self) -> int:
        """A free slot (growing the columns if none is left)."""
        if not self._free:
            self._grow()
        return self._free.pop()

    def give_slot(self, slot: int) -> None:
        """Return a slot; its state reads as empty until re-seeded."""
        self.hist_n[slot] = 0
        self.has_cap[slot] = False
        self.last_quota[slot] = -1
        self._free.append(slot)

    def take_vm_id(self) -> int:
        if self._vm_free:
            return self._vm_free.pop()
        self.num_vm_ids += 1
        return self.num_vm_ids - 1

    def give_vm_id(self, vid: int) -> None:
        self._vm_free.append(vid)

    def observe(self, rows: np.ndarray, consumed: np.ndarray) -> None:
        """Append one consumption per row (stage 2 history update)."""
        if rows.size == 0:
            return
        self.hist[rows, :-1] = self.hist[rows, 1:]
        self.hist[rows, -1] = consumed
        self.hist_n[rows] = np.minimum(self.hist_n[rows] + 1, self.history_len)

    def set_caps(self, rows: np.ndarray, caps: np.ndarray) -> None:
        """Scatter enforced caps back into the slot columns."""
        self.cap[rows] = caps
        self.has_cap[rows] = True


class VcpuTable:
    """One controller's path -> slot and VM -> id maps over a :class:`SlotArena`.

    Slots are assigned lazily at a vCPU's first sample and survive until
    the path (or its whole VM) is released, so gathered views stay valid
    across ticks; freed slots are recycled.  VM names get integer ids
    for ``np.bincount`` segment reductions in the credit stage.  A table
    starts on a private arena; :meth:`move_to` re-homes it.
    """

    def __init__(self, history_len: int, capacity: int = 64) -> None:
        self.arena = SlotArena(history_len, capacity)
        self.history_len = history_len
        self._slot: Dict[str, int] = {}
        self._path_of: Dict[int, str] = {}
        self._vm_id: Dict[str, int] = {}
        self._vm_names: Dict[int, str] = {}
        self._vm_slots: Dict[str, List[int]] = {}

    def __len__(self) -> int:
        return len(self._slot)

    # -- VM ids -----------------------------------------------------------------

    def _vm_id_for(self, vm_name: str) -> int:
        vid = self._vm_id.get(vm_name)
        if vid is None:
            vid = self.arena.take_vm_id()
            self._vm_id[vm_name] = vid
            self._vm_names[vid] = vm_name
            self._vm_slots[vm_name] = []
        return vid

    def vm_name_of_slot(self, slot: int) -> str:
        return self._vm_names[int(self.arena.vm_ids[slot])]

    # -- slot lifecycle ---------------------------------------------------------

    def slot_of(self, path: str) -> Optional[int]:
        return self._slot.get(path)

    def ensure_slot(
        self,
        path: str,
        vm_name: str,
        guarantee: float,
        initial_cap: Optional[float] = None,
        quota: int = -1,
    ) -> int:
        """Slot for ``path``, assigning (and seeding) one if new.

        ``quota`` seeds :attr:`SlotArena.last_quota`: the quota the
        backend knows is in force for ``path``, or -1 (unknown).
        """
        slot = self._slot.get(path)
        if slot is not None:
            return slot
        arena = self.arena
        slot = arena.take_slot()
        self._slot[path] = slot
        self._path_of[slot] = path
        arena.hist[slot] = 0.0
        arena.hist_n[slot] = 0
        arena.guarantee[slot] = guarantee
        arena.last_quota[slot] = quota
        if initial_cap is None:
            arena.cap[slot] = 0.0
            arena.has_cap[slot] = False
        else:
            arena.cap[slot] = initial_cap
            arena.has_cap[slot] = True
        arena.vm_ids[slot] = self._vm_id_for(vm_name)
        self._vm_slots[vm_name].append(slot)
        return slot

    def release_path(self, path: str) -> None:
        """Free a vCPU's slot (cgroup destroyed / VM unregistered)."""
        slot = self._slot.pop(path, None)
        if slot is None:
            return
        vm_name = self.vm_name_of_slot(slot)
        del self._path_of[slot]
        self.arena.give_slot(slot)
        slots = self._vm_slots.get(vm_name)
        if slots is not None:
            slots.remove(slot)

    def release_vm(self, vm_name: str) -> None:
        """Free every slot of a VM and recycle its id."""
        for slot in list(self._vm_slots.get(vm_name, ())):
            self.release_path(self._path_of[slot])
        vid = self._vm_id.pop(vm_name, None)
        if vid is not None:
            self._vm_slots.pop(vm_name, None)
            del self._vm_names[vid]
            self.arena.give_vm_id(vid)

    def clear(self) -> None:
        """Drop everything (controller reset before snapshot restore)."""
        for vm_name in list(self._vm_id):
            self.release_vm(vm_name)

    def move_to(self, arena: SlotArena) -> None:
        """Re-home every slot and VM id into ``arena``, values kept.

        The old arena gets its slots and ids back.  Slot and id numbers
        change, so any view gathered before the move is stale.
        """
        old = self.arena
        if arena is old:
            return
        if arena.history_len != self.history_len:
            raise ValueError("arena history_len differs from the table's")
        vid_map = {vid: arena.take_vm_id() for vid in self._vm_id.values()}
        src = list(self._slot.values())
        dst = [arena.take_slot() for _ in src]
        if src:
            s = np.asarray(src, dtype=np.intp)
            d = np.asarray(dst, dtype=np.intp)
            for name in SlotArena.COLUMNS:
                getattr(arena, name)[d] = getattr(old, name)[s]
            arena.vm_ids[d] = [vid_map[v] for v in old.vm_ids[s].tolist()]
        for slot in src:
            old.give_slot(slot)
        for vid in vid_map:
            old.give_vm_id(vid)
        slot_map = dict(zip(src, dst))
        self._slot = {p: slot_map[s] for p, s in self._slot.items()}
        self._path_of = {slot_map[s]: p for s, p in self._path_of.items()}
        self._vm_id = {n: vid_map[v] for n, v in self._vm_id.items()}
        self._vm_names = {vid_map[v]: n for v, n in self._vm_names.items()}
        self._vm_slots = {
            n: [slot_map[s] for s in slots]
            for n, slots in self._vm_slots.items()
        }
        self.arena = arena

    # -- guarantees (cached Eq. 2) ----------------------------------------------

    def set_vm_guarantee(self, vm_name: str, guarantee: float) -> None:
        """Refresh the cached ``C_i`` of a VM's live slots (set_vfreq)."""
        slots = self._vm_slots.get(vm_name)
        if slots:
            self.arena.guarantee[np.asarray(slots, dtype=np.intp)] = guarantee

    # -- histories --------------------------------------------------------------

    def history_of(self, path: str) -> List[float]:
        """Chronological consumption window of one vCPU (oldest first)."""
        slot = self._slot.get(path)
        if slot is None:
            return []
        n = int(self.arena.hist_n[slot])
        return self.arena.hist[slot, self.history_len - n:].tolist()

    def histories(self) -> Dict[str, List[float]]:
        """All non-empty windows, keyed by path (snapshot schema)."""
        hist, hist_n = self.arena.hist, self.arena.hist_n
        out: Dict[str, List[float]] = {}
        for path, slot in self._slot.items():
            n = int(hist_n[slot])
            if n:
                out[path] = hist[slot, self.history_len - n:].tolist()
        return out

    def load_history(self, path: str, values: Sequence[float]) -> None:
        """Replace one vCPU's window (snapshot restore); keeps the tail."""
        slot = self._slot[path]
        arena = self.arena
        vals = [float(v) for v in values][-self.history_len:]
        n = len(vals)
        arena.hist[slot] = 0.0
        if n:
            arena.hist[slot, self.history_len - n:] = vals
        arena.hist_n[slot] = n

    # -- caps -------------------------------------------------------------------

    def set_cap_path(self, path: str, cap: float) -> None:
        slot = self._slot.get(path)
        if slot is not None:
            self.arena.cap[slot] = cap
            self.arena.has_cap[slot] = True

    def forget_quota(self, path: str) -> None:
        """Mark the quota in force for ``path`` unknown (rewritten next)."""
        slot = self._slot.get(path)
        if slot is not None:
            self.arena.last_quota[slot] = -1

    # -- the per-tick gather ----------------------------------------------------

    def ingest(
        self,
        paths: List[str],
        vms: List[str],
        consumed: np.ndarray,
        guarantee_of: Callable[[str], float],
        initial_caps: Optional[Dict[str, float]] = None,
        quota_of: Optional[Callable[[str], int]] = None,
    ) -> TickView:
        """Gather one tick's sample columns into a sample-order view.

        New paths get slots on the fly, seeded with the VM's cached
        guarantee, (if present) the cap restored from a snapshot and
        (given ``quota_of``) the quota in force.
        """
        n = len(paths)
        rows = np.empty(n, dtype=np.intp)
        vm_order: List[Tuple[str, int]] = []
        seen_vms: Dict[str, int] = {}
        slot_map = self._slot
        for i, (path, vm_name) in enumerate(zip(paths, vms)):
            slot = slot_map.get(path)
            if slot is None:
                seed_cap = None
                if initial_caps is not None:
                    seed_cap = initial_caps.get(path)
                slot = self.ensure_slot(
                    path, vm_name, guarantee_of(vm_name), seed_cap,
                    -1 if quota_of is None else quota_of(path),
                )
            rows[i] = slot
            if vm_name not in seen_vms:
                seen_vms[vm_name] = 1
                vm_order.append((vm_name, self._vm_id[vm_name]))
        return TickView(
            rows=rows, consumed=consumed, paths=paths,
            pos={path: i for i, path in enumerate(paths)},
            vms=vms, vm_order=vm_order,
        )


# -- vectorised stage 2 ----------------------------------------------------------


def decide_batch(
    arena: SlotArena,
    rows: np.ndarray,
    consumed: np.ndarray,
    config: ControllerConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-2 decisions for every given row at once.

    Returns ``(estimates, trends, case_codes)`` in row order,
    bit-identical to calling
    :meth:`repro.core.estimator.TrendEstimator.decide` per path.
    Histories must already include this tick's observation
    (:meth:`SlotArena.observe` first), mirroring the scalar order.
    ``rows`` may mix the rows of every table on the arena: the
    decision is a pure per-row function of (window, cap, config).
    """
    cfg = config
    p_us = period_us(cfg.period_s)
    floor = cfg.min_cap_frac * p_us
    eps = cfg.trend_epsilon * p_us
    u = consumed
    n = rows.size
    n_arr = arena.hist_n[rows]
    cap_raw = np.where(arena.has_cap[rows], arena.cap[rows], p_us)
    cap = np.maximum(cap_raw, floor)
    est = np.empty(n)
    trend = np.zeros(n)
    case = np.full(n, _WARMUP, dtype=np.int8)

    # Warmup (one observation): estimate = clip(max(u, cap)).
    m1 = n_arr <= 1
    if m1.any():
        est[m1] = np.maximum(u[m1], cap[m1])

    # Eq. 3 slopes, grouped by window length so each group's window is a
    # dense (group, n) matrix.  The accumulations loop over the ≤
    # history_len columns, adding population vectors in the scalar
    # loop's order (num and mean both start from 0.0 exactly).
    L = arena.history_len
    for win in range(2, L + 1):
        mask = n_arr == win
        if not mask.any():
            continue
        idx = rows[mask]
        window = arena.hist[idx][:, L - win:]
        dx, denom = centering_weights(win, cfg.literal_trend)
        acc = np.zeros(idx.size)
        for k in range(win):
            acc += window[:, k]
        mean = acc / win
        num = np.zeros(idx.size)
        for k in range(win):
            num += dx[k] * (window[:, k] - mean)
        trend[mask] = num / denom if denom != 0.0 else 0.0

    m2 = ~m1
    if m2.any():
        u2 = u[m2]
        cap2 = cap[m2]
        slope2 = trend[m2]
        e2 = np.empty(u2.size)
        c2 = np.empty(u2.size, dtype=np.int8)
        inc = (slope2 > eps) & (u2 >= cfg.increase_trigger * cap2)
        dec = ~inc & (slope2 < -eps) & (u2 <= cfg.decrease_trigger * cap2)
        rest = ~inc & ~dec
        # Stable case's pegged-at-cap escape (see estimator.decide).
        pegged = rest & (u2 >= 0.99 * cap2) & (slope2 >= -eps)
        stable = rest & ~pegged
        grow = inc | pegged
        e2[grow] = cap2[grow] * cfg.increase_mult
        e2[dec] = np.maximum(cap2[dec] * cfg.decrease_mult, u2[dec])
        e2[stable] = u2[stable] / cfg.increase_trigger
        c2[grow] = _INCREASE
        c2[dec] = _DECREASE
        c2[stable] = _STABLE
        est[m2] = e2
        case[m2] = c2

    np.maximum(est, floor, out=est)
    np.minimum(est, p_us, out=est)
    return est, trend, case


def segment_seqsums(
    values: np.ndarray,
    seg: np.ndarray,
    col: np.ndarray,
    n_seg: int,
    width: int,
) -> List[float]:
    """:func:`seqsum` of every segment of ``values`` in one pass.

    ``seg``/``col`` give each value's segment and position in it.  The
    segments are laid out as the rows of a ``(n_seg, width)`` matrix
    padded with ``-0.0`` (adding ``-0.0`` is exact for every float), and
    one row-wise ``np.add.accumulate`` adds each row left to right, so
    every sum is the one :func:`seqsum` gives for that segment alone;
    an empty segment sums to ``0.0``.
    """
    if n_seg == 1:
        return [seqsum(values)]
    mat = np.full((n_seg, max(1, width)), -0.0)
    mat[:, 0] = 0.0
    mat[seg, col] = values
    return np.add.accumulate(mat, axis=1)[:, -1].tolist()


def gather_free_shares(
    paths: List[str], needy: np.ndarray, shares: np.ndarray, lo: int
) -> Dict[str, float]:
    """Materialise stage-5 shares as the scalar engine's leftover dict.

    ``needy - lo`` indexes ``paths`` in sample order (``np.flatnonzero``
    is ascending), matching the scalar ``distribute_leftovers``
    insertion order; zero shares are dropped exactly like its
    ``share > 0`` filter, so both engines report the identical mapping.
    """
    return {
        paths[i - lo]: share
        for i, share in zip(needy.tolist(), shares.tolist())
        if share > 0
    }
