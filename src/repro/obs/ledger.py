"""The decision ledger: per-``cpu.max``-write provenance.

For every capping the controller enforces, one record holds the full
causal chain of the paper's pipeline:

=================  =========================================================
field              meaning
=================  =========================================================
``consumed``       ``u_{i,j,t}`` — stage-1 observation (µs of CPU)
``estimate``       ``e_{i,j,t}`` — stage-2 Eq. 3 trend decision (+ case)
``guarantee``      ``C_i`` — Eq. 2, from the VM's registered vfreq
``base``           Eq. 5 base capping ``min(e, C_i)`` (or the reserved
                   ``C_i`` floor under ``reserve_guarantee``)
``purchased``      auction cycles won (Alg. 1)
``free_share``     stage-5 free-distribution share
``fallback``       degraded-mode override, or ``None`` when healthy
``allocation``     the cycles actually enforced
``quota_us``       the ``cpu.max`` quota those cycles scale to
=================  =========================================================

so ``allocation`` is *reconstructible*:

    ``min(base + purchased + free_share, p_us)``   (or ``fallback``)

bit-for-bit — both engines build the allocation with exactly this
association order, and :func:`recompute_allocation` repeats it.  That
equality is what ``repro explain`` prints and what
``tests/obs/test_ledger.py`` asserts against the invariant oracles'
independent arithmetic.

Storage is one :class:`TickRecord` per tick — the ledger ``meta`` plus
the tick's :class:`~repro.core.frame.DecisionFrame` — in a bounded
in-memory ring.  The per-vCPU dicts above are built from the frame's
columns only when an entry is read (:attr:`DecisionLedger.ticks`) or
written to the JSONL mirror (when the hub has an ``out_dir``), so a
tick nobody reads costs no per-vCPU Python work.  Records are
engine-agnostic: the scalar and bulk engines must produce identical
ledgers (fuzz-checked).
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Sequence
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.frame import DecisionFrame


class TickRecord:
    """One ledger tick: ``meta`` plus its frame; the entry dict on demand."""

    __slots__ = ("meta", "frame", "_entry")

    def __init__(self, meta: Dict, frame: "DecisionFrame") -> None:
        self.meta = meta
        self.frame = frame
        self._entry: Optional[Dict] = None

    def entry(self) -> Dict:
        """``{"kind": "tick", "meta": ..., "decisions": [...]}``, built once."""
        if self._entry is None:
            self._entry = {
                "kind": "tick", "meta": self.meta,
                "decisions": self.frame.rows(),
            }
        return self._entry


def recompute_allocation(decision: Dict, p_us: float) -> float:
    """Re-derive the enforced cycles from the recorded causal chain.

    Repeats the engines' exact float association order, so the result
    is bit-identical to ``decision["allocation"]`` — any difference
    means the ledger (or an engine) mis-recorded its own arithmetic.
    """
    if decision.get("fallback") is not None:
        return float(decision["fallback"])
    return min(
        decision["base"] + decision["purchased"] + decision["free_share"],
        p_us,
    )


class DecisionLedger:
    """Bounded ring of per-tick decision records, optionally on disk."""

    def __init__(self, ring_ticks: int = 1024, path: Optional[str] = None) -> None:
        self._ring: deque = deque(maxlen=ring_ticks)
        self.path = path
        self._fh = open(path, "a", buffering=1) if path else None

    def record_tick(self, meta: Dict, frame: "DecisionFrame") -> TickRecord:
        record = TickRecord(meta, frame)
        self._ring.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record.entry(), sort_keys=True) + "\n")
        return record

    @property
    def ticks(self) -> "Entries":
        """The ring's entries, oldest first, each built when read."""
        return Entries(self._ring)

    def lookup(
        self, vm: str, vcpu: int, tick: int
    ) -> Optional[Tuple[Dict, Dict]]:
        """The ``(meta, decision)`` pair for one allocation, or ``None``.

        Builds the rows of the matching tick's entries only."""
        return lookup(
            (r.entry() for r in self._ring if r.meta["tick"] == tick),
            vm, vcpu, tick,
        )

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()


class Entries(Sequence):
    """A read-only view of a ledger ring: indexing one entry builds only it."""

    def __init__(self, ring: deque) -> None:
        self._ring = ring

    def __len__(self) -> int:
        return len(self._ring)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [r.entry() for r in list(self._ring)[index]]
        return self._ring[index].entry()

    def __iter__(self) -> Iterator[Dict]:
        for record in self._ring:
            yield record.entry()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, Entries)):
            return NotImplemented
        return list(self) == list(other)


def load_jsonl(path: str) -> List[Dict]:
    """Load ledger tick entries back from a JSONL file."""
    out: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry.get("kind") == "tick":
                out.append(entry)
    return out


def lookup(
    entries: Iterable[Dict], vm: str, vcpu: int, tick: int
) -> Optional[Tuple[Dict, Dict]]:
    for entry in entries:
        meta = entry["meta"]
        if meta["tick"] != tick:
            continue
        for decision in entry["decisions"]:
            if decision["vm"] == vm and decision["vcpu"] == vcpu:
                return meta, decision
    return None


# ---------------------------------------------------------------------------
# ``repro explain`` rendering
# ---------------------------------------------------------------------------


def explain(meta: Dict, decision: Dict) -> str:
    """Human-readable derivation of one vCPU's cap at one tick."""
    p_us = meta["p_us"]
    lines: List[str] = []
    lines.append(
        f"cpu.max derivation for {decision['vm']}/vcpu{decision['vcpu']} "
        f"at tick {meta['tick']} (t={meta['t']:g}, engine={meta['engine']})"
    )
    lines.append(f"  path: {decision['path']}")
    if decision.get("consumed") is not None:
        lines.append(
            f"  stage 1  monitor    u = {decision['consumed']:.3f} cycles consumed"
        )
    else:
        lines.append("  stage 1  monitor    (not observed this tick)")
    if decision.get("estimate") is not None:
        lines.append(
            f"  stage 2  estimate   e = {decision['estimate']:.3f} "
            f"(case={decision.get('case', '?')}, "
            f"trend={decision.get('trend', 0.0):+.3f})           [Eq. 3]"
        )
    g = decision.get("guarantee")
    if g is not None:
        lines.append(
            f"  stage 3  guarantee  C_i = {g:.3f} "
            f"(vfreq {decision.get('vfreq', 0.0):g} MHz of "
            f"F_MAX {meta.get('fmax_mhz', 0.0):g} MHz)    [Eq. 2]"
        )
    if decision.get("base") is not None:
        rule = (
            "max(min(e, C_i), C_i)" if decision.get("reserve_guarantee")
            else "min(e, C_i)"
        )
        lines.append(
            f"           base cap   {rule} = {decision['base']:.3f}"
            f"                 [Eq. 5]"
        )
    wallet_before = meta.get("wallets_before", {}).get(decision["vm"])
    wallet_after = meta.get("wallets_after", {}).get(decision["vm"])
    spent = meta.get("spent_per_vm", {}).get(decision["vm"], 0.0)
    if decision.get("purchased") is not None:
        wallet = ""
        if wallet_before is not None and wallet_after is not None:
            wallet = (
                f" (VM spent {spent:.3f} credits, wallet "
                f"{wallet_before:.3f} -> {wallet_after:.3f})"
            )
        lines.append(
            f"  stage 4  auction    +{decision['purchased']:.3f} cycles won"
            f"{wallet}  [Alg. 1]"
        )
        lines.append(
            f"           market     {meta.get('market_initial', 0.0):.3f} "
            f"initial -> {meta.get('market_left', 0.0):.3f} left after "
            f"{meta.get('rounds', 0)} round(s)            [Eq. 6]"
        )
    if decision.get("free_share") is not None:
        lines.append(
            f"  stage 5  free dist  +{decision['free_share']:.3f} of "
            f"{meta.get('freely_distributed', 0.0):.3f} freely distributed"
        )
    if decision.get("fallback") is not None:
        lines.append(
            f"  stage 6  RESILIENCE fallback override -> "
            f"{decision['fallback']:.3f} cycles (vCPU degraded)"
        )
    lines.append(
        f"  stage 6  cap        min(base + bought + free, p_us={p_us:g}) "
        f"= {decision['allocation']:.3f} cycles"
    )
    lines.append(
        f"           enforced   cpu.max quota {decision['quota_us']} µs / "
        f"{meta.get('enforcement_period_us', 0)} µs"
    )
    recomputed = recompute_allocation(decision, p_us)
    if recomputed == decision["allocation"]:
        lines.append("  verification: recomputed == recorded allocation (bit-exact)")
    else:
        lines.append(
            f"  verification: MISMATCH — recomputed {recomputed!r} != "
            f"recorded {decision['allocation']!r}"
        )
    return "\n".join(lines)


def explain_from_entries(
    entries: Iterable[Dict], vm: str, vcpu: int, tick: int
) -> str:
    """Render the derivation, or raise ``KeyError`` with what exists."""
    found = lookup(entries, vm, vcpu, tick)
    if found is None:
        ticks = sorted({e["meta"]["tick"] for e in entries})
        window = f"{ticks[0]}..{ticks[-1]}" if ticks else "none"
        raise KeyError(
            f"no ledger record for vm={vm!r} vcpu={vcpu} tick={tick} "
            f"(recorded ticks: {window})"
        )
    meta, decision = found
    return explain(meta, decision)
