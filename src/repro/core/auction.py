"""Stage 4 — the cycles auction (paper §III-B4, Eq. 6 and Algorithm 1).

Cycles left unallocated after the base capping form the *market*
(Eq. 6).  They are sold to *buyers* — vCPUs whose allocation is below
their estimate — in rounds of at most ``window`` cycles per VM per
round, paid 1:1 from the VM's credit wallet.  The window prevents a rich
VM from draining the market; rounds iterate over VMs in descending
wallet order (priority to frugal VMs) until the market is empty, every
buyer is satisfied, or no remaining buyer can pay.

Implementation: an incremental heap instead of a per-round re-sort.
The naive Algorithm 1 sorts every VM each round and rebuilds the sort
key closure, costing ``O(rounds * V log V)`` on a dense host where the
window makes rounds numerous by design.  Here the shopping order is a
single heap built once per auction, keyed on
``(round, -priority, -wallet, vm)``; a VM that buys is lazily
re-inserted for the next round with its post-purchase wallet — which is
exactly the balance the old per-round sort would have observed at that
round's start, so the purchase sequence (and therefore every outcome
field, including ``rounds``) is bit-identical to the round-based
original.

Full rounds are batched.  With the paper's 1 % window nearly every
purchase is a *full* one: ``min(window, need, wallet, market)`` is
``window`` and the slice fits in the VM's first needing vCPU.  When a
round starts and every queued VM can make ``k`` full purchases in a
row, the ``k`` rounds are applied in one step, so an auction costs
``O(buyers + boundary purchases)`` heap work rather than one heap step
per purchase.  Which updates may be batched is a question of float
exactness, and batching is enabled only for an integer-valued window
and a market below 2**52:

* *Decrements are exact.*  Below 2**52 every float's unit in the last
  place divides 1, so taking an integer window off a wallet, a vCPU
  residual or the market (with a non-negative result) never rounds:
  ``x - k * window`` equals ``k`` sequential subtractions.  The order in
  which VMs take from the market does not matter, because each batched
  purchase is exactly ``window``.  All wallets drop by the same amount,
  so the shopping order is the same in every batched round.
* *Increments are not.*  ``purchased`` and ``spent_per_vm`` totals
  grow and may round when they cross a binade, so they are replayed
  with the same sequential adds, never ``k * window``.  New dict keys
  are inserted in the first batched round's shopping order, as the
  per-purchase loop would.

Any round with a boundary purchase — a short wallet, need or market,
or a slice spanning vCPUs — runs through the per-purchase loop.  When
batching cannot apply the extra cost is one check per round boundary,
which returns at the first VM that cannot make a full purchase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.core.credits import CreditLedger

#: Below this magnitude every float's unit in the last place divides 1,
#: so subtracting an integer-valued window never rounds.
_EXACT = 2.0 ** 52


@dataclass
class AuctionOutcome:
    """Result of one auction: per-vCPU purchased cycles and market left."""

    purchased: Dict[str, float] = field(default_factory=dict)
    market_left: float = 0.0
    rounds: int = 0
    spent_per_vm: Dict[str, float] = field(default_factory=dict)


def compute_market(total_cycles: float, allocations: Mapping[str, float]) -> float:
    """Eq. 6: node cycle budget minus the sum of current allocations."""
    market = total_cycles - sum(allocations.values())
    return max(0.0, market)


def run_auction(
    market: float,
    demands: Mapping[str, float],
    vm_of: Mapping[str, str],
    ledger: CreditLedger,
    window: float,
    priorities: "Mapping[str, float] | None" = None,
) -> AuctionOutcome:
    """Algorithm 1 — sell ``market`` cycles to credit-holding buyers.

    Parameters
    ----------
    market:
        Unallocated cycles to sell.
    demands:
        Residual demand per vCPU path (``e - c``, only entries > 0 count).
    vm_of:
        vCPU path -> owning VM name (wallets are per VM).
    ledger:
        Credit wallets; purchases are deducted.
    window:
        Max cycles one VM may buy per round.
    priorities:
        Optional per-VM priority (e.g. the guaranteed frequency, for the
        paper's §V cache-aware extension): higher-priority VMs shop
        before richer ones; credits break ties.
    """
    if market < 0:
        raise ValueError("market must be >= 0")
    if window <= 0:
        raise ValueError("window must be positive")

    outcome = AuctionOutcome(market_left=market)
    if market <= 0:
        return outcome
    # Residual demand grouped by VM, preserving per-vCPU detail.  Paths
    # of VMs that cannot pay at all are dropped here: their wallet only
    # shrinks during an auction, so they could never buy — admitting
    # them would just burn a heap pop per broke VM.
    balances: Dict[str, float] = {}
    residual: Dict[str, float] = {}
    by_vm: Dict[str, List[str]] = {}
    any_demand = False
    for path, need in demands.items():
        if need <= 1e-9:
            continue
        any_demand = True
        vm = vm_of[path]
        balance = balances.get(vm)
        if balance is None:
            balance = balances[vm] = ledger.balance(vm)
        if balance <= 1e-9:
            continue
        residual[path] = need
        by_vm.setdefault(vm, []).append(path)
    if not by_vm:
        # With demand but no funded buyer the round-based loop would
        # still have entered one round before noticing nobody can pay.
        outcome.rounds = 1 if any_demand else 0
        return outcome
    # A VM's purchase is spread over its vCPUs greedily in list order;
    # sort once so the outcome does not depend on the monitor's dict
    # insertion order (stable under sample reordering).
    for paths in by_vm.values():
        paths.sort()

    def entry(round_no: int, vm: str, balance: float):
        # heapq pops the smallest tuple: earliest round first, then the
        # descending (priority, wallet) order of the per-round sort, VM
        # name as the total-order tie break.
        if priorities is None:
            return (round_no, -balance, vm)
        return (round_no, -priorities.get(vm, 0.0), -balance, vm)

    heap = [entry(1, vm, balances[vm]) for vm in by_vm]
    heapq.heapify(heap)

    purchased = outcome.purchased
    spent = outcome.spent_per_vm
    # Full rounds may be batched only where their decrements are exact.
    batchable = float(window).is_integer() and market < _EXACT
    rounds_entered = 0
    progress_in_round = False
    while heap and outcome.market_left > 1e-9:
        if batchable and heap[0][0] > rounds_entered:
            # A round starts and every queued VM is in it: apply the
            # next k rounds in one step if they are all full.
            k, firsts = _full_rounds(heap, by_vm, residual, ledger, window,
                                     outcome.market_left)
            if k:
                step = k * window
                next_round = rounds_entered + k + 1
                queued = []
                # sorted(heap) is the pop order, so new dict keys land in
                # the original order.  Every wallet drops by the same
                # exact step, so the list stays sorted: a valid heap.
                for item in sorted(heap):
                    vm = item[-1]
                    path = firsts[vm]
                    residual[path] -= step
                    purchased[path] = _add_repeated(
                        purchased.get(path, 0.0), window, k)
                    ledger.spend(vm, step)
                    spent[vm] = _add_repeated(spent.get(vm, 0.0), window, k)
                    new_balance = ledger.balance(vm)
                    # Re-admit as the per-purchase loop does.
                    new_need = sum(residual[p] for p in by_vm[vm])
                    if new_balance > 1e-9 and new_need > 1e-9:
                        queued.append(entry(next_round, vm, new_balance))
                outcome.market_left -= len(heap) * step
                heap = queued
                rounds_entered += k
                progress_in_round = True
                continue
        item = heapq.heappop(heap)
        round_no, vm = item[0], item[-1]
        if round_no > rounds_entered:
            rounds_entered = round_no
            progress_in_round = False
        balance = ledger.balance(vm)
        if balance <= 1e-9:
            continue
        vm_need = sum(residual[p] for p in by_vm[vm])
        if vm_need <= 1e-9:
            continue
        buy = min(window, vm_need, balance, outcome.market_left)
        if buy <= 1e-9:
            continue
        _allocate_to_vcpus(by_vm[vm], residual, buy, purchased)
        ledger.spend(vm, buy)
        spent[vm] = spent.get(vm, 0.0) + buy
        outcome.market_left -= buy
        progress_in_round = True
        new_balance = ledger.balance(vm)
        # Re-enter the next round under the same conditions the per-round
        # original would re-admit this VM (need recomputed from the
        # residual map, not decremented — the rounding can differ).
        new_need = sum(residual[p] for p in by_vm[vm])
        if new_balance > 1e-9 and new_need > 1e-9:
            heapq.heappush(heap, entry(round_no + 1, vm, new_balance))
    # Round accounting matches the per-round original: when the heap
    # drains with market left, the old loop would still have entered one
    # more (empty) round before noticing nobody can buy — unless the
    # last entered round was already progress-free.
    if outcome.market_left > 1e-9 and progress_in_round:
        rounds_entered += 1
    outcome.rounds = rounds_entered
    return outcome


def _full_rounds(
    heap: list,
    by_vm: Dict[str, List[str]],
    residual: Dict[str, float],
    ledger: CreditLedger,
    window: float,
    market: float,
) -> Tuple[int, Dict[str, str]]:
    """How many rounds, from the one about to start, are all full.

    A purchase is full when ``min(window, need, wallet, market)`` is
    ``window`` and the slice fits in the VM's first needing vCPU.  The
    wallet, that vCPU's residual and the market then each drop by
    exactly ``window``, so the count is a floor division per operand.
    Returns the count and each queued VM's first needing vCPU; the count
    is 0 as soon as one VM cannot make a full purchase.
    """
    k = int(market // (window * len(heap)))
    firsts: Dict[str, str] = {}
    for item in heap:
        if not k:
            break
        vm = item[-1]
        balance = ledger.balance(vm)
        # The vCPU its next purchase starts on; at a round boundary
        # every queued VM still needs cycles, so the loop always breaks.
        for path in by_vm[vm]:
            if residual[path] > 0:
                break
        firsts[vm] = path
        need = residual[path]
        if balance >= _EXACT or need >= _EXACT:
            return 0, firsts
        k = min(k, int(balance // window), int(need // window))
    return k, firsts


def _add_repeated(total: float, step: float, times: int) -> float:
    """``times`` sequential ``total += step``, rounding as each add would."""
    for _ in range(times):
        total += step
    return total


def _allocate_to_vcpus(
    paths: List[str],
    residual: Dict[str, float],
    amount: float,
    purchased: Dict[str, float],
) -> None:
    """Spread a VM's purchase across its needing vCPUs, greedily in order."""
    remaining = amount
    for path in paths:
        if remaining <= 1e-12:
            break
        take = min(residual[path], remaining)
        if take <= 0:
            continue
        residual[path] -= take
        purchased[path] = purchased.get(path, 0.0) + take
        remaining -= take
    if remaining > 1e-6:
        raise AssertionError(
            f"auction invariant violated: {remaining} cycles bought but unassignable"
        )
