"""A literal, per-round Algorithm 1 (paper §III-B4) for differential tests.

Every round re-sorts the VMs by ``(-priority, -wallet, name)``, lets each
buy ``min(window, need, wallet, market)`` and spreads the purchase
greedily over the VM's vCPU paths in sorted order, with the original's
check that the whole purchase found a vCPU.  It is deliberately
slow and shares no code with :func:`repro.core.auction.run_auction`,
which must produce bit-identical outcomes.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.auction import AuctionOutcome
from repro.core.credits import CreditLedger


def reference_auction(
    market: float,
    demands: Mapping[str, float],
    vm_of: Mapping[str, str],
    ledger: CreditLedger,
    window: float,
    priorities: Optional[Mapping[str, float]] = None,
) -> AuctionOutcome:
    """Sell ``market`` cycles round by round, exactly as Algorithm 1 reads."""
    if market < 0:
        raise ValueError("market must be >= 0")
    if window <= 0:
        raise ValueError("window must be positive")
    outcome = AuctionOutcome(market_left=market)
    residual = {path: need for path, need in demands.items() if need > 1e-9}
    if not residual or market <= 0:
        return outcome
    by_vm: Dict[str, List[str]] = {}
    for path in sorted(residual):
        by_vm.setdefault(vm_of[path], []).append(path)

    def shopping_key(vm: str):
        priority = 0.0 if priorities is None else priorities.get(vm, 0.0)
        return (-priority, -ledger.balance(vm), vm)

    while outcome.market_left > 1e-9:
        outcome.rounds += 1
        progress = False
        for vm in sorted(by_vm, key=shopping_key):
            balance = ledger.balance(vm)
            need = sum(residual[path] for path in by_vm[vm])
            if balance <= 1e-9 or need <= 1e-9:
                continue
            buy = min(window, need, balance, outcome.market_left)
            if buy <= 1e-9:
                continue
            remaining = buy
            for path in by_vm[vm]:
                if remaining <= 1e-12:
                    break
                take = min(residual[path], remaining)
                if take <= 0:
                    continue
                residual[path] -= take
                outcome.purchased[path] = outcome.purchased.get(path, 0.0) + take
                remaining -= take
            if remaining > 1e-6:
                raise AssertionError(
                    f"auction invariant violated: {remaining} cycles bought"
                    " but unassignable"
                )
            ledger.spend(vm, buy)
            outcome.spent_per_vm[vm] = outcome.spent_per_vm.get(vm, 0.0) + buy
            outcome.market_left -= buy
            progress = True
            if outcome.market_left <= 1e-9:
                break
        if not progress:
            break
    return outcome
