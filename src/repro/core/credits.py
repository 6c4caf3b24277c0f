"""Stage 3 — credits and base capping (paper §III-B3, Eqs. 4 and 5).

A VM earns credits whenever a vCPU consumed less than its guaranteed
cycles ``C_i`` in the previous iteration (Eq. 4); the wallet buys burst
cycles in the stage-4 auction, prioritising historically frugal VMs over
chronically greedy ones.

The base capping (Eq. 5) grants each vCPU ``min(e, C_i)``: the guarantee
is enforced only when the estimate says it will be used, so unneeded
guaranteed cycles stay in the market instead of being wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.core.config import ControllerConfig


class CreditLedger:
    """Per-VM credit wallets (cycles)."""

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        self._wallets: Dict[str, float] = {}

    def balance(self, vm_name: str) -> float:
        return self._wallets.get(vm_name, 0.0)

    def wallets(self) -> Dict[str, float]:
        return dict(self._wallets)

    def forget(self, vm_name: str) -> None:
        self._wallets.pop(vm_name, None)

    def clear(self) -> None:
        """Drop every wallet (controller reset before snapshot restore)."""
        self._wallets.clear()

    def set_balance(self, vm_name: str, balance: float) -> None:
        """Load a wallet balance directly (snapshot restore).

        The same invariants as organic accrual apply: never negative,
        clipped to the configured credit cap.
        """
        balance = float(balance)
        if balance < 0:
            raise ValueError(f"negative wallet for {vm_name}: {balance}")
        self._wallets[vm_name] = min(balance, self.config.credit_cap)

    def accrue(
        self,
        vm_name: str,
        consumed_per_vcpu: List[float],
        guaranteed_cycles: float,
    ) -> float:
        """Eq. 4: earn ``C_i - u`` per under-consuming vCPU; returns the gain."""
        if guaranteed_cycles < 0:
            raise ValueError("guaranteed cycles must be >= 0")
        gain = sum(
            guaranteed_cycles - u for u in consumed_per_vcpu if u < guaranteed_cycles
        )
        wallet = self._wallets.get(vm_name, 0.0) + gain
        self._wallets[vm_name] = min(wallet, self.config.credit_cap)
        return gain

    def apply_gain(self, vm_name: str, gain: float) -> None:
        """Credit a pre-computed Eq. 4 gain (the bulk engine's stage 3).

        The gain is the per-VM segment reduction the bulk engine
        computes with ``np.bincount``; the wallet update is the same two
        operations :meth:`accrue` performs, so both engines produce
        bit-identical balances.
        """
        if gain < 0:
            raise ValueError(f"negative credit gain for {vm_name}: {gain}")
        wallet = self._wallets.get(vm_name, 0.0) + gain
        self._wallets[vm_name] = min(wallet, self.config.credit_cap)

    def apply_gains(self, named_gains) -> None:
        """Batch :meth:`apply_gain` over ``(vm_name, gain)`` pairs.

        A zero gain on an existing wallet is skipped — ``w + 0.0`` and
        ``min(w, cap)`` are exact no-ops there (wallets are clipped at
        every write, so ``w <= cap`` always holds) — but a zero gain on
        an *unknown* VM still creates its 0.0 wallet, exactly as
        :meth:`accrue` would on the scalar engine.
        """
        wallets = self._wallets
        cap = self.config.credit_cap
        for vm_name, gain in named_gains:
            if gain < 0:
                raise ValueError(
                    f"negative credit gain for {vm_name}: {gain}"
                )
            if gain == 0.0 and vm_name in wallets:
                continue
            wallets[vm_name] = min(wallets.get(vm_name, 0.0) + gain, cap)

    def any_funded(self, threshold: float = 1e-9) -> bool:
        """True if any wallet could pay in an auction (balance > threshold).

        Lets the controller skip the stage-4 buyer bookkeeping entirely
        on the common contended steady state where every VM consumes at
        or above its guarantee and no wallet ever fills.
        """
        for balance in self._wallets.values():
            if balance > threshold:
                return True
        return False

    def spend(self, vm_name: str, amount: float) -> None:
        """Deduct an auction purchase; wallets never go negative."""
        if amount < 0:
            raise ValueError("cannot spend a negative amount")
        balance = self._wallets.get(vm_name, 0.0)
        if amount > balance + 1e-9:
            raise ValueError(
                f"VM {vm_name} overspent: {amount} > balance {balance}"
            )
        self._wallets[vm_name] = max(0.0, balance - amount)


@dataclass(frozen=True)
class BaseCapping:
    """Stage-3 output for one vCPU."""

    cycles: float  # c_{i,j,t} before the auction
    wants_more: bool  # e > C_i: a potential auction buyer


def apply_base_capping(
    estimates: Mapping[str, float],
    guarantees: Mapping[str, float],
) -> Dict[str, BaseCapping]:
    """Eq. 5: ``c = e if e < C_i else C_i`` per vCPU path.

    ``estimates`` and ``guarantees`` are keyed by vCPU cgroup path;
    ``guarantees`` holds each vCPU's ``C_i`` (same for all vCPUs of a VM).
    """
    out: Dict[str, BaseCapping] = {}
    for path, estimate in estimates.items():
        try:
            guarantee = guarantees[path]
        except KeyError:
            raise KeyError(f"no guarantee registered for vCPU {path}") from None
        if estimate < guarantee:
            out[path] = BaseCapping(cycles=estimate, wants_more=False)
        else:
            out[path] = BaseCapping(cycles=guarantee, wants_more=estimate > guarantee)
    return out
