"""Controller state snapshot / restore.

A host-side controller restarts (upgrades, crashes) without the VMs
going anywhere.  Restarting the paper's controller cold would forget
every credit wallet — a frugal VM's accumulated purchasing power — and
every consumption history, so the first iterations after a restart would
misprice the auction.  Snapshots capture the controller's entire mutable
state as a JSON-serialisable dict; restoring onto a fresh instance
resumes control exactly where the old one stopped.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.core.controller import VirtualFrequencyController

#: Schema version for forwards compatibility.
SNAPSHOT_VERSION = 1


def snapshot(controller: VirtualFrequencyController) -> Dict:
    """Capture all mutable controller state."""
    return {
        "version": SNAPSHOT_VERSION,
        "vm_vfreq": dict(controller._vm_vfreq),
        "tenants": dict(controller._vm_tenant),
        "wallets": controller.ledger.wallets(),
        "current_caps": dict(controller._current_cap),
        "histories": controller.histories(),
        "prev_usage": dict(controller.backend._prev_usage),
    }


def to_json(controller: VirtualFrequencyController) -> str:
    """Snapshot as a JSON string (what an operator would persist)."""
    return json.dumps(snapshot(controller), sort_keys=True)


def validate(controller: VirtualFrequencyController, state: Dict) -> None:
    """Reject a malformed snapshot *before* any controller state moves.

    Restore used to mutate first and raise halfway through, leaving the
    target corrupted; every invariant is now checked up front.
    """
    version = state.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} "
            f"(expected {SNAPSHOT_VERSION})"
        )
    missing = {
        "vm_vfreq", "wallets", "current_caps", "histories", "prev_usage"
    } - set(state)
    if missing:
        raise ValueError(
            f"corrupt snapshot: missing field(s) {', '.join(sorted(missing))}"
        )
    for vm_name, vfreq in state["vm_vfreq"].items():
        if float(vfreq) <= 0:
            raise ValueError(f"corrupt snapshot: bad vfreq for {vm_name}")
        if float(vfreq) > controller.fmax_mhz:
            raise ValueError(
                f"corrupt snapshot: {vm_name} guarantee {vfreq} MHz exceeds "
                f"host F_MAX {controller.fmax_mhz} MHz"
            )
    for vm_name, balance in state["wallets"].items():
        if balance < 0:
            raise ValueError(f"corrupt snapshot: negative wallet for {vm_name}")
    for path, cap in state["current_caps"].items():
        if float(cap) < 0:
            raise ValueError(f"corrupt snapshot: negative cap for {path}")


def restore(controller: VirtualFrequencyController, state: Dict) -> None:
    """Load a snapshot into a controller instance, fresh or not.

    The snapshot is validated first, then the controller is
    :meth:`~repro.core.controller.VirtualFrequencyController.reset` so
    restoring onto a non-fresh instance cannot double-register VMs or
    replay histories on top of live ones.  The controller's
    configuration is *not* part of the snapshot — the operator may
    restart with new knobs; only dynamic state is restored.
    """
    validate(controller, state)
    controller.reset()
    # "tenants" is optional (pre-billing snapshots lack it); absent
    # entries fall back to the default tenant at registration.
    tenants = state.get("tenants", {})
    for vm_name, vfreq in state["vm_vfreq"].items():
        controller.register_vm(
            vm_name, float(vfreq), tenant=tenants.get(vm_name)
        )
    for vm_name, balance in state["wallets"].items():
        controller.ledger.set_balance(vm_name, float(balance))
    controller._current_cap.update(
        {path: float(c) for path, c in state["current_caps"].items()}
    )
    for path, history in state["histories"].items():
        controller.load_history(path, [float(v) for v in history])
    controller.backend._prev_usage.update(
        {path: float(u) for path, u in state["prev_usage"].items()}
    )
    if controller.invariant_checker is not None:
        # The ledger-delta oracle must re-baseline on the restored
        # wallets, not the pre-restore ones.
        controller.invariant_checker.resync()


def from_json(controller: VirtualFrequencyController, payload: str) -> None:
    restore(controller, json.loads(payload))
