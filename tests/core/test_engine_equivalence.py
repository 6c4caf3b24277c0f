"""Property test: the bulk engine is bit-identical to the scalar oracle.

Two closed-loop hosts — same node spec, same seed, same random demand
trace, same VM churn and the same injected sample drops — are driven
for 200 ticks, one with ``engine="scalar"`` and one with
``engine="bulk"``.  Every report field that the Fig. 6/7 pipeline
or an operator consumes must match *exactly* (``==`` on floats, no
tolerance): allocations, wallets, stage-2 decisions, auction outcome,
market and free-distribution totals, degraded fallbacks.

The scenario deliberately hits every code path the ISSUE calls out:
warmup (fresh vCPUs mid-run), VM churn (provision + unregister/destroy
while the loop runs), degraded vCPUs (a deterministic sample-drop
wrapper plus an active ResiliencePolicy), QoS renegotiation and
config-A monitoring-only ticks are covered by the sibling suites.
"""

from __future__ import annotations

import random

from repro.core.backend import SampleBatch
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.resilience import ResiliencePolicy
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate

SPEC = NodeSpec(
    name="equiv",
    cpu_model="test",
    sockets=1,
    cores_per_socket=4,
    threads_per_core=2,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=64 * 1024,
    freq_jitter_mhz=0.0,
)

TEMPLATE = VMTemplate("eq", vcpus=2, vfreq_mhz=500.0)
TICKS = 200


class _DroppingBackend:
    """Deterministically hide some vCPU samples (drives degraded mode).

    Wraps ``sample_all`` only; every other attribute passes through to
    the real backend, so both engines see the exact same filtered
    stream.
    """

    def __init__(self, backend, drop_plan):
        self._backend = backend
        self._plan = drop_plan  # tick -> set of path substrings to drop
        self._tick = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def __setattr__(self, name, value):
        if name in ("_backend", "_plan", "_tick"):
            object.__setattr__(self, name, value)
        else:
            setattr(self._backend, name, value)

    def sample_all(self, period_s):
        batch = self._backend.sample_all(period_s)
        drops = self._plan.get(self._tick, ())
        self._tick += 1
        if not drops:
            return batch
        return SampleBatch.from_samples(
            [
                s
                for s in batch.to_samples()
                if not any(frag in s.cgroup_path for frag in drops)
            ],
            period_s,
        )


def _build(engine):
    node = Node(SPEC, seed=99)
    hv = Hypervisor(node, enforce_admission=False)
    # Hide eq-1's vcpu0 long enough to cross degraded_after_ticks, then
    # let it recover; a second burst later re-degrades it.
    drop_plan = {t: ("/eq-1/vcpu0",) for t in list(range(40, 48)) + list(range(120, 127))}
    cfg = ControllerConfig.paper_evaluation(
        engine=engine,
        resilience=ResiliencePolicy(
            stale_sample_max_age=1, degraded_after_ticks=3
        ),
    )
    ctrl = VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=SPEC.logical_cpus,
        fmax_mhz=SPEC.fmax_mhz,
        config=cfg,
    )
    # Stage 1 reads through the dropping wrapper; writes pass through to
    # the real backend (drops only affect observability).
    ctrl.backend = _DroppingBackend(ctrl.backend, drop_plan)
    return node, hv, ctrl


def _drive(engine):
    node, hv, ctrl = _build(engine)
    rng = random.Random(2024)
    vms = {}
    for k in range(4):
        vm = hv.provision(TEMPLATE, f"eq-{k}")
        ctrl.register_vm(vm.name, 500.0)
        vms[vm.name] = vm
    next_id = 4
    reports = []
    for t in range(TICKS):
        # deterministic churn: add a VM at 50/90, drop one at 70/140
        if t in (50, 90):
            vm = hv.provision(TEMPLATE, f"eq-{next_id}")
            ctrl.register_vm(vm.name, 500.0)
            vms[vm.name] = vm
            next_id += 1
        if t in (70, 140):
            name = sorted(vms)[0]
            ctrl.unregister_vm(name)
            hv.destroy(name)
            del vms[name]
        if t == 100:  # dynamic QoS renegotiation mid-run
            ctrl.set_vfreq(sorted(vms)[-1], 900.0)
        for vm in vms.values():
            vm.set_uniform_demand(rng.random())
        node.step(1.0)
        reports.append(ctrl.tick(float(t + 1)))
    return ctrl, reports


def test_bulk_engine_is_bit_identical_to_scalar():
    ctrl_s, scalar = _drive("scalar")
    ctrl_v, vector = _drive("bulk")
    assert len(scalar) == len(vector) == TICKS
    saw_degraded = False
    saw_warmup_after_start = False
    saw_auction = False
    for i, (a, b) in enumerate(zip(scalar, vector)):
        assert a.allocations == b.allocations, f"tick {i}: allocations"
        assert a.wallets == b.wallets, f"tick {i}: wallets"
        assert a.market_initial == b.market_initial, f"tick {i}: market"
        assert a.freely_distributed == b.freely_distributed, f"tick {i}"
        assert a.degraded == b.degraded, f"tick {i}: degraded fallbacks"
        da = {p: (d.estimate_cycles, d.trend, d.case) for p, d in a.decisions.items()}
        db = {p: (d.estimate_cycles, d.trend, d.case) for p, d in b.decisions.items()}
        assert da == db, f"tick {i}: decisions"
        assert (a.auction is None) == (b.auction is None), f"tick {i}"
        if a.auction is not None:
            assert a.auction.purchased == b.auction.purchased, f"tick {i}"
            assert a.auction.market_left == b.auction.market_left, f"tick {i}"
            assert a.auction.rounds == b.auction.rounds, f"tick {i}: rounds"
            assert a.auction.spent_per_vm == b.auction.spent_per_vm, f"tick {i}"
            saw_auction = saw_auction or bool(a.auction.purchased)
        saw_degraded = saw_degraded or bool(a.degraded)
        if i > 55:
            from repro.core.estimator import Case

            saw_warmup_after_start = saw_warmup_after_start or any(
                d.case is Case.WARMUP for d in a.decisions.values()
            )
    # the scenario really exercised the paths the ISSUE names
    assert saw_degraded, "drop plan never produced a degraded vCPU"
    assert saw_warmup_after_start, "churn never produced warmup decisions"
    assert saw_auction, "no tick ever sold auction cycles"
    # and the persistent state converged identically too
    assert ctrl_s._current_cap == ctrl_v._current_cap
    assert ctrl_s.ledger.wallets() == ctrl_v.ledger.wallets()
    assert ctrl_s.histories() == ctrl_v.histories()


def test_snapshot_roundtrips_across_engines():
    """A snapshot taken on one engine restores onto the other (same
    schema) and the loops continue bit-identically after the swap."""
    from repro.core.snapshot import restore, snapshot

    ctrl_s, _ = _drive("scalar")
    state = snapshot(ctrl_s)

    node = Node(SPEC, seed=7)
    ctrl_v = VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=SPEC.logical_cpus,
        fmax_mhz=SPEC.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    restore(ctrl_v, state)
    assert ctrl_v.histories() == ctrl_s.histories()
    assert ctrl_v.ledger.wallets() == ctrl_s.ledger.wallets()
    assert ctrl_v._current_cap == ctrl_s._current_cap
    assert snapshot(ctrl_v) == state
