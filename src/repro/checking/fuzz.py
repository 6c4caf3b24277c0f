"""Seeded scenario fuzzer for the virtual-frequency controller.

One seed deterministically produces one :class:`~repro.checking.trace.Trace`
— VM churn, QoS renegotiation, workload bursts, controller restarts and a
windowed fault schedule — which :func:`~repro.checking.trace.replay` then
runs under **both** engines with the full invariant catalogue asserted
after every tick and cross-engine bit-identity checked.

Two design rules keep failures shrinkable:

* **All randomness happens at generation time.**  Demand levels, churn
  decisions and fault windows are drawn here from ``random.Random(seed)``
  and written into the trace as concrete values, so replay consumes no
  RNG at all and deleting events cannot shift later draws.
* **Fault specs are deterministic** (``probability=1.0``, bounded tick
  windows, no ``clock_jitter``/``crash``).  Probabilistic specs consume
  the plan RNG per opportunity, which would let the two engine replicas'
  fault streams drift apart after any divergence and turn one real bug
  into a wall of noise.

The resilience policy's carry-forward and degraded-mode ages are drawn
per trace (from their own stream, so a seed's events do not depend on
them) and written into the header.  Where the ages overlap, a degraded
vCPU still has a carried-forward sample, and stage 6 gives that sampled
row its fallback cap.

Generated scenarios respect the paper's Eq. 7 admission bound — the
committed budget Σᵢ vcpusᵢ · vfreqᵢ never exceeds host capacity — since
the Eq. 2 guarantee (and therefore several oracles) is only promised for
admissible VM sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.checking.trace import ReplayResult, Trace, replay, resolve_engines

#: Fuzz-host shape (small on purpose: contention shows up fast).
HOST_CORES = 2
HOST_THREADS_PER_CORE = 2
HOST_FMAX_MHZ = 2400.0
HOST_CAPACITY_MHZ = HOST_CORES * HOST_THREADS_PER_CORE * HOST_FMAX_MHZ

#: Smallest vfreq the fuzzer hands out (MHz).
MIN_VFREQ = 100.0

#: Deterministic fault templates the generator picks from.  Each entry
#: is (kind, target, error) — windows are drawn per trace.
_FAULT_MENU = (
    ("read_error", "*/cpu.stat", "EIO"),
    ("write_error", "*/cpu.max", "EBUSY"),
    ("freeze", "*/cpu.stat", "EIO"),
    ("tid_vanish", "tid:*", "ESRCH"),
    ("freq_error", "core:*", "EIO"),
)

#: The cgroup v1 file a menu target names on a v1 host: the usage
#: counter, and the quota half of the period/quota cap pair.
_V1_TARGETS = {"*/cpu.stat": "*/cpuacct.usage", "*/cpu.max": "*/cpu.cfs_quota_us"}


def _fault_plan_dict(
    rng: random.Random, ticks: int, cgroup_version: int
) -> Optional[Dict]:
    """A JSON-ready deterministic FaultPlan, or ``None`` (half the time),
    whose file targets name the ``cgroup_version`` hierarchy's files."""
    if rng.random() < 0.5:
        return None
    specs = []
    for _ in range(rng.randint(1, 3)):
        kind, target, error = rng.choice(_FAULT_MENU)
        if cgroup_version == 1:
            target = _V1_TARGETS.get(target, target)
        start = rng.randrange(max(1, ticks))
        length = rng.randint(1, min(20, max(2, ticks // 4)))
        specs.append(
            {
                "kind": kind,
                "target": target,
                "start_tick": start,
                "end_tick": start + length,
                "probability": 1.0,
                "error": error,
                "jitter_frac": 0.0,
            }
        )
    return {"seed": rng.randrange(2**31), "specs": specs}


def generate_trace(
    seed: int,
    *,
    ticks: int = 200,
    max_vms: int = 6,
    faults: bool = True,
    restarts: bool = True,
    engine: str = "both",
    tenants: int = 0,
) -> Trace:
    """Deterministically generate one fuzz scenario for ``seed``.

    ``tenants > 0`` spreads provisioned VMs round-robin over that many
    named tenants and stamps each provision with an initial demand
    level — the multi-tenant billing fuzz mode.  ``tenants=0`` (the
    default) emits the same events as every earlier release: the
    tenant path draws from the RNG only when enabled.  The host's
    cgroup hierarchy (v1 or v2) is drawn per seed from a stream of its
    own and recorded in the header; the fault plan's file targets name
    that hierarchy's files.
    """
    resolve_engines(engine)
    # The cgroup version and the resilience ages come from their own
    # streams, so the events of a seed are the same whatever they are.
    cgroup_version = random.Random(f"cgroup:{seed}").choice((1, 2))
    ages = random.Random(f"resilience:{seed}")
    rng = random.Random(seed)
    plan = _fault_plan_dict(rng, ticks, cgroup_version) if faults else None
    trace = Trace(
        header=Trace.make_header(
            seed=seed,
            cores=HOST_CORES,
            threads_per_core=HOST_THREADS_PER_CORE,
            fmax_mhz=HOST_FMAX_MHZ,
            resilience=plan is not None or rng.random() < 0.3,
            fault_plan=plan,
            engine=engine,
            stale_sample_max_age=ages.randint(0, 3),
            degraded_after_ticks=ages.randint(1, 3),
            cgroup_version=cgroup_version,
        )
    )
    events = trace.events
    committed: Dict[str, float] = {}  # vm -> vcpus * vfreq (Eq. 7 ledger)
    shapes: Dict[str, int] = {}  # vm -> vcpus
    next_vm = 0

    def provision() -> None:
        nonlocal next_vm
        if len(committed) >= max_vms:
            return
        vcpus = rng.randint(1, 2)
        headroom = HOST_CAPACITY_MHZ - sum(committed.values())
        top = min(1200.0, headroom / vcpus)
        if top < MIN_VFREQ:
            return
        vfreq = round(rng.uniform(MIN_VFREQ, top), 1)
        name = f"vm{next_vm}"
        event = {"kind": "provision", "vm": name, "vcpus": vcpus, "vfreq": vfreq}
        if tenants > 0:
            event["tenant"] = f"t{next_vm % tenants}"
            event["level"] = round(rng.random(), 3)
        next_vm += 1
        events.append(event)
        committed[name] = vcpus * vfreq
        shapes[name] = vcpus

    def destroy() -> None:
        if not committed:
            return
        name = rng.choice(sorted(committed))
        events.append({"kind": "destroy", "vm": name})
        del committed[name]
        del shapes[name]

    def renegotiate() -> None:
        if not committed:
            return
        name = rng.choice(sorted(committed))
        vcpus = shapes[name]
        headroom = HOST_CAPACITY_MHZ - sum(committed.values()) + committed[name]
        top = min(1500.0, headroom / vcpus)
        if top < MIN_VFREQ:
            return
        vfreq = round(rng.uniform(MIN_VFREQ, top), 1)
        events.append({"kind": "set_vfreq", "vm": name, "vfreq": vfreq})
        committed[name] = vcpus * vfreq

    for _ in range(rng.randint(1, 3)):
        provision()

    for _ in range(ticks):
        roll = rng.random()
        if roll < 0.08:
            provision()
        elif roll < 0.12:
            destroy()
        elif roll < 0.18:
            renegotiate()
        elif restarts and roll < 0.195:
            events.append({"kind": "restart"})
        if rng.random() < 0.05:
            # Correlated burst: every VM slams to saturation at once —
            # the regime Eq. 2 is promised to survive.
            for name in sorted(committed):
                events.append({"kind": "demand", "vm": name, "level": 1.0})
        else:
            for name in sorted(committed):
                if rng.random() < 0.3:
                    events.append(
                        {
                            "kind": "demand",
                            "vm": name,
                            "level": round(rng.random(), 3),
                        }
                    )
        events.append({"kind": "tick"})
    return trace


@dataclass
class FuzzResult:
    """One seed's outcome: its trace plus the replay verdict."""

    seed: int
    trace: Trace
    result: ReplayResult

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def engine_ticks(self) -> int:
        """Ticks executed, summed over engine replicas."""
        return self.result.ticks * len(self.result.engines)


def fuzz_one(seed: int, *, ticks: int = 200, **gen_kwargs) -> FuzzResult:
    """Generate and replay one seeded scenario with oracles armed."""
    trace = generate_trace(seed, ticks=ticks, **gen_kwargs)
    return FuzzResult(seed=seed, trace=trace, result=replay(trace))
