"""Observability-hub overhead — the price of the flight recorder.

The hub (:mod:`repro.obs`) works *post hoc*: stages run unmodified and
a disabled hub costs the tick exactly one ``is None`` check, so the
off-by-default path must be free.  Enabled, every tick is folded into
a seven-span stage tree + decision ledger + flight frame, and the
paper's overhead budget (§IV-A2) is the yardstick: the controller — observability
included — must stay a negligible slice of its own control period.

Asserted claims:

* **off is free**: mean tick cost with no hub attached stays within
  noise (< 5 %) of the seed controller — measured interleaved,
  min-of-repeats, so scheduler jitter cannot fake a regression;
* **on fits the period budget**: full recording (stage spans, ledger,
  flight frames) adds < 5 % of one control period per tick — the
  paper-aligned bound an operator actually budgets for;
* the hub really observed: one ledger entry, one flight frame and one
  span tree per tick (an accidentally-detached hub would "win" the
  bench with zero work).

``BENCH_SMOKE=1`` shrinks the run for CI.
"""

import os
import time

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.hw.node import Node
from repro.hw.nodespecs import NodeSpec
from repro.obs import ObsConfig
from repro.sim.report import render_table
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate

from conftest import emit, results_path

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
TICKS = 40 if SMOKE else 120
VMS = 10 if SMOKE else 24
REPEATS = 2 if SMOKE else 3

#: Off-path noise envelope: a detached hub is one pointer check.
OFF_FACTOR_MAX = 1.05
#: On-path budget: extra seconds per tick, as a fraction of the
#: control period the controller must fit into.
ON_PERIOD_FRACTION_MAX = 0.05

SPEC = NodeSpec(
    name="bench-obs",
    cpu_model="bench host",
    sockets=1,
    cores_per_socket=8,
    threads_per_core=2,
    fmax_mhz=2400.0,
    fmin_mhz=1200.0,
    memory_mb=64 * 1024,
    freq_jitter_mhz=0.0,
)

VARIANTS = (
    ("off", None),
    ("disabled hub", ObsConfig(
        tracing=False, ledger=False, flight_recorder_ticks=0
    )),
    ("on", ObsConfig()),
)


def _run(obs_config):
    node = Node(SPEC, seed=3)
    hv = Hypervisor(node, enforce_admission=False)
    config = ControllerConfig.paper_evaluation(observability=obs_config)
    ctrl = VirtualFrequencyController(
        node.fs,
        node.procfs,
        node.sysfs,
        num_cpus=SPEC.logical_cpus,
        fmax_mhz=SPEC.fmax_mhz,
        config=config,
    )
    per_vm = SPEC.capacity_mhz / (VMS + 1)
    for k in range(VMS):
        vm = hv.provision(
            VMTemplate("t", vcpus=1, vfreq_mhz=min(1000.0, per_vm)), f"vm-{k}"
        )
        ctrl.register_vm(vm.name, vm.template.vfreq_mhz)
        vm.set_uniform_demand(0.8)
    elapsed = 0.0
    for t in range(TICKS):
        node.step(1.0)
        t0 = time.perf_counter()
        ctrl.tick(float(t))
        elapsed += time.perf_counter() - t0
    return ctrl, elapsed / TICKS


def test_obs_overhead(once):
    def run_interleaved():
        best = {name: float("inf") for name, _ in VARIANTS}
        ctrls = {}
        for _ in range(REPEATS):
            for name, obs_config in VARIANTS:
                ctrl, mean_s = _run(obs_config)
                if mean_s < best[name]:
                    best[name] = mean_s
                ctrls[name] = ctrl
        return best, ctrls

    best, ctrls = once(run_interleaved)

    off_s = best["off"]
    period_s = ctrls["on"].config.period_s

    # The instrumented runs really recorded everything.
    assert ctrls["off"].obs is None
    disabled = ctrls["disabled hub"].obs
    assert disabled is not None
    assert disabled.tracer is None
    assert disabled.ledger is None
    assert disabled.recorder is None
    obs = ctrls["on"].obs
    assert obs is not None
    assert len(obs.ledger.ticks) == TICKS
    assert len(obs.recorder.frames) == min(TICKS, obs.recorder.max_ticks)
    assert obs.ring.trace_ids()[-1] == TICKS - 1

    rows = []
    for name, _ in VARIANTS:
        mean_s = best[name]
        extra_s = mean_s - off_s
        rows.append([
            name,
            f"{mean_s * 1e3:.3f}",
            f"{mean_s / off_s:.3f}x",
            f"{100.0 * max(extra_s, 0.0) / period_s:.4f}%",
        ])
    table = render_table(
        ["hub", "mean tick ms", "vs off", "of control period"],
        rows,
        title=f"observability overhead, {VMS} VMs x {TICKS} ticks, "
              f"min of {REPEATS} interleaved repeats "
              f"(period {period_s:g} s)",
    )
    emit(table)
    with results_path("bench_obs_overhead.csv").open("w") as fh:
        fh.write("variant,mean_tick_s,factor_vs_off,period_fraction\n")
        for name, _ in VARIANTS:
            extra = max(best[name] - off_s, 0.0)
            fh.write(
                f"{name},{best[name]:.9f},{best[name] / off_s:.4f},"
                f"{extra / period_s:.6f}\n"
            )

    # Gate 1: a disabled hub is free (noise envelope only) — both
    # sides measured interleaved, min-of-repeats.
    off_factor = best["disabled hub"] / off_s
    assert off_factor < OFF_FACTOR_MAX, (
        f"disabled-hub tick is {off_factor:.3f}x the bare controller"
    )
    # Gate 2: full recording fits the paper's period budget.
    extra_s = best["on"] - off_s
    fraction = extra_s / period_s
    assert fraction < ON_PERIOD_FRACTION_MAX, (
        f"on: +{extra_s * 1e3:.3f} ms/tick is "
        f"{100 * fraction:.2f}% of the {period_s:g} s control period"
    )
