"""Bulk-engine benches.

Two measurements back the bulk-array backend API (docs/api.md):

1. full-tick cost of the scalar and bulk engines at the paper's
   dense-host size — the ``bulk`` engine must beat the scalar reference
   on the *whole* tick (stages 1 and 6 included), not just the
   vectorised middle;
2. a 10k-VM single-process ``bulk`` tick, which must fit inside one
   1 s control period — the paper's "negligible fraction of the
   period" requirement (§III-B2) pushed to cloud-host density;
3. the stage-4 auction on an auction-heavy host: the paper's eval1
   chiclet mix with funded wallets, selling thousands of 1 % windows
   per tick.  Stepping the auction one purchase at a time again would
   cost several milliseconds per tick here, which the gate catches.

All land in ``benchmarks/results/BENCH_controller.json`` (sections
``bulk``/``tick10k``/``auction``; the ``*_smoke`` variants under
``BENCH_SMOKE=1`` go to the gitignored ``benchmarks/smoke-results/``)
and are gated against the committed repo-root baseline by
``check_perf_regression.py``.
"""

import json
import os
import time
from statistics import median

from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.units import period_us
from repro.hw.node import Node
from repro.hw.nodespecs import CHICLET, NodeSpec
from repro.sim.report import render_table
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import LARGE, SMALL, VMTemplate

from bench_scaling import _controller_host, _stage25
from conftest import bench_env, emit, results_path, spread

PERF_SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: one control period — the hard budget every tick must fit inside
CONTROL_PERIOD_S = 1.0

# -- shared helpers --------------------------------------------------------------


def _suffix():
    return "_smoke" if PERF_SMOKE else ""


def _merge_section(name, section):
    out_path = results_path("BENCH_controller.json")
    existing = {}
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing[name + _suffix()] = section
    out_path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def _stage_costs(reports):
    """Median per-tick stage costs — robust to scheduler/GC spikes, so
    the regression gate sees the recurring cost, not one noisy tick."""
    return {
        "stage1_seconds_per_tick": median(r.timings.monitor for r in reports),
        "stage2_5_seconds_per_tick": median(_stage25(r.timings) for r in reports),
        "stage6_seconds_per_tick": median(r.timings.enforce for r in reports),
        "total_seconds_per_tick": median(r.timings.total for r in reports),
    }


# -- 1. scalar vs bulk full-tick comparison --------------------------------------

#: The smoke host is the larger one (the full run is the paper's
#: dense-host size).  The regression gate fails a leaf above baseline
#: x 1.25 + 2 ms; bulk stage 1 costs ~0.17 ms per 1,000 VMs (1.9 ms at
#: 12,000), so at 16,000 VMs every bulk baseline is above the 2 ms and
#: the recorded ones fail stage 1 at ~1.9x, stage 6 at ~1.5x, stages
#: 2-5 at ~1.4x and the whole tick at ~1.3x.
ENGINE_VMS = 16_000 if PERF_SMOKE else 160
ENGINE_TICKS = 8 if PERF_SMOKE else 25


def _measure_engine(engine):
    node, ctrl = _controller_host(ENGINE_VMS, engine=engine)
    t = 1.0
    for _ in range(ctrl.config.history_len + 1):
        node.step(1.0)
        t += 1.0
        ctrl.tick(t)
    reports = []
    for _ in range(ENGINE_TICKS):
        node.step(1.0)
        t += 1.0
        reports.append(ctrl.tick(t))
    return _stage_costs(reports), reports


def test_bulk_full_tick_speedup(once):
    """Scalar vs bulk full-tick cost; records the ``bulk`` baseline
    section.  The report streams must be bit-identical — the speedup
    may not come from computing something else."""

    def compare():
        return {engine: _measure_engine(engine)
                for engine in ("scalar", "bulk")}

    measured = once(compare)

    _, scalar_reports = measured["scalar"]
    _, bulk_reports = measured["bulk"]
    for i, (a, b) in enumerate(zip(scalar_reports, bulk_reports)):
        assert a.allocations == b.allocations, f"tick {i}: allocations differ"
        assert a.wallets == b.wallets, f"tick {i}: wallets differ"
        assert a.market_initial == b.market_initial, f"tick {i}"
        assert a.freely_distributed == b.freely_distributed, f"tick {i}"

    costs = {engine: m[0] for engine, m in measured.items()}
    speedup = (
        costs["scalar"]["total_seconds_per_tick"]
        / costs["bulk"]["total_seconds_per_tick"]
    )
    section = {
        "env": bench_env(ENGINE_TICKS),
        "num_vms": ENGINE_VMS,
        "ticks": ENGINE_TICKS,
        "speedup_total_vs_scalar": speedup,
        **costs,
    }
    _merge_section("bulk", section)

    emit(
        render_table(
            ["engine", "stage 1", "stage 2-5", "stage 6", "total / tick"],
            [
                [
                    engine,
                    f"{c['stage1_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['stage2_5_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['stage6_seconds_per_tick'] * 1e3:.3f} ms",
                    f"{c['total_seconds_per_tick'] * 1e3:.3f} ms",
                ]
                for engine, c in costs.items()
            ]
            + [["bulk vs scalar", "", "", "", f"{speedup:.2f}x"]],
            title=f"full-tick engine comparison at {ENGINE_VMS} VMs",
        )
    )
    if not PERF_SMOKE:
        # at full density the array path must win the *whole* tick
        assert speedup > 1.0, (
            f"bulk full tick ({costs['bulk']['total_seconds_per_tick'] * 1e3:.2f} ms)"
            f" not faster than scalar"
            f" ({costs['scalar']['total_seconds_per_tick'] * 1e3:.2f} ms)"
        )


# -- 2. the 10k-VM single-process tick -------------------------------------------

TICK10K_VMS = 2_000 if PERF_SMOKE else 10_000
#: The smoke host's caps keep moving (every quota rewritten) for ~7
#: ticks after warmup, then settle; 40 ticks put both medians well
#: inside the settled regime.  The full host settles at once.
TICK10K_TICKS = 40 if PERF_SMOKE else 5


def _dense_host(num_vms):
    """One fat host packed with single-vCPU VMs under the bulk engine."""
    spec = NodeSpec(
        name="dense10k",
        cpu_model="bench",
        sockets=2,
        cores_per_socket=32,
        threads_per_core=2,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=2048 * 1024,
        freq_jitter_mhz=0.0,
    )
    node = Node(spec, seed=1)
    hv = Hypervisor(node, enforce_admission=False)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=spec.logical_cpus, fmax_mhz=spec.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    ctrl.keep_reports = False
    template = VMTemplate("tenant", vcpus=1, vfreq_mhz=100.0)
    for k in range(num_vms):
        vm = hv.provision(template, f"t-{k}")
        ctrl.register_vm(vm.name, template.vfreq_mhz)
        vm.set_uniform_demand(0.4 + 0.1 * (k % 7))
    return node, ctrl


def test_tick_10k_inside_control_period(once):
    """A 10k-VM host must tick well inside one 1 s control period in a
    single process — the density target the bulk interface exists for."""

    def run():
        node, ctrl = _dense_host(TICK10K_VMS)
        t = 1.0
        for _ in range(ctrl.config.history_len + 1):
            node.step(1.0)
            t += 1.0
            ctrl.tick(t)
        reports, walls = [], []
        for _ in range(TICK10K_TICKS):
            node.step(1.0)
            t += 1.0
            t0 = time.perf_counter()
            reports.append(ctrl.tick(t))
            walls.append(time.perf_counter() - t0)
        return reports, walls

    reports, walls = once(run)
    section = {
        "num_vms": TICK10K_VMS,
        "ticks": TICK10K_TICKS,
        "engine": "bulk",
        "control_period_s": CONTROL_PERIOD_S,
        "max_tick_seconds": max(walls),
        "env": bench_env(TICK10K_TICKS),
        "stage6_spread": spread([r.timings.enforce for r in reports]),
        "total_spread": spread([r.timings.total for r in reports]),
        **_stage_costs(reports),
    }
    _merge_section("tick10k", section)

    emit(
        render_table(
            ["VMs", "mean tick", "worst tick", "budget"],
            [[
                TICK10K_VMS,
                f"{section['total_seconds_per_tick'] * 1e3:.1f} ms",
                f"{max(walls) * 1e3:.1f} ms",
                f"{CONTROL_PERIOD_S * 1e3:.0f} ms",
            ]],
            title="single-process bulk tick at cloud density",
        )
    )
    assert max(walls) < CONTROL_PERIOD_S, (
        f"worst tick {max(walls):.3f}s blows the {CONTROL_PERIOD_S}s control period"
    )


# -- 3. the auction on an auction-heavy host -------------------------------------

AUCTION_TICKS = 8 if PERF_SMOKE else 25
#: a wallet no small VM can drain within the run (cycles)
FUNDED_WALLET = 1e9


def _auction_host():
    """The eval1 chiclet mix (32 small + 16 large VMs), bulk engine.

    The large VMs idle at 30 % of a core, leaving ~30e6 cycles on the
    market each period.  Every small vCPU wants a full core and its VM
    can pay, so one auction sells the market in ~3000 windows of the
    paper's 1 %.
    """
    node = Node(CHICLET, seed=1)
    hv = Hypervisor(node)
    ctrl = VirtualFrequencyController(
        node.fs, node.procfs, node.sysfs,
        num_cpus=CHICLET.logical_cpus, fmax_mhz=CHICLET.fmax_mhz,
        config=ControllerConfig.paper_evaluation(engine="bulk"),
    )
    ctrl.keep_reports = False
    for template, count, level in ((SMALL, 32, 1.0), (LARGE, 16, 0.3)):
        for k in range(count):
            vm = hv.provision(template, f"{template.name}-{k}")
            ctrl.register_vm(vm.name, template.vfreq_mhz)
            vm.set_uniform_demand(level)
            if template is SMALL:
                ctrl.ledger.set_balance(vm.name, FUNDED_WALLET)
    return node, ctrl


def test_auction_heavy_host(once):
    """Stage 4 where the auction dominates; records the ``auction``
    baseline section."""

    def run():
        node, ctrl = _auction_host()
        t = 1.0
        for _ in range(ctrl.config.history_len + 1):
            node.step(1.0)
            t += 1.0
            ctrl.tick(t)
        reports = []
        for _ in range(AUCTION_TICKS):
            node.step(1.0)
            t += 1.0
            reports.append(ctrl.tick(t))
        return ctrl, reports

    ctrl, reports = once(run)
    window = ctrl.config.auction_window_frac * period_us(ctrl.config.period_s)
    sold = median(sum(r.auction.spent_per_vm.values()) for r in reports)
    section = {
        "num_vms": 48,
        "ticks": AUCTION_TICKS,
        "windows_sold_per_tick": sold / window,
        "auction_rounds_per_tick": median(r.auction.rounds for r in reports),
        "auction_seconds_per_tick": median(r.timings.auction for r in reports),
        "total_seconds_per_tick": median(r.timings.total for r in reports),
    }
    _merge_section("auction", section)

    emit(
        render_table(
            ["windows sold", "rounds", "stage 4", "total / tick"],
            [[
                f"{section['windows_sold_per_tick']:.0f}",
                f"{section['auction_rounds_per_tick']:.0f}",
                f"{section['auction_seconds_per_tick'] * 1e3:.3f} ms",
                f"{section['total_seconds_per_tick'] * 1e3:.3f} ms",
            ]],
            title="stage-4 auction on the eval1 chiclet mix, funded wallets",
        )
    )
    # the host must stay auction-heavy, or the gate measures nothing
    assert section["windows_sold_per_tick"] > 1000
