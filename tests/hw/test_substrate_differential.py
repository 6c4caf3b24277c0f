"""The plain-float host substrate against the NumPy reference, tick after tick.

:meth:`repro.hw.node.Node.step` advances thread placement, per-core
load, DVFS and the ``/proc`` and cpufreq surfaces with plain Python
floats.  ``tests/hw/substrate_reference.py`` keeps the NumPy
formulation.  These tests drive both over the same inputs — core counts
1, 4, 40 and 64, frequency domains of 1 and 4 cores, with and without
jitter, ``dt`` below, at and above 1 s, empty hosts, idle and
overflowing cores, threads arriving and leaving between ticks — and
require bit-identical frequencies, placements, per-core loads and
``/proc`` counters after every tick.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cpu import DvfsModel
from repro.hw.node import MACHINE_SLICE, Node
from repro.hw.nodespecs import NodeSpec
from repro.sched.affinity import AffinityModel
from repro.sched.entity import SchedEntity
from tests.hw import substrate_reference as ref

#: (logical CPUs, cores per DVFS domain)
SHAPES = [(1, 1), (4, 1), (4, 4), (40, 1), (40, 4), (64, 1), (64, 4)]
DTS = [0.25, 1.0, 2.5]
JITTERS = [0.0, 25.0, 110.0]

demands = st.sampled_from([0.0, 0.03, 1.0]) | st.floats(0.0, 1.0)


def _hex(values):
    return [float(v).hex() for v in values]


def _spec(cores, domain, jitter):
    return NodeSpec(
        name="diff",
        cpu_model="differential test CPU",
        sockets=1,
        cores_per_socket=cores,
        threads_per_core=1,
        fmax_mhz=2400.0,
        fmin_mhz=1200.0,
        memory_mb=1024,
        freq_jitter_mhz=jitter,
        freq_domain_size=domain,
    )


def _arrive(node, vm, demand):
    path = f"{MACHINE_SLICE}/vm{vm}/vcpu0"
    node.fs.makedirs(path)
    tid = node.procfs.spawn(f"CPU 0/KVM vm{vm}")
    node.register_entity(SchedEntity(tid=tid, cgroup_path=path, demand=demand))
    return tid


def _leave(node, tid):
    node.unregister_entity(tid)
    node.procfs.kill(tid)


def _observed(node, load):
    tids = sorted(e.tid for e in node.entities)
    return {
        "freqs": _hex(node.dvfs.freqs_mhz),
        "load": _hex(load),
        "placement": sorted(node.affinity._placement.items()),
        "proc": [(t, node.procfs.stat(t).utime_ticks, node.procfs.stat(t).processor) for t in tids],
        "sysfs": [node.sysfs.scaling_cur_freq(c) for c in range(node.spec.logical_cpus)],
        "energy": node.energy.energy_j.hex(),
        "runnable": node.runnable_threads,
    }


class TestNodeStepMatchesReference:
    @given(st.sampled_from(SHAPES), st.sampled_from(JITTERS), st.integers(0, 2**16), st.data())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_under_churn(self, shape, jitter, seed, data):
        cores, domain = shape
        spec = _spec(cores, domain, jitter)
        node, twin = Node(spec, seed=seed), ref.reference_node(spec, seed=seed)
        # Record the per-core load Node.step computes (it keeps none).
        loads = []
        load_per_core = node.affinity.load_per_core
        node.affinity.load_per_core = lambda c, u: loads.append(load_per_core(c, u)) or loads[-1]

        live, vm = [], 0
        for d in data.draw(st.lists(demands, max_size=2 * cores + 2), label="threads"):
            live.append(_arrive(node, vm, d))
            assert _arrive(twin, vm, d) == live[-1]
            vm += 1
        for _ in range(data.draw(st.integers(2, 5), label="ticks")):
            for _ in range(data.draw(st.integers(0, 4), label="departures")):
                if live:
                    tid = live.pop(data.draw(st.integers(0, len(live) - 1)))
                    _leave(node, tid)
                    _leave(twin, tid)
            for d in data.draw(st.lists(demands, max_size=6), label="arrivals"):
                live.append(_arrive(node, vm, d))
                assert _arrive(twin, vm, d) == live[-1]
                vm += 1
            for tid in live:
                if data.draw(st.booleans()):
                    d = data.draw(demands)
                    node.entity(tid).demand = d
                    twin.entity(tid).demand = d
            dt = data.draw(st.sampled_from(DTS), label="dt")
            node.step(dt)
            ref_load = ref.node_step(twin, dt)
            assert _observed(node, loads[-1]) == _observed(twin, ref_load)


class TestModelsMatchReference:
    """The per-core models alone, on inputs ``Node.step`` rarely makes:
    crowded cores with plenty of headroom elsewhere, where the overflow
    sum's order shows in the last bits."""

    @given(
        st.sampled_from(SHAPES),
        st.integers(0, 2**16),
        st.integers(0, 200),
        st.integers(1, 16),
        st.sampled_from(DTS),
    )
    @settings(max_examples=150, deadline=None)
    def test_placement_and_load(self, shape, seed, n_threads, hot, dt):
        cores, _ = shape
        # Generic (non-dyadic) utilisations, some idle and some saturated
        # threads, so sums round differently in different orders.
        rng = np.random.default_rng(seed)
        kinds, values = rng.random(n_threads), rng.random(n_threads)
        utils = [0.0 if k < 0.15 else 1.0 if k > 0.9 else u for k, u in zip(kinds, values)]
        model, reference = AffinityModel(cores, seed=seed), ref.AffinityModel(cores, seed=seed)
        tids = list(range(n_threads))
        for _ in range(2):
            placed = model.step(tids, utils, dt)
            assert placed == reference.step(tids, utils, dt)
            assert _hex(model.load_per_core(placed, utils)) == _hex(reference.load_per_core(placed, utils))
            # Crowd the threads onto ``hot`` cores: they overflow while
            # the rest keep their headroom.
            crowded = [c % min(hot, cores) for c in placed]
            assert _hex(model.load_per_core(crowded, utils)) == _hex(reference.load_per_core(crowded, utils))

    @given(
        st.sampled_from(SHAPES),
        st.sampled_from(JITTERS),
        st.integers(0, 2**16),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_dvfs(self, shape, jitter, seed, data):
        cores, domain = shape
        args = dict(
            num_cpus=cores, fmax_mhz=2400.0, fmin_mhz=1200.0,
            jitter_mhz=jitter, seed=seed, domain_size=domain,
        )
        model, reference = DvfsModel(**args), ref.DvfsModel(**args)
        for _ in range(data.draw(st.integers(1, 4), label="ticks")):
            util = data.draw(st.lists(st.floats(-1e-9, 1.0 + 1e-9), min_size=cores, max_size=cores))
            dt = data.draw(st.sampled_from(DTS), label="dt")
            model.step(util, dt)
            reference.step(util, dt)
            assert _hex(model.freqs_mhz) == _hex(reference.freqs_mhz)
            assert _hex(model.freqs_khz()) == _hex(reference.freqs_khz())
            assert model.mean_mhz().hex() == reference.mean_mhz().hex()
            assert model.std_mhz().hex() == reference.std_mhz().hex()
