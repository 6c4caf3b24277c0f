"""Bulk-array backend parity: ``sample_all`` versus the per-file scan
it falls back to, plus the dirty-mask form of ``write_caps``.

Twin identical hosts (same spec, seed, VM population, workloads) are
driven in lockstep; one backend is read through the per-file scan
entered directly, the other through ``sample_all``.  The contract under
test: identical sample values every tick and — under an armed FaultPlan
of any kind — identical perturbations, including crashes at the same
tick, because ``sample_all`` then *is* the per-file scan: faults are
drawn per file, in the scan's order, and the batch entry hook fires
exactly once per batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import HostBackend, SampleBatch
from repro.core.config import ControllerConfig
from repro.core.controller import VirtualFrequencyController
from repro.core.snapshot import restore, snapshot
from repro.faults import ControllerCrash, FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import FAULT_KINDS
from repro.hw.node import MACHINE_SLICE, Node
from repro.hw.nodespecs import CHETEMI
from repro.virt.hypervisor import Hypervisor
from repro.virt.template import VMTemplate
from repro.workloads.base import attach
from repro.workloads.synthetic import ConstantWorkload
from tests.conftest import TINY, make_host

TMPL = VMTemplate("pair", vcpus=2, vfreq_mhz=1100.0)
ENF_US = 100_000
CHURN_OPS = (
    "provision", "destroy", "recreate", "reregister", "set_vfreq",
    "forget", "reset", "tick",
)


def _host(seed=11, plan=None):
    """One host with 3 two-vCPU VMs and a standalone backend."""
    node, hv, _ = make_host(seed=seed)
    if plan is None:
        backend = HostBackend(node.fs, node.procfs, node.sysfs)
    else:
        backend = FaultInjector(plan, node.fs, node.procfs, node.sysfs)
    for k in range(3):
        vm = hv.provision(TMPL, f"vm-{k}")
        attach(vm, ConstantWorkload(2, level=0.3 + 0.2 * k))
    return node, hv, backend


def _sig(samples):
    return sorted(tuple(sorted(s.__dict__.items())) for s in samples)


def _scan(backend, period_s=1.0):
    """One pass of the per-file scan entered directly, with
    ``sample_all``'s batch hook and tolerant-mode outer handling."""
    period_s = backend._begin_sample_batch(period_s)
    try:
        return backend._sample_batched(period_s)
    except OSError:
        if not backend.tolerate_errors:
            raise
        return []


class TestSampleParity:
    def test_bulk_matches_list_over_ticks(self):
        node_a, _, back_a = _host()
        node_b, _, back_b = _host()
        for _ in range(8):
            node_a.step(1.0)
            node_b.step(1.0)
            list_samples = _scan(back_a)
            batch = back_b.sample_all(1.0)
            assert isinstance(batch, SampleBatch)
            assert _sig(list_samples) == _sig(batch.to_samples())

    def test_batch_arrays_consistent_with_samples(self):
        node, _, backend = _host()
        node.step(1.0)
        backend.sample_all(1.0)
        node.step(1.0)
        batch = backend.sample_all(1.0)
        samples = batch.to_samples()
        assert len(batch) == len(samples) == 6
        for i, s in enumerate(samples):
            assert s.cgroup_path == batch.paths[i]
            assert s.vm_name == batch.vm_names[i]
            assert s.vcpu_index == int(batch.vcpu_indices[i])
            assert s.tid == int(batch.tids[i])
            assert s.consumed_cycles == batch.consumed[i]
            assert s.core == int(batch.cores[i])
            assert s.core_freq_mhz == batch.core_freq_mhz[i]

    def test_subset_materialisation(self):
        node, _, backend = _host()
        node.step(1.0)
        batch = backend.sample_all(1.0)
        subset = batch.to_samples([0, 2])
        assert [s.cgroup_path for s in subset] == [
            batch.paths[0], batch.paths[2],
        ]

    def test_roundtrip_from_samples(self):
        node, _, backend = _host()
        node.step(1.0)
        samples = _scan(backend)
        batch = SampleBatch.from_samples(samples, 1.0)
        assert _sig(batch.to_samples()) == _sig(samples)


class TestApplyCapsParity:
    def _caps(self, backend):
        node_paths = backend.sample_all(1.0).paths
        return {p: 20_000 + 1_000 * i for i, p in enumerate(sorted(node_paths))}

    def test_dirty_mask_skips_clean_rows(self):
        node, _, backend = _host()
        node.step(1.0)
        caps = self._caps(backend)
        paths = list(caps)
        quotas = np.array([caps[p] for p in paths], dtype=np.int64)
        backend.write_caps(paths, quotas, ENF_US)
        skipped_before = backend.stats.cap_writes_skipped
        # Change one row only; a dirty mask must write just that row.
        quotas2 = quotas.copy()
        quotas2[2] += 5_000
        dirty = quotas2 != quotas
        missed = backend.write_caps(paths, quotas2, ENF_US, dirty)
        assert missed == []
        assert backend.stats.cap_writes_skipped == skipped_before + len(paths) - 1
        assert node.fs.read(f"{paths[2]}/cpu.max").split() == [
            str(quotas2[2]), str(ENF_US),
        ]
        # And the clean rows still hold their previous quota.
        assert node.fs.read(f"{paths[0]}/cpu.max").split() == [
            str(quotas[0]), str(ENF_US),
        ]

    def test_dirty_mask_reports_missed_rows_by_full_index(self):
        node, _, backend = _host()
        node.step(1.0)
        paths = list(self._caps(backend)) + ["/machine.slice/gone/vcpu0"]
        quotas = np.full(len(paths), 30_000, dtype=np.int64)
        dirty = np.zeros(len(paths), dtype=bool)
        dirty[[1, len(paths) - 1]] = True
        missed = backend.write_caps(paths, quotas, ENF_US, dirty)
        assert missed == [len(paths) - 1]
        assert node.fs.read(f"{paths[1]}/cpu.max").split() == [
            "30000", str(ENF_US),
        ]


def _plan(kind):
    return FaultPlan(
        [
            FaultSpec(
                kind=kind,
                target="*",
                start_tick=1,
                end_tick=3,
                probability=1.0,
                error="EIO",
                jitter_frac=0.05,
            )
        ],
        seed=5,
    )


class TestFaultParity:
    """Under every fault kind ``sample_all`` is the per-file scan."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_samples_identical_under_fault(self, kind):
        node_a, _, back_a = _host(plan=_plan(kind))
        node_b, _, back_b = _host(plan=_plan(kind))
        back_a.tolerate_errors = True
        back_b.tolerate_errors = True
        for tick in range(6):
            node_a.step(1.0)
            node_b.step(1.0)
            a, a_exc = self._try(lambda: _scan(back_a))
            b, b_exc = self._try(lambda: back_b.sample_all(1.0).to_samples())
            if a_exc is not None or b_exc is not None:
                assert type(a_exc) is type(b_exc), (kind, tick, a_exc, b_exc)
                assert str(a_exc) == str(b_exc)
            else:
                assert _sig(a) == _sig(b), (kind, tick)
            # The batch hook advanced both injectors' clocks in lockstep
            # and every fault was drawn per file, in the scan's order.
            assert back_a.tick_index == back_b.tick_index
            assert back_a.injected == back_b.injected

    def test_crash_raises_controller_crash_at_same_tick(self):
        node_a, _, back_a = _host(plan=_plan("crash"))
        node_b, _, back_b = _host(plan=_plan("crash"))
        crashed_a, crashed_b = [], []
        for tick in range(6):
            node_a.step(1.0)
            node_b.step(1.0)
            _, a_exc = self._try(lambda: _scan(back_a))
            _, b_exc = self._try(lambda: back_b.sample_all(1.0))
            if isinstance(a_exc, ControllerCrash):
                crashed_a.append(tick)
            if isinstance(b_exc, ControllerCrash):
                crashed_b.append(tick)
        assert crashed_a == crashed_b
        assert crashed_a  # the 1..3 window with p=1.0 must fire

    @staticmethod
    def _try(fn):
        try:
            return fn(), None
        except Exception as exc:  # noqa: BLE001 - parity needs every kind
            return None, exc


class TestSnapshotRestoreParity:
    def test_bulk_identical_after_restore(self):
        """A bulk-engine controller restored from a snapshot mid-run
        produces the same reports as an uninterrupted twin."""

        def build(seed=23):
            node, hv, _ = make_host(seed=seed)
            ctrl = VirtualFrequencyController(
                node.fs, node.procfs, node.sysfs,
                num_cpus=node.spec.logical_cpus,
                fmax_mhz=node.spec.fmax_mhz,
                config=ControllerConfig.paper_evaluation(engine="bulk"),
            )
            for k in range(3):
                vm = hv.provision(TMPL, f"vm-{k}")
                attach(vm, ConstantWorkload(2, level=0.3 + 0.2 * k))
                ctrl.register_vm(vm.name, TMPL.vfreq_mhz)
            return node, ctrl

        node_x, ctrl_x = build()
        node_y, ctrl_y = build()
        for tick in range(5):
            node_x.step(1.0)
            node_y.step(1.0)
            ctrl_x.tick(float(tick + 1))
            ctrl_y.tick(float(tick + 1))
        # Y's controller restarts: fresh instance, state from snapshot.
        state = snapshot(ctrl_y)
        ctrl_y2 = VirtualFrequencyController(
            node_y.fs, node_y.procfs, node_y.sysfs,
            num_cpus=node_y.spec.logical_cpus,
            fmax_mhz=node_y.spec.fmax_mhz,
            config=ControllerConfig.paper_evaluation(engine="bulk"),
        )
        restore(ctrl_y2, state)
        for tick in range(5, 10):
            node_x.step(1.0)
            node_y.step(1.0)
            rx = ctrl_x.tick(float(tick + 1))
            ry = ctrl_y2.tick(float(tick + 1))
            assert rx.allocations == ry.allocations, tick
            assert rx.wallets == ry.wallets
            assert _sig(rx.samples) == _sig(ry.samples)
            dx = {p: (d.estimate_cycles, d.trend, d.case)
                  for p, d in rx.decisions.items()}
            dy = {p: (d.estimate_cycles, d.trend, d.case)
                  for p, d in ry.decisions.items()}
            assert dx == dy


class TestChurnPatch:
    """VM churn patches the fast path's cached topology: only the VMs
    that changed are walked, and every batch stays bit-identical to a
    full walk of the same node state."""

    def test_churn_cost_scales_with_changed_vms(self):
        node = Node(CHETEMI, seed=5)
        hv = Hypervisor(node)
        ctrl = VirtualFrequencyController(
            node.fs, node.procfs, node.sysfs,
            num_cpus=node.spec.logical_cpus,
            fmax_mhz=node.spec.fmax_mhz,
            config=ControllerConfig.paper_evaluation(engine="bulk"),
        )
        for k in range(20):
            vm = hv.provision(TMPL, f"vm-{k}")
            attach(vm, ConstantWorkload(2, level=0.5))
            ctrl.register_vm(vm.name, TMPL.vfreq_mhz)
        t = 0.0

        def tick_delta():
            nonlocal t
            t += 1.0
            node.step(1.0)
            before = ctrl.backend.stats.copy()
            ctrl.tick(t)
            return ctrl.backend.stats - before

        for _ in range(3):
            tick_delta()  # cold walk, then steady state
        steady = tick_delta()
        assert (steady.topology_rescans, steady.fs_listdirs) == (0, 1)
        assert steady.fs_reads == 40

        # "vm-20" sorts between "vm-2" and "vm-3": a mid-order insert.
        vm = hv.provision(TMPL, "vm-20")
        attach(vm, ConstantWorkload(2, level=0.5))
        ctrl.register_vm(vm.name, TMPL.vfreq_mhz)
        arrive = tick_delta()
        assert arrive.topology_rescans == 0
        assert arrive.fs_listdirs == 2  # slice + the new VM only
        assert arrive.fs_reads == 42 + 2  # cpu.stat each + 2 cgroup.threads

        hv.destroy("vm-7")
        ctrl.unregister_vm("vm-7")
        depart = tick_delta()
        assert depart.topology_rescans == 0
        assert depart.fs_listdirs == 1
        assert depart.fs_reads == 40  # cpu.stat only, no cgroup.threads
        assert len(ctrl.reports[-1].samples) == 40

    @pytest.mark.parametrize("version", [1, 2])
    def test_churn_resolves_only_walked_vms(self, monkeypatch, version):
        """A churn tick looks up cgroup nodes and column rows only for
        the arriving VM's vCPUs; surviving VMs keep theirs."""
        from repro.cgroups.cpu import CpuController
        from repro.cgroups.fs import CgroupFS, CgroupVersion

        node = Node(TINY, cgroup_version=CgroupVersion(version), seed=3)
        hv = Hypervisor(node, enforce_admission=False)
        backend = HostBackend(node.fs, node.procfs, node.sysfs)
        for k in range(6):
            hv.provision(TMPL, f"vm-{k}")
        backend.sample_all(1.0)  # discovery walk
        node.step(1.0)
        backend.sample_all(1.0)
        hv.provision(TMPL, "vm-10")  # sorts between vm-1 and vm-2
        backend.invalidate()  # what register_vm tells a backend
        node.step(1.0)
        looked_up, rows_read = [], []
        node_of, row_of = CgroupFS.node, CpuController.row

        def counted_node(fs, path):
            looked_up.append(path)
            return node_of(fs, path)

        def counted_row(cpu):
            rows_read.append(cpu)
            return row_of.fget(cpu)

        monkeypatch.setattr(CgroupFS, "node", counted_node)
        monkeypatch.setattr(CpuController, "row", property(counted_row))
        batch = backend.sample_all(1.0)
        assert backend.stats.topology_rescans == 1  # the discovery walk
        walked = {p for p in looked_up if p != MACHINE_SLICE}
        assert walked and all(p.startswith(f"{MACHINE_SLICE}/vm-10") for p in walked)
        assert len(rows_read) == TMPL.vcpus
        assert len(batch) == 7 * TMPL.vcpus

    def test_incomplete_walks_keep_the_paths_list(self):
        """A vCPU whose thread exited leaves every walk incomplete; while
        the walked paths stay the same, each batch hands out the same
        list object, so callers' identity caches keep their views."""
        node, hv, backend = _host()
        backend.sample_all(1.0)
        vcpu = hv.vm("vm-1").vcpus[0]
        node.fs.node(vcpu.cgroup_path).detach_thread(vcpu.tid)
        node.procfs.kill(vcpu.tid)
        node.unregister_entity(vcpu.tid)
        batches = []
        for _ in range(3):
            node.step(1.0)
            batches.append(backend.sample_all(1.0))
        assert backend._topology is None
        assert vcpu.cgroup_path not in batches[0].paths
        assert batches[1].paths is batches[0].paths
        assert batches[2].paths is batches[0].paths

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(CHURN_OPS),
                st.integers(0, 1_000),
                st.sampled_from((1, 2, 12)),
                st.booleans(),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_patched_batches_match_full_walk(self, ops):
        node = Node(TINY, seed=3)
        hv = Hypervisor(node, enforce_admission=False)
        fast = HostBackend(node.fs, node.procfs, node.sysfs)
        walk = HostBackend(node.fs, node.procfs, node.sysfs)
        backends = (fast, walk)
        live = []

        def provision(name, vcpus):
            vm = hv.provision(
                VMTemplate("churn", vcpus=vcpus, vfreq_mhz=100.0, memory_mb=1),
                name,
            )
            attach(vm, ConstantWorkload(vcpus, level=0.5))
            return vm

        def unregister(vm):
            # What VirtualFrequencyController.unregister_vm tells a backend.
            for b in backends:
                for vcpu in vm.vcpus:
                    b.forget_vcpu(vcpu.cgroup_path)
                b.invalidate()

        def register():
            for b in backends:
                b.invalidate()

        def tick_and_compare():
            node.step(1.0)
            got = fast.sample_all(1.0)
            walk._topology = None
            want = walk.sample_all(1.0)
            assert got.paths == want.paths
            assert got.vm_names == want.vm_names
            for col in ("vcpu_indices", "tids", "consumed", "cores",
                        "core_freq_mhz", "vfreq_mhz"):
                assert [float(x).hex() for x in getattr(got, col)] == [
                    float(x).hex() for x in getattr(want, col)
                ], col

        # Most drawn names sort before "vm-8", so arrivals land
        # mid-order; "vm-8"'s vcpu10 sorts before its vcpu2.
        live += [provision("vm-2", 2), provision("vm-8", 12)]
        tick_and_compare()  # cold walk
        tick_and_compare()  # fast route on the walked topology
        for op, pick, vcpus, flag in ops:
            vm = live[pick % len(live)] if live else None
            if op == "provision":
                # A drawn name sorts anywhere among the live ones.
                if f"vm-{pick}" not in {v.name for v in live}:
                    live.append(provision(f"vm-{pick}", vcpus))
                    if flag:
                        register()
            elif vm is None:
                pass
            elif op == "destroy":
                hv.destroy(vm.name)
                live.remove(vm)
                if flag:
                    unregister(vm)
            elif op == "recreate":
                # Destroy and re-provision under the same name between
                # two ticks; the new cgroups are new nodes.
                hv.destroy(vm.name)
                unregister(vm)
                live[live.index(vm)] = provision(vm.name, vcpus)
                register()
            elif op == "reregister":
                unregister(vm)
                register()
            elif op == "set_vfreq":
                register()
            elif op == "forget":
                path = vm.vcpus[pick % len(vm.vcpus)].cgroup_path
                for b in backends:
                    b.forget_usage(path)
            elif op == "reset":
                # What VirtualFrequencyController.reset tells a backend.
                for b in backends:
                    b._prev_usage.clear()
                    b.invalidate()
            tick_and_compare()
        assert walk.stats.topology_rescans == len(ops) + 2
        # Every churn step above was patched, none re-walked.
        assert fast.stats.topology_rescans == 1
