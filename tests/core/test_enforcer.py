"""Tests for stage 6 — writing cycle allocations as cgroup quotas."""

import pytest

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.core.config import ControllerConfig
from repro.core.enforcer import MIN_QUOTA_US, Enforcer


VCPU = "/machine.slice/vm/vcpu0"


def make(version=CgroupVersion.V2):
    fs = CgroupFS(version)
    fs.makedirs(VCPU)
    return fs, Enforcer(fs, ControllerConfig.paper_evaluation())


def cap(enf, cycles):
    """Cap the one vCPU at ``cycles``; returns the quota written (µs)."""
    return enf.apply({VCPU: cycles})[VCPU]


class TestQuotaScaling:
    def test_full_core_allocation(self):
        fs, enf = make()
        # 1e6 cycles over p=1s -> 100 % of the 100 ms enforcement period.
        quota = cap(enf, 1_000_000.0)
        assert quota == 100_000

    def test_guarantee_scaling_small_template(self):
        fs, enf = make()
        cycles = 1e6 * 500 / 2400  # small's C_i on chetemi
        quota = cap(enf, cycles)
        assert quota == pytest.approx(100_000 * 500 / 2400, abs=1)

    def test_kernel_minimum_respected(self):
        fs, enf = make()
        quota = cap(enf, 1.0)
        assert quota == MIN_QUOTA_US

    def test_negative_rejected(self):
        _, enf = make()
        with pytest.raises(ValueError):
            cap(enf, -1.0)


class TestWrites:
    def test_v2_cpu_max_written(self):
        fs, enf = make()
        cap(enf, 500_000.0)
        assert fs.read("/machine.slice/vm/vcpu0/cpu.max") == "50000 100000\n"

    def test_v1_files_written(self):
        fs, enf = make(CgroupVersion.V1)
        cap(enf, 500_000.0)
        assert fs.read("/machine.slice/vm/vcpu0/cpu.cfs_quota_us") == "50000\n"
        assert fs.read("/machine.slice/vm/vcpu0/cpu.cfs_period_us") == "100000\n"

    def test_scheduler_sees_the_cap(self):
        fs, enf = make()
        cap(enf, 250_000.0)
        assert fs.get_quota(VCPU).ratio() == pytest.approx(0.25)

    def test_apply_many(self):
        fs, enf = make()
        fs.makedirs("/machine.slice/vm/vcpu1")
        written = enf.apply(
            {"/machine.slice/vm/vcpu0": 1e5, "/machine.slice/vm/vcpu1": 2e5}
        )
        assert written == {
            "/machine.slice/vm/vcpu0": 10_000,
            "/machine.slice/vm/vcpu1": 20_000,
        }


class TestUncap:
    def test_v2_uncap(self):
        fs, enf = make()
        cap(enf, 1e5)
        enf.uncap(VCPU)
        assert fs.get_quota(VCPU).unlimited

    def test_v1_uncap(self):
        fs, enf = make(CgroupVersion.V1)
        cap(enf, 1e5)
        enf.uncap(VCPU)
        assert fs.get_quota(VCPU).unlimited

