"""Tests for stage 6 — the quota rule and the cap writes it feeds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgroups.fs import CgroupFS, CgroupVersion
from repro.core.backend import HostBackend
from repro.core.config import ControllerConfig
from repro.core.enforcer import MIN_QUOTA_US, quota_us, quota_us_array

CFG = ControllerConfig.paper_evaluation()
VCPU = "/machine.slice/vm/vcpu0"


def make(version=CgroupVersion.V2):
    fs = CgroupFS(version)
    fs.makedirs(VCPU)
    return fs, HostBackend(fs)


def cap(backend, caps):
    """Write ``{path: cycles}`` as quotas; returns the rows not in force."""
    return backend.write_caps(
        list(caps),
        [quota_us(c, CFG) for c in caps.values()],
        CFG.enforcement_period_us,
    )


class TestQuotaScaling:
    def test_full_core_allocation(self):
        # 1e6 cycles over p=1s -> 100 % of the 100 ms enforcement period.
        assert quota_us(1_000_000.0, CFG) == 100_000

    def test_guarantee_scaling_small_template(self):
        cycles = 1e6 * 500 / 2400  # small's C_i on chetemi
        assert quota_us(cycles, CFG) == pytest.approx(100_000 * 500 / 2400, abs=1)

    def test_kernel_minimum_respected(self):
        assert quota_us(1.0, CFG) == MIN_QUOTA_US

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quota_us(-1.0, CFG)

    def test_ties_round_half_to_even(self):
        # 10_005 cycles scale to exactly 1000.5 µs, 10_015 to 1001.5.
        assert quota_us(10_005.0, CFG) == 1_000
        assert quota_us(10_015.0, CFG) == 1_002
        assert quota_us_array(np.array([10_005.0, 10_015.0]), CFG).tolist() == [
            1_000, 1_002,
        ]


@st.composite
def config_and_cycles(draw):
    """A period/enforcement pair and allocations that stress the rule:
    anywhere up to one core, exact .5 ties, and below the 1 ms floor."""
    period_s = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    enf = draw(st.sampled_from([10_000, 50_000, 100_000, 250_000]))
    cfg = ControllerConfig.paper_evaluation(
        period_s=period_s, enforcement_period_us=enf
    )
    p_us = period_s * 1e6
    step = p_us / enf  # cycles per quota µs (exact for these pairs)
    tie = st.integers(0, enf).map(lambda k: (k + 0.5) * step)
    below = st.floats(0.0, MIN_QUOTA_US * step, allow_nan=False)
    anywhere = st.floats(0.0, p_us, allow_nan=False)
    return cfg, draw(st.lists(st.one_of(tie, below, anywhere), max_size=40))


class TestArrayForm:
    @settings(max_examples=300, deadline=None)
    @given(config_and_cycles())
    def test_array_form_matches_scalar_bit_for_bit(self, case):
        cfg, cycles = case
        got = quota_us_array(np.asarray(cycles, dtype=np.float64), cfg)
        assert got.dtype == np.int64
        assert got.tolist() == [quota_us(c, cfg) for c in cycles]


class TestWrites:
    def test_v2_cpu_max_written(self):
        fs, backend = make()
        assert cap(backend, {VCPU: 500_000.0}) == []
        assert fs.read(f"{VCPU}/cpu.max") == "50000 100000\n"

    def test_v1_files_written(self):
        fs, backend = make(CgroupVersion.V1)
        assert cap(backend, {VCPU: 500_000.0}) == []
        assert fs.read(f"{VCPU}/cpu.cfs_quota_us") == "50000\n"
        assert fs.read(f"{VCPU}/cpu.cfs_period_us") == "100000\n"

    def test_scheduler_sees_the_cap(self):
        fs, backend = make()
        cap(backend, {VCPU: 250_000.0})
        assert fs.get_quota(VCPU).ratio() == pytest.approx(0.25)

    def test_apply_many(self):
        fs, backend = make()
        fs.makedirs("/machine.slice/vm/vcpu1")
        missed = cap(
            backend,
            {"/machine.slice/vm/vcpu0": 1e5, "/machine.slice/vm/vcpu1": 2e5},
        )
        assert missed == []
        assert fs.read("/machine.slice/vm/vcpu0/cpu.max") == "10000 100000\n"
        assert fs.read("/machine.slice/vm/vcpu1/cpu.max") == "20000 100000\n"
