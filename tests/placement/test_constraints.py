"""Tests for placement constraints (classic vs Eq. 7)."""

import pytest

from repro.hw.nodespecs import CHETEMI, CHICLET
from repro.placement.constraints import (
    CoreSplittingConstraint,
    NodeUsage,
    VcpuCountConstraint,
)
from repro.placement.request import PlacementRequest
from repro.virt.template import LARGE, SMALL, VMTemplate


def req(template, name="r"):
    return PlacementRequest(name, template)


class TestVcpuCount:
    def test_fits_up_to_logical_cpus(self):
        c = VcpuCountConstraint()
        usage = NodeUsage()
        # chetemi: 40 logical cpus -> 10 large (4 vCPUs) fit
        for k in range(10):
            r = req(LARGE, f"l{k}")
            assert c.fits(CHETEMI, usage, r)
            usage.add(r)
        assert not c.fits(CHETEMI, usage, req(SMALL))

    def test_consolidation_factor_x18(self):
        c = VcpuCountConstraint(consolidation_factor=1.8)
        usage = NodeUsage()
        # chiclet: 64 * 1.8 = 115.2 vCPUs -> 28 large VMs (112 vCPUs), paper §IV-C
        for k in range(28):
            r = req(LARGE, f"l{k}")
            assert c.fits(CHICLET, usage, r)
            usage.add(r)
        assert not c.fits(CHICLET, usage, req(LARGE, "l28"))

    def test_headroom(self):
        c = VcpuCountConstraint()
        usage = NodeUsage()
        usage.add(req(LARGE))
        assert c.headroom(CHETEMI, usage) == pytest.approx(36.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VcpuCountConstraint(consolidation_factor=0.0)


class TestCoreSplitting:
    def test_eq7_capacity_chetemi(self):
        c = CoreSplittingConstraint()
        usage = NodeUsage()
        # Table II: 20 small + 10 large = 92 000 <= 96 000 MHz
        for k in range(20):
            usage.add(req(SMALL, f"s{k}"))
        for k in range(9):
            usage.add(req(LARGE, f"l{k}"))
        assert c.fits(CHETEMI, usage, req(LARGE, "l9"))
        usage.add(req(LARGE, "l9"))
        # one more large would need 99 200 > 96 000
        assert not c.fits(CHETEMI, usage, req(LARGE, "l10"))
        # but another 4 small (4 000) still fit
        assert c.fits(CHETEMI, usage, req(SMALL, "extra"))

    def test_vfreq_above_fmax_unplaceable(self):
        c = CoreSplittingConstraint()
        turbo = VMTemplate("turbo", vcpus=1, vfreq_mhz=3000.0)
        assert not c.fits(CHETEMI, NodeUsage(), req(turbo))

    def test_core_splitting_enables_overcommit_by_count(self):
        """The paper's pitch: a 2400 MHz core can host multiple slow vCPUs
        without count-based overcommitment."""
        c = CoreSplittingConstraint()
        usage = NodeUsage()
        # 96 small VMs = 192 vCPUs on 40 logical CPUs, but only 96 000 MHz
        for k in range(96):
            r = req(SMALL, f"s{k}")
            assert c.fits(CHETEMI, usage, r)
            usage.add(r)
        assert usage.vcpus == 192
        assert not c.fits(CHETEMI, usage, req(SMALL, "s96"))

    def test_headroom_in_mhz(self):
        c = CoreSplittingConstraint()
        usage = NodeUsage()
        usage.add(req(LARGE))
        assert c.headroom(CHETEMI, usage) == pytest.approx(96_000 - 7_200)

    def test_consolidation_factor_on_eq7(self):
        """§III-C: Eq. 7 can also take a consolidation factor — at the
        documented price of losing the strict guarantee."""
        c = CoreSplittingConstraint(consolidation_factor=1.2)
        usage = NodeUsage()
        # 96 small saturate the unscaled capacity ...
        for k in range(96):
            usage.add(req(SMALL, f"s{k}"))
        # ... x1.2 admits ~19 more
        extra = 0
        while c.fits(CHETEMI, usage, req(SMALL, f"x{extra}")):
            usage.add(req(SMALL, f"x{extra}"))
            extra += 1
        assert extra == 19
        assert usage.demand_mhz > CHETEMI.capacity_mhz  # guarantee lost
