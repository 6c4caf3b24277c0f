"""Unit tests for repro.cgroups.cpu — quota specs and CPU accounting."""

import pytest

from repro.cgroups.cpu import (
    DEFAULT_PERIOD_US,
    CpuController,
    QuotaSpec,
    UNLIMITED,
    parse_cpu_stat,
)


class TestQuotaSpec:
    def test_default_is_unlimited(self):
        q = QuotaSpec()
        assert q.unlimited
        assert q.ratio() == float("inf")

    def test_ratio_is_quota_over_period(self):
        q = QuotaSpec(quota_us=50_000, period_us=100_000)
        assert q.ratio() == pytest.approx(0.5)

    def test_ratio_can_exceed_one_core(self):
        q = QuotaSpec(quota_us=400_000, period_us=100_000)
        assert q.ratio() == pytest.approx(4.0)

    def test_v2_render_unlimited(self):
        assert QuotaSpec().to_v2() == f"max {DEFAULT_PERIOD_US}\n"

    def test_v2_render_limited(self):
        assert QuotaSpec(25_000, 100_000).to_v2() == "25000 100000\n"

    def test_v2_parse_roundtrip(self):
        for q in (QuotaSpec(), QuotaSpec(25_000, 100_000), QuotaSpec(0, 50_000)):
            assert QuotaSpec.from_v2(q.to_v2()) == q

    def test_v2_parse_quota_only_uses_default_period(self):
        q = QuotaSpec.from_v2("75000")
        assert q.quota_us == 75_000
        assert q.period_us == DEFAULT_PERIOD_US

    def test_v2_parse_max_keyword(self):
        assert QuotaSpec.from_v2("max 100000").unlimited

    def test_v2_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            QuotaSpec.from_v2("")
        with pytest.raises(ValueError):
            QuotaSpec.from_v2("1 2 3")
        with pytest.raises(ValueError):
            QuotaSpec.from_v2("abc 100000")

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            QuotaSpec(quota_us=1000, period_us=0)

    def test_negative_quota_rejected_unless_unlimited(self):
        with pytest.raises(ValueError):
            QuotaSpec(quota_us=-5)
        assert QuotaSpec(quota_us=UNLIMITED).unlimited

    def test_v1_renders(self):
        q = QuotaSpec(25_000, 100_000)
        assert q.to_v1_quota() == "25000\n"
        assert q.to_v1_period() == "100000\n"


class TestCpuController:
    def test_charge_accumulates_usage(self):
        c = CpuController()
        c.charge(1_000_000)
        c.charge(500_000)
        assert c.usage_usec == 1_500_000

    def test_charge_splits_user_system(self):
        c = CpuController()
        c.charge(1_000_000)
        assert c.user_usec + c.system_usec == c.usage_usec
        assert c.system_usec > 0

    def test_charge_rejects_negative(self):
        with pytest.raises(ValueError):
            CpuController().charge(-1.0)

    def test_stat_v2_format(self):
        c = CpuController()
        c.charge(42_000)
        stat = c.stat_v2()
        assert stat.startswith("usage_usec 42000\n")
        assert "nr_periods 0" in stat
        assert stat.endswith("\n")

    def test_usage_v1_is_nanoseconds(self):
        c = CpuController()
        c.charge(1_234)
        assert c.usage_v1() == "1234000\n"

    def test_shares_scaling(self):
        c = CpuController()
        assert c.shares_v1() == "1024\n"  # weight 100 <-> shares 1024
        c.weight = 200
        assert c.shares_v1() == "2048\n"


class TestParseCpuStat:
    def test_parses_all_fields(self):
        c = CpuController()
        c.charge(10_000)
        parsed = parse_cpu_stat(c.stat_v2())
        assert parsed == {
            "usage_usec": 10_000, "user_usec": 9_800, "system_usec": 200,
            "nr_periods": 0, "nr_throttled": 0, "throttled_usec": 0,
        }

    def test_ignores_blank_lines(self):
        assert parse_cpu_stat("usage_usec 5\n\n") == {"usage_usec": 5}

    def test_keeps_unknown_keys(self):
        parsed = parse_cpu_stat("usage_usec 5\nburst_usec 9\n")
        assert parsed["burst_usec"] == 9

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_cpu_stat("usage_usec\n")
