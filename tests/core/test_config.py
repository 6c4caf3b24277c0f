"""Tests for ControllerConfig."""

import pytest

from repro.core.config import ControllerConfig


class TestDefaults:
    def test_paper_evaluation_settings(self):
        cfg = ControllerConfig.paper_evaluation()
        assert cfg.period_s == 1.0
        assert cfg.increase_trigger == pytest.approx(0.95)
        assert cfg.increase_mult == pytest.approx(2.0)  # "+100 %"
        assert cfg.decrease_trigger == pytest.approx(0.50)
        assert cfg.decrease_mult == pytest.approx(0.95)  # "-5 %"
        assert cfg.control_enabled

    def test_from_percent_mapping(self):
        cfg = ControllerConfig.from_percent(
            increase_trigger_pct=90.0,
            increase_factor_pct=30.0,
            decrease_trigger_pct=40.0,
            decrease_factor_pct=20.0,
        )
        assert cfg.increase_trigger == pytest.approx(0.9)
        assert cfg.increase_mult == pytest.approx(1.3)  # Fig. 3's example
        assert cfg.decrease_trigger == pytest.approx(0.4)
        assert cfg.decrease_mult == pytest.approx(0.8)  # Fig. 4's example

    def test_monitoring_only_clone(self):
        cfg = ControllerConfig.paper_evaluation()
        mon = cfg.monitoring_only()
        assert not mon.control_enabled
        assert mon.increase_trigger == cfg.increase_trigger
        assert cfg.control_enabled  # original untouched


class TestValidation:
    def test_period_positive(self):
        with pytest.raises(ValueError):
            ControllerConfig(period_s=0.0)

    def test_history_at_least_two(self):
        with pytest.raises(ValueError):
            ControllerConfig(history_len=1)

    def test_trigger_ranges(self):
        with pytest.raises(ValueError):
            ControllerConfig(increase_trigger=1.5)
        with pytest.raises(ValueError):
            ControllerConfig(decrease_trigger=-0.1)

    def test_trigger_ordering(self):
        with pytest.raises(ValueError):
            ControllerConfig(increase_trigger=0.4, decrease_trigger=0.5)

    def test_mult_directions(self):
        with pytest.raises(ValueError):
            ControllerConfig(increase_mult=0.9)
        with pytest.raises(ValueError):
            ControllerConfig(decrease_mult=1.1)

    def test_window_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(auction_window_frac=0.0)

    def test_min_cap_range(self):
        with pytest.raises(ValueError):
            ControllerConfig(min_cap_frac=0.0)

    def test_engine_choices(self):
        assert ControllerConfig().engine == "bulk"
        assert ControllerConfig(engine="scalar").engine == "scalar"
        with pytest.raises(ValueError, match="engine"):
            ControllerConfig(engine="vectorized")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ControllerConfig().period_s = 2.0


class TestWithOverrides:
    def test_returns_validated_copy(self):
        cfg = ControllerConfig.paper_evaluation()
        derived = cfg.with_overrides(period_s=2.0, reserve_guarantee=True)
        assert derived.period_s == 2.0
        assert derived.reserve_guarantee
        assert derived.increase_trigger == cfg.increase_trigger
        assert cfg.period_s == 1.0  # original untouched

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown config field"):
            ControllerConfig().with_overrides(not_a_knob=1)

    def test_invalid_value_fails_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig().with_overrides(period_s=-1.0)

    def test_inconsistent_combination_fails(self):
        # each value is individually legal; the pair violates ordering
        with pytest.raises(ValueError):
            ControllerConfig().with_overrides(
                increase_trigger=0.6, decrease_trigger=0.7
            )

    def test_empty_overrides_is_equal_copy(self):
        cfg = ControllerConfig.paper_evaluation()
        assert cfg.with_overrides() == cfg
