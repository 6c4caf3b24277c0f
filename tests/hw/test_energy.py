"""Tests for the power/energy model."""

import pytest

from repro.hw.energy import EnergyMeter, PowerModel
from repro.hw.nodespecs import CHETEMI


@pytest.fixture
def model():
    return PowerModel(idle_w=100.0, max_w=200.0, fmax_mhz=2400.0)


class TestPowerModel:
    def test_idle_draw(self, model):
        assert model.power_w(0.0, 1200.0) == pytest.approx(100.0)

    def test_full_draw(self, model):
        assert model.power_w(1.0, 2400.0) == pytest.approx(200.0)

    def test_monotone_in_utilisation(self, model):
        powers = [model.power_w(u, 2400.0) for u in (0.0, 0.25, 0.5, 1.0)]
        assert powers == sorted(powers)

    def test_frequency_quadratic_term(self, model):
        half = model.power_w(1.0, 1200.0)
        full = model.power_w(1.0, 2400.0)
        assert (half - 100.0) == pytest.approx((full - 100.0) / 4.0)

    def test_for_spec_uses_catalogue_values(self):
        m = PowerModel.for_spec(CHETEMI)
        assert m.idle_w == CHETEMI.idle_power_w
        assert m.max_w == CHETEMI.max_power_w

    def test_validation(self, model):
        with pytest.raises(ValueError):
            model.power_w(1.5, 2400.0)
        with pytest.raises(ValueError):
            model.power_w(0.5, -1.0)
        with pytest.raises(ValueError):
            PowerModel(idle_w=300.0, max_w=200.0, fmax_mhz=2400.0)


class TestEnergyMeter:
    def test_integration(self, model):
        meter = EnergyMeter(model)
        meter.step(0.0, 1200.0, dt=3600.0)
        assert meter.energy_wh == pytest.approx(100.0)

    def test_average_power(self, model):
        meter = EnergyMeter(model)
        meter.step(0.0, 1200.0, dt=10.0)
        meter.step(1.0, 2400.0, dt=10.0)
        assert meter.energy_j / meter.elapsed_s == pytest.approx(150.0)

    def test_empty_meter(self, model):
        meter = EnergyMeter(model)
        assert meter.energy_j == 0.0
        assert meter.elapsed_s == 0.0

    def test_negative_dt_rejected(self, model):
        with pytest.raises(ValueError):
            EnergyMeter(model).step(0.5, 2000.0, dt=-1.0)
