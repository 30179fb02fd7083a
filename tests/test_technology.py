"""Tests for the alpha-power technology model."""

from fractions import Fraction

import pytest

from repro.errors import TechnologyError
from repro.power.technology import TechnologyModel


class TestReferenceCalibration:
    def test_reference_point_exact(self):
        tech = TechnologyModel()
        assert tech.fmax(1.0, 0.25) == pytest.approx(1.0)

    def test_reference_setting(self):
        setting = TechnologyModel().reference_setting
        assert setting.cycle_time == Fraction(1)
        assert setting.vdd == 1.0
        assert setting.vth == 0.25


class TestFmax:
    def test_monotone_in_vdd(self):
        tech = TechnologyModel()
        assert tech.fmax(1.2, 0.25) > tech.fmax(1.0, 0.25)

    def test_monotone_in_vth(self):
        tech = TechnologyModel()
        assert tech.fmax(1.0, 0.2) > tech.fmax(1.0, 0.3)

    def test_vth_above_vdd_rejected(self):
        with pytest.raises(TechnologyError):
            TechnologyModel().fmax(1.0, 1.1)


class TestSolveVth:
    def test_roundtrip(self):
        tech = TechnologyModel()
        vth = tech.solve_vth(0.8, 1.0)
        assert tech.fmax(1.0, vth) == pytest.approx(0.8)

    def test_slower_frequency_higher_vth(self):
        tech = TechnologyModel()
        assert tech.solve_vth(0.6, 1.0) > tech.solve_vth(0.9, 1.0)

    def test_unreachable_frequency(self):
        tech = TechnologyModel()
        with pytest.raises(TechnologyError):
            tech.solve_vth(50.0, 1.0)

    def test_nonpositive_frequency(self):
        with pytest.raises(TechnologyError):
            TechnologyModel().solve_vth(0.0, 1.0)


class TestMargins:
    def test_reference_within_margins(self):
        tech = TechnologyModel()
        assert tech.vth_within_margins(1.0, 0.25)

    def test_too_low(self):
        assert not TechnologyModel().vth_within_margins(1.0, 0.05)

    def test_too_high(self):
        assert not TechnologyModel().vth_within_margins(1.0, 0.95)


class TestDomainSetting:
    def test_feasible_point(self):
        tech = TechnologyModel()
        setting = tech.domain_setting(Fraction(1), 1.0)
        assert setting is not None
        assert setting.vth == pytest.approx(0.25)

    def test_infeasible_returns_none(self):
        tech = TechnologyModel()
        # 0.3 ns (3.33 GHz) at 1.0 V: far beyond reach.
        assert tech.domain_setting(Fraction(3, 10), 1.0) is None


class TestValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(TechnologyError):
            TechnologyModel(alpha=0.5)

    def test_bad_reference_rejected(self):
        with pytest.raises(TechnologyError):
            TechnologyModel(reference_vth=1.5)

    def test_bad_margin_rejected(self):
        with pytest.raises(TechnologyError):
            TechnologyModel(vth_margin=0.6)
