"""Weight schedules and the combined object score.

w(20) for the increasing default (gamma=0.3, lam=0.05) was computed
independently at 50-digit precision: 0.3 * (1 - exp(-1)).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logit_anchor import ConfigError, WeightSchedule, object_score, weight_at
from logit_anchor.strategies import CONSTANT, DECREASING, INCREASING

W20_INCREASING_DEFAULT = 0.1896361676485673


class TestSchedules:
    def test_increasing_starts_at_exactly_zero(self):
        s = WeightSchedule(INCREASING, 0.3, 0.05)
        assert weight_at(s, 0) == 0.0

    def test_decreasing_starts_at_exactly_gamma(self):
        s = WeightSchedule(DECREASING, 0.3, 0.05)
        assert weight_at(s, 0) == 0.3

    def test_constant_everywhere(self):
        s = WeightSchedule(CONSTANT, 0.25, 0.05)
        assert [weight_at(s, t) for t in (0, 1, 7, 500)] == [0.25] * 4

    def test_reference_value_at_20(self):
        s = WeightSchedule()
        assert s.kind == INCREASING and s.gamma == 0.3 and s.lam == 0.05
        assert weight_at(s, 20) == pytest.approx(W20_INCREASING_DEFAULT, abs=1e-15)

    def test_closed_forms(self):
        inc = WeightSchedule(INCREASING, 0.5, 0.1)
        dec = WeightSchedule(DECREASING, 0.5, 0.1)
        for t in (0, 1, 5, 33):
            assert weight_at(inc, t) == pytest.approx(
                0.5 * (1 - math.exp(-0.1 * t)), abs=1e-15
            )
            assert weight_at(dec, t) == pytest.approx(
                0.5 * math.exp(-0.1 * t), abs=1e-15
            )

    def test_convergence_step(self):
        s = WeightSchedule()
        assert s.converged_step() == 280
        assert abs(weight_at(s, 280) - s.gamma) < 1e-6
        dec = WeightSchedule(DECREASING, 0.3, 0.05)
        assert abs(weight_at(dec, 280) - 0.0) < 1e-6

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError):
            weight_at(WeightSchedule(), -1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            WeightSchedule("linear")
        with pytest.raises(ConfigError):
            WeightSchedule(INCREASING, -0.1)
        with pytest.raises(ConfigError):
            WeightSchedule(INCREASING, 0.3, 0.0)
        with pytest.raises(ConfigError):
            WeightSchedule(INCREASING, float("nan"))

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-3, max_value=2.0),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, gamma, lam, t, dt):
        inc = WeightSchedule(INCREASING, gamma, lam)
        dec = WeightSchedule(DECREASING, gamma, lam)
        w1, w2 = weight_at(inc, t), weight_at(inc, t + dt)
        assert w1 <= w2 <= gamma + 1e-12
        assert 0.0 <= w1
        d1, d2 = weight_at(dec, t), weight_at(dec, t + dt)
        assert gamma + 1e-12 >= d1 >= d2 >= 0.0


class TestObjectScore:
    def test_reference_percent_value(self):
        assert object_score(6.1, 50.4, percent=True) == pytest.approx(72.15, abs=1e-12)

    def test_fraction_scale(self):
        assert object_score(0.0, 1.0) == 1.0
        assert object_score(1.0, 0.0) == 0.0
        assert object_score(0.2, 0.6) == pytest.approx(0.7, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            object_score(1.5, 0.5)
        with pytest.raises(ConfigError):
            object_score(6.1, 50.4)  # percent values on the fraction scale
        with pytest.raises(ConfigError):
            object_score(-0.1, 0.5)
