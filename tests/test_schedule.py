"""Tests for the constant, linear progressive, and dynamic loss-ratio schedulers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langwce.schedule import (
    Branch,
    DynamicSchedule,
    LinearSchedule,
    WeightMode,
    WeightDecision,
    Weighting,
    dynamic_weight,
    linear_weight,
)

PLAIN = LinearSchedule(alpha_ini=4.0, alpha_fin=5.0, t_min=4000, t_total=8000)
AUGMENTED = LinearSchedule(alpha_ini=2.0, alpha_fin=5.0, t_min=4000, t_total=8000)


class TestLinearWeight:
    def test_before_t_min_is_one(self):
        d = linear_weight(PLAIN, 1000)
        assert d.value == 1.0 and d.branch is Branch.BEFORE_T_MIN

    def test_ramp_endpoints(self):
        assert linear_weight(PLAIN, 4000).value == 4.0
        assert linear_weight(PLAIN, 8000).value == 5.0
        assert linear_weight(PLAIN, 4000).branch is Branch.PROGRESSING

    def test_midpoint_of_augmented_ramp(self):
        # 2 + 3 * (2000 / 4000)
        assert linear_weight(AUGMENTED, 6000).value == pytest.approx(3.5, abs=1e-12)

    def test_rejects_steps_past_t_total(self):
        with pytest.raises(ValueError):
            linear_weight(PLAIN, 8001)

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            linear_weight(PLAIN, -1)

    def test_monotone_over_random_schedules(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a_ini = float(rng.uniform(1, 6))
            s = LinearSchedule(
                alpha_ini=a_ini,
                alpha_fin=a_ini + float(rng.uniform(0, 4)),
                t_min=int(rng.integers(0, 50)),
                t_total=int(rng.integers(51, 200)),
            )
            values = [linear_weight(s, t).value for t in range(s.t_total + 1)]
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert linear_weight(s, s.t_min).value == s.alpha_ini
            assert linear_weight(s, s.t_total).value == s.alpha_fin

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LinearSchedule(alpha_ini=0.5, alpha_fin=5.0, t_min=0, t_total=10)
        with pytest.raises(ValueError):
            LinearSchedule(alpha_ini=4.0, alpha_fin=3.0, t_min=0, t_total=10)
        with pytest.raises(ValueError):
            LinearSchedule(alpha_ini=1.0, alpha_fin=2.0, t_min=10, t_total=10)

    @pytest.mark.parametrize(
        "name, value",
        [("alpha_ini", math.nan), ("alpha_fin", math.inf), ("alpha_ini", "1.5"), ("alpha_fin", True),
         ("t_min", 0.5), ("t_total", 10.5), ("t_min", False), ("t_total", "10")],
    )
    def test_mistyped_or_non_finite_field_rejected(self, name, value):
        fields = {"alpha_ini": 1.5, "alpha_fin": 3.0, "t_min": 0, "t_total": 10, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be an? (int|finite real number), got {re.escape(repr(value))}$"):
            LinearSchedule(**fields)


class TestDynamicWeight:
    SCHED = DynamicSchedule(alpha=1.5)

    def test_below_threshold(self):
        d = dynamic_weight(self.SCHED, 0.5, 1.0)
        assert d.value == 1.0 and d.branch is Branch.BELOW_THRESHOLD

    def test_ratio_dominates(self):
        d = dynamic_weight(self.SCHED, 2.0, 1.0)
        assert d.value == pytest.approx(2.0, abs=1e-15) and d.branch is Branch.RATIO_DOMINATES

    def test_alpha_floor(self):
        d = dynamic_weight(self.SCHED, 1.0, 1.0)
        assert d.value == 1.5 and d.branch is Branch.ALPHA_FLOOR

    def test_cap(self):
        s = DynamicSchedule(alpha=1.5, weight_cap=2.0)
        d = dynamic_weight(s, 5.0, 1.0)
        assert d.value == 2.0 and d.branch is Branch.CAPPED

    def test_degenerate_high_loss(self):
        d = dynamic_weight(self.SCHED, 3.0, 0.0)
        assert d.value == 1.0 and d.branch is Branch.DEGENERATE
        d = dynamic_weight(self.SCHED, 3.0, 1e-12)
        assert d.branch is Branch.DEGENERATE

    def test_scale_invariance_power_of_two(self):
        # power-of-two scalings are exact in IEEE arithmetic, so equality is exact
        rng = np.random.default_rng(9)
        for _ in range(100):
            low = float(rng.uniform(0.01, 5))
            high = float(rng.uniform(0.01, 5))
            base = dynamic_weight(self.SCHED, low, high)
            for c in (0.25, 0.5, 2.0, 1024.0):
                scaled = dynamic_weight(self.SCHED, c * low, c * high)
                assert scaled == base

    def test_scale_invariance_acceptance_scalars(self):
        for low, high in [(0.5, 1.0), (2.0, 1.0), (1.0, 1.0)]:
            base = dynamic_weight(self.SCHED, low, high)
            for c in (0.01, 1.0, 100.0):
                assert dynamic_weight(self.SCHED, c * low, c * high) == base

    def test_always_at_least_one_and_floored(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            low = float(rng.uniform(0, 4))
            high = float(rng.uniform(0, 4))
            d = dynamic_weight(self.SCHED, low, high)
            assert d.value >= 1.0
            if d.branch in (Branch.RATIO_DOMINATES, Branch.ALPHA_FLOOR):
                assert d.value >= self.SCHED.alpha

    def test_monotone_in_avg_low(self):
        values = [dynamic_weight(self.SCHED, low, 1.0).value for low in np.linspace(0, 15, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            dynamic_weight(self.SCHED, -0.1, 1.0)
        with pytest.raises(ValueError):
            dynamic_weight(self.SCHED, 0.1, -1.0)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            DynamicSchedule(alpha=0.9)
        with pytest.raises(ValueError):
            DynamicSchedule(alpha=2.0, weight_cap=2.0)

    @pytest.mark.parametrize(
        "name, value", [("alpha", math.nan), ("alpha", True), ("weight_cap", math.inf), ("weight_cap", "10")]
    )
    def test_mistyped_or_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite real number, got {re.escape(repr(value))}$"):
            DynamicSchedule(**{"alpha": 1.5, name: value})


def constant(w):
    return Weighting(WeightMode.CONSTANT, constant=w)


class TestConstantWeight:
    def test_one_is_unweighted(self):
        assert constant(1.0).decide(1).value == 1.0

    def test_any_step_same_value(self):
        assert constant(5.0).decide(7).value == 5.0

    def test_identical_across_steps(self):
        w = constant(2.5)
        assert {w.decide(t) for t in range(8000)} == {WeightDecision(2.5, Branch.CONSTANT)}

    def test_below_one_rejected(self):
        for w in (0.99, 0.0, -1.0):
            with pytest.raises(ValueError, match="constant weight must be >= 1"):
                constant(w)
        for w in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^constant must be a finite real number, got {w}$"):
                constant(w)

    @pytest.mark.parametrize("w", ["2", True, None])
    def test_non_real_rejected_naming_the_field(self, w):
        with pytest.raises(ValueError, match=f"^constant must be a finite real number, got {re.escape(repr(w))}$"):
            constant(w)


class TestWeighting:
    def test_default_is_unit(self):
        assert Weighting().decide(123) == WeightDecision(1.0, Branch.CONSTANT)

    def test_linear_mode_dispatch(self):
        w = Weighting(WeightMode.LINEAR, linear=PLAIN)
        assert w.decide(6000).value == pytest.approx(4.5)

    def test_dynamic_mode_needs_averages(self):
        w = Weighting(WeightMode.DYNAMIC, dynamic=DynamicSchedule(alpha=1.5))
        with pytest.raises(ValueError):
            w.decide(1)
        assert w.decide(1, avg_low=2.0, avg_high=1.0).value == 2.0

    def test_missing_schedule_rejected(self):
        with pytest.raises(ValueError):
            Weighting(WeightMode.LINEAR)
        with pytest.raises(ValueError, match="^DYNAMIC weighting requires a dynamic schedule$"):
            Weighting(WeightMode.DYNAMIC)

    # case -> (the Weighting's fields, what the error says); each holds a setting its mode would ignore
    UNREAD = {
        "linear-in-constant": (dict(linear=PLAIN), "CONSTANT weighting does not read the linear schedule"),
        "dynamic-in-constant": (
            dict(dynamic=DynamicSchedule(1.5)), "CONSTANT weighting does not read the dynamic schedule"
        ),
        "dynamic-in-linear": (
            dict(mode=WeightMode.LINEAR, linear=PLAIN, dynamic=DynamicSchedule(1.5)),
            "LINEAR weighting does not read the dynamic schedule",
        ),
        "linear-in-dynamic": (
            dict(mode=WeightMode.DYNAMIC, linear=PLAIN, dynamic=DynamicSchedule(1.5)),
            "DYNAMIC weighting does not read the linear schedule",
        ),
        "constant-in-linear": (
            dict(mode=WeightMode.LINEAR, constant=2.0, linear=PLAIN), "LINEAR weighting does not read constant=2.0"
        ),
        "constant-in-dynamic": (
            dict(mode=WeightMode.DYNAMIC, constant=3.0, dynamic=DynamicSchedule(1.5)),
            "DYNAMIC weighting does not read constant=3.0",
        ),
    }

    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_unread_setting_rejected(self, case):
        fields, message = self.UNREAD[case]
        with pytest.raises(ValueError, match=f"^{message}$"):
            Weighting(**fields)


class TestScheduleProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(1.0, 20.0),
        cap_margin=st.floats(1e-6, 30.0),
        avg_low=st.floats(0.0, 1e6),
        avg_high=st.floats(0.0, 1e6),
    )
    def test_dynamic_weight_is_one_or_within_alpha_and_cap(self, alpha, cap_margin, avg_low, avg_high):
        s = DynamicSchedule(alpha=alpha, weight_cap=alpha + cap_margin)
        w = dynamic_weight(s, avg_low, avg_high).value
        assert w == 1.0 or s.alpha <= w <= s.weight_cap

    @settings(max_examples=300, deadline=None)
    @given(
        alpha_ini=st.floats(1.0, 20.0),
        rise=st.floats(0.0, 20.0),
        t_min=st.integers(0, 10_000),
        span=st.integers(1, 10_000),
        data=st.data(),
    )
    def test_linear_weight_non_decreasing_on_ramp(self, alpha_ini, rise, t_min, span, data):
        s = LinearSchedule(alpha_ini=alpha_ini, alpha_fin=alpha_ini + rise, t_min=t_min, t_total=t_min + span)
        t = data.draw(st.integers(t_min, s.t_total - 1))
        assert linear_weight(s, t).value <= linear_weight(s, t + 1).value
