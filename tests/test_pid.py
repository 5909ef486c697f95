import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayflow.pid import (
    NO_LIMITS,
    PidGains,
    PidLimits,
    PidState,
    StandardFormGains,
    pid_step,
    reset,
    standard_to_parallel,
)

error_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=30
)


def run_sequence(errors, gains, dt=0.1, limits=NO_LIMITS):
    state = PidState()
    outputs = []
    for e in errors:
        u, state = pid_step(state, gains, e, dt, limits)
        outputs.append(u)
    return outputs, state


class TestPidStep:
    def test_pure_proportional(self):
        u, _ = pid_step(PidState(), PidGains(1.0, 0.0, 0.0), 2.0, 0.1)
        assert u == 2.0

    def test_rectangular_integration(self):
        outputs, _ = run_sequence([1.0, 1.0, 1.0], PidGains(0.0, 1.0, 0.0), dt=0.1)
        assert outputs == pytest.approx([0.1, 0.2, 0.3], rel=1e-12)

    def test_backward_difference_derivative(self):
        outputs, _ = run_sequence([0.0, 1.0], PidGains(0.0, 0.0, 1.0), dt=0.1)
        assert outputs[0] == 0.0
        assert outputs[1] == pytest.approx(10.0, rel=1e-12)

    def test_first_step_derivative_is_zero(self):
        u, _ = pid_step(PidState(), PidGains(0.0, 0.0, 5.0), 3.0, 0.01)
        assert u == 0.0

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            pid_step(PidState(), PidGains(1.0, 0.0, 0.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            pid_step(PidState(), PidGains(1.0, 0.0, 0.0), 1.0, -0.1)

    def test_rejects_non_finite_error(self):
        with pytest.raises(ValueError):
            pid_step(PidState(), PidGains(1.0, 0.0, 0.0), math.nan, 0.1)

    def test_output_clamp(self):
        limits = PidLimits(output=(-1.0, 1.0))
        u, _ = pid_step(PidState(), PidGains(10.0, 0.0, 0.0), 5.0, 0.1, limits)
        assert u == 1.0

    def test_integral_clamp_bounds_accumulator(self):
        limits = PidLimits(integral=(-0.5, 0.5))
        state = PidState()
        for _ in range(100):
            _, state = pid_step(state, PidGains(0.0, 1.0, 0.0), 10.0, 0.1, limits)
            assert -0.5 <= state.integral <= 0.5
        assert state.integral == 0.5

    @given(errors=error_lists)
    @settings(max_examples=100, deadline=None)
    def test_anti_windup_property(self, errors):
        limits = PidLimits(integral=(-1.0, 1.0), output=(-5.0, 5.0))
        state = PidState()
        for e in errors:
            _, state = pid_step(state, PidGains(1.0, 2.0, 0.5), e, 0.1, limits)
            assert -1.0 <= state.integral <= 1.0

    @given(errors=error_lists, scale=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, errors, scale):
        gains = PidGains(1.5, 0.7, 0.2)
        base, _ = run_sequence(errors, gains)
        scaled, _ = run_sequence([scale * e for e in errors], gains)
        for u, v in zip(base, scaled):
            assert v == pytest.approx(scale * u, rel=1e-12, abs=1e-12)

    @given(e1=error_lists, e2=error_lists)
    @settings(max_examples=100, deadline=None)
    def test_superposition(self, e1, e2):
        n = min(len(e1), len(e2))
        gains = PidGains(0.8, 1.3, 0.05)
        u1, _ = run_sequence(e1[:n], gains)
        u2, _ = run_sequence(e2[:n], gains)
        u12, _ = run_sequence([a + b for a, b in zip(e1[:n], e2[:n])], gains)
        for a, b, c in zip(u1, u2, u12):
            assert c == pytest.approx(a + b, rel=1e-12, abs=1e-9)

    def test_deterministic(self):
        errors = [0.3, -1.2, 4.5, 0.0, 2.2]
        a, _ = run_sequence(errors, PidGains(1.0, 0.5, 0.1))
        b, _ = run_sequence(errors, PidGains(1.0, 0.5, 0.1))
        assert a == b


class TestReset:
    def test_zeroes_state(self):
        assert reset() == PidState(integral=0.0, prev_error=0.0, first_step=True)

    def test_idempotent(self):
        assert reset() == reset()

    def test_zero_error_after_reset_gives_zero_output(self):
        u, _ = pid_step(reset(), PidGains(2.0, 2.0, 2.0), 0.0, 0.1)
        assert u == 0.0


class TestStandardForm:
    def test_conversion(self):
        assert standard_to_parallel(StandardFormGains(kp=2.0, ti=4.0, td=0.5)) == PidGains(
            2.0, 0.5, 1.0
        )

    def test_unit_times(self):
        assert standard_to_parallel(StandardFormGains(kp=1.0, ti=1.0, td=0.0)) == PidGains(
            1.0, 1.0, 0.0
        )

    def test_zero_gain_annihilates(self):
        assert standard_to_parallel(StandardFormGains(kp=0.0, ti=3.0, td=7.0)) == PidGains(
            0.0, 0.0, 0.0
        )

    @pytest.mark.parametrize("ti", [0.0, -1.0])
    def test_rejects_non_positive_integration_time(self, ti):
        with pytest.raises(ValueError):
            StandardFormGains(kp=1.0, ti=ti, td=0.0)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [{"kp": -1.0}, {"ki": -0.1}, {"kd": math.nan}])
    def test_gains_must_be_non_negative(self, kwargs):
        base = {"kp": 1.0, "ki": 1.0, "kd": 1.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            PidGains(**base)

    def test_limit_ordering(self):
        with pytest.raises(ValueError):
            PidLimits(output=(1.0, -1.0))
        with pytest.raises(ValueError):
            PidLimits(integral=(0.0, 0.0))
