import math

import numpy as np
import pytest

from sprayflow.adaptive import FuzzyPidController, adapted_gains
from sprayflow.fuzzy import ScalingFactors
from sprayflow.harness import SimScenario, run_closed_loop
from sprayflow.pid import PidGains, pid_law

from _oracles import brute_force_deltas

BASE = PidGains(kp=1.0, ki=0.5, kd=1.0)
# Output scale factors of 0.45 keep the deltas on the scale of BASE.
FACTORS = dict(ke=5.0, kec=0.8, kup=0.45, kui=0.45, kud=0.45)


def make_controller(**factor_overrides):
    return FuzzyPidController(base=BASE, factors=ScalingFactors(**{**FACTORS, **factor_overrides}))


class TestFuzzyPidStep:
    def test_rest_cell_composition(self):
        # e = ec = 0 lands in the (ZO, ZO) cell, whose dKd consequent
        # defuzzifies near -2; the oracle pins the exact value.
        ctrl = make_controller()
        kp, ki, kd = adapted_gains(ctrl, 0.0, 0.0)
        oracle = brute_force_deltas(0.0, 0.0, ctrl.table.cells)
        assert kd == pytest.approx(BASE.kd + 0.45 * oracle[2], abs=0.45 * 0.02)
        assert kd == pytest.approx(BASE.kd + 0.45 * (-2.0), abs=0.45 * 0.04)
        assert kp == pytest.approx(BASE.kp, abs=0.45 * 0.02)
        assert ki == pytest.approx(BASE.ki, abs=0.45 * 0.02)

    def test_gain_floor_with_zero_base(self):
        # With zero base gains negative deltas are floored away; at the rest
        # cell the dKd consequent is firmly negative, so kd lands exactly at
        # the floor, and the others stay at centroid-noise level above zero.
        ctrl = FuzzyPidController(base=PidGains(0.0, 0.0, 0.0), factors=ScalingFactors(**FACTORS))
        kp, ki, kd = adapted_gains(ctrl, 0.0, 0.0)
        assert kd == 0.0
        assert 0.0 <= kp <= 1e-9
        assert 0.0 <= ki <= 1e-9
        u, _ = pid_law(kp, ki, kd, 0.0, 0.0, 0.0, 0.1)
        assert u == 0.0

    def test_zero_scaling_matches_plain_pid_bitwise(self):
        ctrl = make_controller(kup=0.0, kui=0.0, kud=0.0)
        rng = np.random.default_rng(21)
        for e, ec in rng.uniform(-5.0, 5.0, size=(100, 2)):
            assert adapted_gains(ctrl, float(e), float(ec)) == (BASE.kp, BASE.ki, BASE.kd)

    def test_adaptation_bounded_by_scale_factors(self):
        factors = ScalingFactors(ke=5.0, kec=0.8, kup=0.3, kui=0.2, kud=0.1)
        ctrl = FuzzyPidController(base=BASE, factors=factors)
        rng = np.random.default_rng(5)
        for e, ec in rng.uniform(-8.0, 8.0, size=(200, 2)):
            kp, ki, kd = adapted_gains(ctrl, float(e), float(ec))
            assert kp >= 0.0 and ki >= 0.0 and kd >= 0.0
            assert abs(kp - BASE.kp) <= 6.0 * factors.kup
            assert abs(ki - BASE.ki) <= 6.0 * factors.kui
            assert abs(kd - BASE.kd) <= 6.0 * factors.kud

    def test_error_rate_uses_backward_difference(self):
        # The error rate is scaled by kec before inference: ec = -2 reads -1.6.
        ctrl = make_controller()
        kp, _, _ = adapted_gains(ctrl, 0.0, -2.0)
        oracle = brute_force_deltas(0.0, -2.0 * 0.8, ctrl.table.cells)
        assert kp == pytest.approx(BASE.kp + 0.45 * oracle[0], abs=0.45 * 0.02)
        # The closed loop feeds the backward difference of the error it acted
        # on (row k acts on e[k-1]), zero on the first step.
        dt = 1e-4
        ctrl = FuzzyPidController(
            base=PidGains(0.0045, 0.05, 5e-6),
            factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
        )
        traj = run_closed_loop(
            SimScenario(setpoint=5.0, duration=0.01, dt=dt, controller=ctrl)
        )
        e = traj.e.tolist()
        for k in range(1, len(traj)):
            ec = 0.0 if k == 1 else (e[k - 1] - e[k - 2]) / dt
            assert (traj.kp[k], traj.ki[k], traj.kd[k]) == adapted_gains(ctrl, e[k - 1], ec)

    def test_rejects_bad_inputs(self):
        ctrl = make_controller()
        with pytest.raises(ValueError):
            adapted_gains(ctrl, math.nan, 0.0)
        with pytest.raises(ValueError):
            adapted_gains(ctrl, 0.0, math.inf)

    def test_deterministic_gain_trace(self):
        def trace():
            ctrl = make_controller()
            gains = []
            y = 0.0
            e_prev = 1.0
            integral = 0.0
            for _ in range(50):
                e = 1.0 - y
                ec = (e - e_prev) / 0.01
                e_prev = e
                kp, ki, kd = adapted_gains(ctrl, e, ec)
                u, integral = pid_law(kp, ki, kd, e, ec, integral, 0.01)
                y += 0.01 * u
                gains.append((kp, ki, kd))
            return gains

        assert trace() == trace()
