import math
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from sprayflow import adaptive, harness, presets
from sprayflow.adaptive import FuzzyPidController, adapted_gains
from sprayflow.fuzzy import ScalingFactors
from sprayflow.harness import (
    MAX_STEPS,
    PidConfig,
    SimScenario,
    StepMetrics,
    Trajectory,
    compare_controllers,
    compute_metrics,
    peak_deviation,
    run_closed_loop,
)
from sprayflow.pid import PidGains, pid_law
from sprayflow.plant import (
    PIPELINE_TF,
    PLANT_INPUT,
    PLANT_OUTPUT,
    Disturbance,
    TransferFunction,
    compile_step,
    rk4_zoh,
    step_lines,
)

from _oracles import (
    apply_disturbances,
    p_gain_for_damping,
    reference_deltas,
    rewritten_suspects_table,
    second_order_overshoot_pct,
    second_order_peak_time,
)

COLUMNS = ("t", "r", "e", "u", "y", "kp", "ki", "kd")


def synthetic_trajectory(y_values, dt=1.0, r=None):
    y = np.asarray(y_values, dtype=float)
    n = len(y)
    t = np.arange(n) * dt
    r_value = float(y[-1]) if r is None else float(r)
    r_col = np.full(n, r_value)
    zeros = np.zeros(n)
    return Trajectory(np.stack([t, r_col, r_col - y, zeros, y, zeros, zeros, zeros]))


_FUZZY = presets.default_fuzzy_controller()
# The shipped fuzzy-PID runs, and the step with both suspect cells
# rewritten; the step fires (NS, PM) in hundreds of steps.
FUZZY_RUNS = {
    "step": presets.default_scenario(_FUZZY),
    "disturbance": presets.disturbance_scenario(_FUZZY),
    "suspects-rewritten": presets.default_scenario(
        replace(_FUZZY, table=rewritten_suspects_table())
    ),
}


def hand_stepped(scenario):
    """The closed loop stepped by hand with the per-layer functions.

    The error rate is the backward difference of the error, zero on the
    first step, and feeds both the derivative term and the gain update.
    Stepping stops where the loop must: before a step whose rate, and
    before a row whose error, is not finite. Returns the logged u, y, e,
    kp, ki and kd columns as lists.
    """
    dt, r, dists = scenario.dt, scenario.setpoint, scenario.disturbances
    rows, c = rk4_zoh(scenario.plant, dt)
    step = compile_step(rows, c)
    ctrl = scenario.controller
    fuzzy = isinstance(ctrl, FuzzyPidController)
    gains = ctrl.base if fuzzy else ctrl.gains
    kp, ki, kd = gains.kp, gains.ki, gains.kd
    integral = 0.0
    e_prev = None
    x = (0.0,) * len(rows)
    _, y = apply_disturbances(0.0, 0.0, dists, 0.0)
    if not math.isfinite(r - y):
        return [[] for _ in range(6)]
    columns = [[0.0], [y], [r - y], [kp], [ki], [kd]]
    for k in range(1, scenario.steps + 1):
        e = r - y
        derivative = 0.0 if e_prev is None else (e - e_prev) / dt
        if not math.isfinite(derivative):
            break
        e_prev = e
        if fuzzy:
            kp, ki, kd = adapted_gains(ctrl, e, derivative)
        u, integral = pid_law(kp, ki, kd, e, derivative, integral, dt)
        u, _ = apply_disturbances(u, 0.0, dists, (k - 1) * dt)
        x, y = step(x, u)
        _, y = apply_disturbances(0.0, y, dists, k * dt)
        if not math.isfinite(r - y):
            break
        for column, value in zip(columns, (u, y, r - y, kp, ki, kd)):
            column.append(value)
    return columns


def assert_equals_hand_stepped(scenario):
    """run_closed_loop and hand_stepped log the same rows, as packed bytes."""
    traj = run_closed_loop(scenario)
    want = hand_stepped(scenario)
    assert traj.blown_up == (len(want[0]) < scenario.steps + 1)
    for name in COLUMNS:
        assert getattr(traj, name).dtype == np.float64, name
    for name, column in zip(("u", "y", "e", "kp", "ki", "kd"), want):
        assert getattr(traj, name).tobytes() == struct.pack(f"{len(column)}d", *column), name
    return traj


BLOW_UP_CONTROLLERS = (presets.default_pid_config(), _FUZZY)
_PID_GAINS = PidGains(0.0045, 0.05, 5e-6)
_PID = PidConfig(gains=_PID_GAINS)
_FUZZY_SMALL = FuzzyPidController(
    base=_PID_GAINS,
    factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
)
# A first-order lag, the pipeline model with a third pole, and with
# fourteen more poles of 0.1 ms up to plant.MAX_ORDER.
ORDER_1 = TransferFunction(num=(100.0,), den=(0.0037, 1.0))
ORDER_3 = TransferFunction(num=(43956.0,), den=(3.7e-6, 0.0047, 1.0, 0.0))
_DEN_16 = np.array(PIPELINE_TF.den)
for _ in range(14):
    _DEN_16 = np.convolve(_DEN_16, (1e-4, 1.0))
ORDER_16 = TransferFunction(num=(43956.0,), den=tuple(_DEN_16.tolist()))
NEGATIVE_GAIN = TransferFunction(num=(-100.0,), den=(0.0037, 1.0))
_INPUT = (Disturbance(time=0.02, magnitude=2e-3, port=PLANT_INPUT),)
# PidGains takes ints; the gain columns are float64 all the same.
_INT_GAINS = PidGains(kp=0.0045, ki=0, kd=0)
_OUTPUT = (Disturbance(time=0.0301, magnitude=-0.3, port=PLANT_OUTPUT),)
# Two disturbances per port, declared with the ports interleaved. On each
# port none, one and then both act, and once both act the bits depend on
# the order of addition, because the partial sums fall into other binades:
# for y near 5, (y - 1.1) + 0.2 rounds once in [2, 4) and once in [4, 8),
# (y + 0.2) - 1.1 twice in [4, 8). So does u + 1e-3 - 3e-3 for a small u.
_TWO_PER_PORT = (
    Disturbance(time=0.01, magnitude=1e-3, port=PLANT_INPUT),
    Disturbance(time=0.015, magnitude=-1.1, port=PLANT_OUTPUT),
    Disturbance(time=0.02, magnitude=-3e-3, port=PLANT_INPUT),
    Disturbance(time=0.03, magnitude=0.2, port=PLANT_OUTPUT),
)


_RATE_OVERFLOW = (Disturbance(time=1e-4, magnitude=1.5e308, port=PLANT_OUTPUT),)


def hand_case(controller, disturbances=(), plant=PIPELINE_TF, setpoint=5.0):
    return SimScenario(
        setpoint=setpoint, duration=0.05, dt=1e-4,
        controller=controller, plant=plant, disturbances=disturbances,
    )


def assert_all_finite(traj):
    for column in COLUMNS:
        assert np.all(np.isfinite(getattr(traj, column))), column


# The cases of `TestRunClosedLoop::test_equals_hand_stepping_bitwise`, by id.
HAND_CASES = {
    "pid-output-disturbance": hand_case(
        _PID, (Disturbance(time=0.0, magnitude=0.5, port=PLANT_OUTPUT),)
    ),
    "fuzzy-disturbances": hand_case(_FUZZY_SMALL, _INPUT + _OUTPUT),
    # 0.0003 / 1e-4 is 2.9999999999999996, yet 3 * 1e-4 >= 0.0003:
    # step 3 is the first at or after the activation time.
    "input-disturbance-rounded-time": hand_case(
        _PID, (Disturbance(time=0.0003, magnitude=2e-3, port=PLANT_INPUT),)
    ),
    # 13 * 1e-4 / 1e-4 is 13.000000000000002, yet step 13 is at that
    # time; rounding the quotient up would start one step late.
    "input-disturbance-quotient-above-step": hand_case(
        _PID, (Disturbance(time=13 * 1e-4, magnitude=2e-3, port=PLANT_INPUT),)
    ),
    # 0.05 is exactly the last sample time (500 * 1e-4).
    "output-disturbance-at-last-sample": hand_case(
        _PID, (Disturbance(time=0.05, magnitude=0.3, port=PLANT_OUTPUT),)
    ),
    # 499 * 1e-4 is the second-to-last sample time, so the input
    # disturbance acts on the last step only.
    "input-at-second-to-last": hand_case(
        _PID, (Disturbance(time=499 * 1e-4, magnitude=0.3, port=PLANT_INPUT),)
    ),
    "no-disturbance": hand_case(_PID),
    # 0.0025 is exactly the sample time 25 * 1e-4: the onset is inclusive.
    "input-at-sample-time": hand_case(
        _PID, (Disturbance(time=0.0025, magnitude=2e-3, port=PLANT_INPUT),)
    ),
    # One onset, both ports: each magnitude goes to its own port.
    "both-ports-one-onset": hand_case(
        _PID,
        (
            Disturbance(time=0.01, magnitude=2e-3, port=PLANT_INPUT),
            Disturbance(time=0.01, magnitude=-0.3, port=PLANT_OUTPUT),
        ),
    ),
    # Two magnitudes on one port add up once both are active.
    "two-input-disturbances": hand_case(
        _FUZZY_SMALL,
        (
            Disturbance(time=0.0, magnitude=2e-3, port=PLANT_INPUT),
            Disturbance(time=0.02, magnitude=5e-4, port=PLANT_INPUT),
        ),
    ),
    "pid-two-per-port": hand_case(_PID, _TWO_PER_PORT),
    "fuzzy-two-per-port": hand_case(_FUZZY_SMALL, _TWO_PER_PORT),
    # Each plant order builds its own loop.
    "pid-order-1": hand_case(_PID, _OUTPUT, ORDER_1),
    "fuzzy-order-1": hand_case(_FUZZY_SMALL, _INPUT, ORDER_1),
    "pid-order-3": hand_case(_PID, _INPUT, ORDER_3),
    "fuzzy-order-3": hand_case(_FUZZY_SMALL, _OUTPUT, ORDER_3),
    "pid-order-16": hand_case(_PID, _INPUT + _OUTPUT, ORDER_16),
    "fuzzy-order-16": hand_case(_FUZZY_SMALL, _INPUT + _OUTPUT, ORDER_16),
    "pid-integer-gains": hand_case(PidConfig(gains=_INT_GAINS), _INPUT),
    "fuzzy-integer-gains": hand_case(replace(_FUZZY_SMALL, base=_INT_GAINS), _INPUT),
    # A plant with a negative gain, left at rest by zero gains: c0 * x0 is
    # -0.0, and the leading 0.0 of the output sum makes y 0.0.
    "pid-negative-gain-at-rest": hand_case(
        PidConfig(gains=PidGains(0, 0, 0)), plant=NEGATIVE_GAIN
    ),
    # The error overflows at t = dt: only row 0 is logged.
    "pid-1e308-blow-up": hand_case(
        _PID, (Disturbance(time=1e-4, magnitude=-1e308, port=PLANT_OUTPUT),), setpoint=1e308
    ),
    "fuzzy-1e308-blow-up": hand_case(
        _FUZZY_SMALL,
        (Disturbance(time=1e-4, magnitude=-1e308, port=PLANT_OUTPUT),),
        setpoint=1e308,
    ),
    # The error stays finite at -1.5e308 from t = dt on, while its
    # rate overflows to -inf at step 2: rows 0 and 1 are logged.
    "pid-rate-overflow": hand_case(_PID, _RATE_OVERFLOW, setpoint=0.0),
    "fuzzy-rate-overflow": hand_case(_FUZZY_SMALL, _RATE_OVERFLOW, setpoint=0.0),
}


class TestRunClosedLoop:
    @pytest.mark.parametrize("scenario", HAND_CASES.values(), ids=HAND_CASES.keys())
    def test_equals_hand_stepping_bitwise(self, scenario):
        traj = assert_equals_hand_stepped(scenario)
        rows = {1e308: 1, 0.0: 2}.get(scenario.setpoint, scenario.steps + 1)
        assert len(traj) == rows

    @pytest.mark.parametrize(
        "port, time, limit",
        [
            (PLANT_INPUT, math.nextafter(499 * 1e-4, math.inf), 499 * 1e-4),
            (PLANT_INPUT, 0.06, 499 * 1e-4),
            (PLANT_OUTPUT, math.nextafter(500 * 1e-4, math.inf), 500 * 1e-4),
        ],
        ids=[
            "input-after-second-to-last",
            "disturbance-after-end",
            "output-after-last",
        ],
    )
    def test_late_disturbance_rejected(self, port, time, limit):
        # An input disturbance acts on step k once t[k-1] reaches its time and
        # an output one once t[k] does, so these would act on no step.
        with pytest.raises(ValueError) as info:
            SimScenario(
                setpoint=5.0, duration=0.05, dt=1e-4,
                controller=PidConfig(gains=PidGains(0.0045, 0.05, 5e-6)),
                disturbances=(Disturbance(time=time, magnitude=2e-3, port=port),),
            )
        message = str(info.value)
        assert port in message and repr(time) in message and repr(limit) in message

    @pytest.mark.parametrize("scenario", FUZZY_RUNS.values(), ids=FUZZY_RUNS.keys())
    def test_equals_reference_inference_bitwise(self, scenario, monkeypatch):
        monkeypatch.setattr(
            adaptive, "infer_deltas",
            lambda e, ec, table: reference_deltas(e, ec, table.cells),
        )
        assert_equals_hand_stepped(scenario)

    def test_rewritten_suspect_cells_change_the_step(self):
        # So the non-default case above runs different plans.
        default = run_closed_loop(FUZZY_RUNS["step"])
        rewritten = run_closed_loop(FUZZY_RUNS["suspects-rewritten"])
        assert not np.array_equal(default.ki, rewritten.ki)

    def test_suspect_cells_barely_move_the_headline(self):
        # Rewriting both questionable cells moves the step's fuzzy overshoot
        # from 8.677657 to 8.677104% and the disturbance peak deviation from
        # 0.208775 to 0.208790; fuzzy-PID stays below PID's 11.09% either way.
        pid = compute_metrics(run_closed_loop(presets.default_scenario())).overshoot_pct
        figures = []
        for step in (FUZZY_RUNS["step"], FUZZY_RUNS["suspects-rewritten"]):
            overshoot = compute_metrics(run_closed_loop(step)).overshoot_pct
            assert overshoot < pid
            disturbed = presets.disturbance_scenario(step.controller)
            deviation = peak_deviation(run_closed_loop(disturbed), presets.DISTURBANCE_TIME)
            figures.append((overshoot, deviation))
        (overshoot, deviation), (rewritten_overshoot, rewritten_deviation) = figures
        assert abs(rewritten_overshoot - overshoot) < 1e-3
        assert abs(rewritten_deviation - deviation) < 5e-5

    def test_first_step_derivative_is_zero(self):
        # e starts at 5, so a derivative term on step 1 would add kd * 5 / dt.
        gains = PidGains(0.002, 0.0, 1e-3)
        scenario = SimScenario(
            setpoint=5.0, duration=0.01, dt=1e-4, controller=PidConfig(gains=gains)
        )
        traj = run_closed_loop(scenario)
        assert traj.u[1] == gains.kp * 5.0
        e1 = 5.0 - traj.y[1]
        assert traj.u[2] == gains.kp * e1 + gains.kd * (e1 - 5.0) / 1e-4

    def test_step_count_tolerance_is_relative(self):
        # 999.9001 / 1e-4 is 9999000.999999998 in floating point; an absolute
        # epsilon below one ulp there would lose the last step.
        scenario = SimScenario(
            setpoint=1.0, duration=999.9001, dt=1e-4,
            controller=PidConfig(gains=PidGains(0.001, 0.0, 0.0)),
        )
        assert scenario.steps == 9999001

    def test_step_count_bound(self):
        # Constructed only, never run: a run at the bound logs about 640 MB.
        controller = PidConfig(gains=PidGains(0.001, 0.0, 0.0))
        at_bound = SimScenario(setpoint=1.0, duration=1e7, dt=1.0, controller=controller)
        assert at_bound.steps == MAX_STEPS == 10**7
        with pytest.raises(ValueError, match="bound of 1e7 steps"):
            SimScenario(setpoint=1.0, duration=1e7 + 1, dt=1.0, controller=controller)

    def test_zero_setpoint_zero_state_stays_zero(self):
        for controller in (
            PidConfig(gains=PidGains(0.01, 0.1, 1e-5)),
            FuzzyPidController(
                base=PidGains(0.01, 0.1, 1e-5),
                factors=ScalingFactors(ke=5.0, kec=0.8, kup=0.45, kui=0.45, kud=0.45),
            ),
        ):
            scenario = SimScenario(setpoint=0.0, duration=0.01, dt=1e-4, controller=controller)
            traj = run_closed_loop(scenario)
            assert np.all(traj.y == 0.0)
            assert np.all(traj.u == 0.0)
            assert np.all(traj.e == 0.0)

    def test_row_count_is_floor_plus_one(self):
        controller = PidConfig(gains=PidGains(0.001, 0.0, 0.0))
        assert len(run_closed_loop(
            SimScenario(setpoint=1.0, duration=0.5, dt=1e-4, controller=controller))) == 5001
        # 0.6/1e-4 lands just below 6000 in floating point; the floor must
        # not lose the final sample.
        assert len(run_closed_loop(
            SimScenario(setpoint=1.0, duration=0.6, dt=1e-4, controller=controller))) == 6001

    def test_time_axis_uniform(self):
        controller = PidConfig(gains=PidGains(0.001, 0.0, 0.0))
        traj = run_closed_loop(SimScenario(setpoint=1.0, duration=0.02, dt=1e-3, controller=controller))
        spacing = np.diff(traj.t)
        assert np.all(spacing > 0)
        assert spacing.max() - spacing.min() <= 1e-15

    def test_error_column_is_setpoint_minus_output(self):
        scenario = SimScenario(
            setpoint=5.0,
            duration=0.05,
            dt=1e-4,
            controller=FuzzyPidController(
                base=PidGains(0.0045, 0.05, 5e-6),
                factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
            ),
            disturbances=(Disturbance(time=0.02, magnitude=0.01, port=PLANT_INPUT),),
        )
        traj = run_closed_loop(scenario)
        assert np.array_equal(traj.e, traj.r - traj.y)

    def test_row_zero_logs_initial_condition(self):
        # Every run starts from rest; an output disturbance active at t = 0
        # is already in the first measurement, and step 1 acts on it.
        scenario = SimScenario(
            setpoint=5.0, duration=0.01, dt=1e-4,
            controller=PidConfig(gains=PidGains(0.002, 0.0, 0.0)),
            disturbances=(Disturbance(time=0.0, magnitude=1.0, port=PLANT_OUTPUT),),
        )
        traj = run_closed_loop(scenario)
        assert traj.u[0] == 0.0
        assert traj.y[0] == 1.0
        assert traj.kp[0] == 0.002
        assert traj.u[1] == 0.002 * 4.0

    def test_p_only_loop_matches_second_order_formulas(self):
        zeta = 0.5
        kp = p_gain_for_damping(zeta)
        wn = math.sqrt(43956.0 * kp / 0.0037)
        scenario = SimScenario(
            setpoint=5.0, duration=0.3, dt=1e-5,
            controller=PidConfig(gains=PidGains(kp, 0.0, 0.0)),
        )
        metrics = compute_metrics(run_closed_loop(scenario))
        assert metrics.overshoot_pct == pytest.approx(
            second_order_overshoot_pct(zeta), abs=1.0
        )
        assert metrics.peak_time == pytest.approx(
            second_order_peak_time(wn, zeta), rel=0.02
        )

    def test_bit_identical_repeat_runs(self):
        scenario = SimScenario(
            setpoint=5.0, duration=0.05, dt=1e-4,
            controller=FuzzyPidController(
                base=PidGains(0.0045, 0.05, 5e-6),
                factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
            ),
        )
        a = run_closed_loop(scenario)
        b = run_closed_loop(scenario)
        for column in COLUMNS:
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_blow_up_yields_partial_trajectory(self):
        scenario = SimScenario(
            setpoint=5.0, duration=10.0, dt=0.05,
            controller=PidConfig(gains=PidGains(100.0, 0.0, 0.0)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_closed_loop(scenario)
        assert traj.blown_up
        assert 0 < len(traj) < 201
        assert np.all(np.isfinite(traj.y))

    def test_overflowing_error_rate_is_a_blow_up(self):
        # A slowly growing oscillation: the output nears the float limit
        # while the state is still finite, and the error rate overflows.
        for controller in (
            PidConfig(gains=PidGains(0.011, 0.0, 0.0)),
            FuzzyPidController(
                base=PidGains(0.011, 0.0, 0.0),
                factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
            ),
        ):
            scenario = SimScenario(setpoint=5.0, duration=10.0, dt=0.01, controller=controller)
            traj = run_closed_loop(scenario)
            assert traj.blown_up
            assert 0 < len(traj) < 1001
            assert np.all(np.isfinite(traj.y))

    @pytest.mark.parametrize("controller", BLOW_UP_CONTROLLERS, ids=("pid", "fuzzy-pid"))
    def test_unstable_plant_is_a_blow_up(self, controller):
        # Each step of 1/(s - 1000) at dt = 0.1 multiplies the state by about 4e6.
        scenario = SimScenario(
            setpoint=1.0, duration=20.0, dt=0.1, controller=controller,
            plant=TransferFunction(num=(1.0,), den=(1.0, -1000.0)),
        )
        traj = run_closed_loop(scenario)
        assert traj.blown_up
        assert 0 < len(traj) < 201
        assert_all_finite(traj)

    @pytest.mark.parametrize("controller", BLOW_UP_CONTROLLERS, ids=("pid", "fuzzy-pid"))
    @pytest.mark.parametrize(
        "time, magnitude, n_logged",
        [
            # Row 0 has y = -1e308, so its error r - y overflows: no finite row.
            (0.0, -1e308, 0),
            # The same at t = dt: only row 0 is finite.
            (1e-4, -1e308, 1),
            # A finite output of about 3e304 at t = dt plus 1.7976e308 overflows y.
            (1e-4, 1.7976e308, 1),
        ],
    )
    def test_overflowing_error_or_output_is_a_blow_up(self, controller, time, magnitude,
                                                      n_logged):
        scenario = SimScenario(
            setpoint=1e308, duration=0.01, dt=1e-4, controller=controller,
            disturbances=(Disturbance(time=time, magnitude=magnitude, port=PLANT_OUTPUT),),
        )
        traj = run_closed_loop(scenario)
        assert traj.blown_up
        assert len(traj) == n_logged
        assert_all_finite(traj)

    @pytest.mark.parametrize(
        "scenario, n_logged, blown_up",
        [
            (presets.default_scenario(), 5001, False),
            (presets.default_scenario(_FUZZY), 5001, False),
            # Row 1's output of -1e308 overflows its error.
            (
                SimScenario(
                    setpoint=1e308, duration=0.01, dt=1e-4, controller=_FUZZY,
                    disturbances=(Disturbance(time=1e-4, magnitude=-1e308, port=PLANT_OUTPUT),),
                ),
                1,
                True,
            ),
        ],
        ids=("pid", "fuzzy-pid", "blown-up"),
    )
    def test_columns_are_read_only_float64_of_the_run_length(self, scenario, n_logged,
                                                             blown_up):
        traj = run_closed_loop(scenario)
        assert (len(traj), traj.blown_up) == (n_logged, blown_up)
        for name in COLUMNS:
            column = getattr(traj, name)
            assert column.dtype == np.float64, name
            assert column.shape == (n_logged,), name
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_scenario_validation(self):
        controller = PidConfig(gains=PidGains(0.001, 0.0, 0.0))
        with pytest.raises(ValueError, match="duration must be positive"):
            SimScenario(setpoint=1.0, duration=0.0, dt=1e-4, controller=controller)
        with pytest.raises(ValueError):
            SimScenario(setpoint=1.0, duration=1.0, dt=0.0, controller=controller)
        with pytest.raises(ValueError):
            SimScenario(setpoint=math.nan, duration=1.0, dt=1e-4, controller=controller)
        with pytest.raises(ValueError):
            SimScenario(setpoint=1.0, duration=1e6, dt=1e-4, controller=controller)
        with pytest.raises(ValueError, match="shorter than one step"):
            SimScenario(setpoint=1.0, duration=0.5, dt=1.0, controller=controller)
        # One step is the shortest run: it logs two rows.
        one_step = SimScenario(setpoint=1.0, duration=1e-4, dt=1e-4, controller=controller)
        assert len(run_closed_loop(one_step)) == 2
        # duration / dt is 4999.999999994: the relative tolerance of 1e-12
        # lifts it by 5e-9, short of 5000, so it floors to 4999; one of
        # 1.5e-12 would lift it past 5000.
        short = SimScenario(setpoint=1.0, duration=0.5 - 6e-13, dt=1e-4, controller=controller)
        assert short.steps == 4999
        with pytest.raises(ValueError):
            SimScenario(setpoint=1.0, duration=1.0, dt=1e-4, controller="bang-bang")


class TestTrajectory:
    @pytest.mark.parametrize("name", COLUMNS[1:])
    def test_rejects_mismatched_column_lengths(self, name):
        # The rows of one block share their length, so a column can only be
        # missing, and a block without its row has the wrong shape.
        data = np.delete(np.zeros((len(COLUMNS), 3)), COLUMNS.index(name), axis=0)
        with pytest.raises(ValueError, match="data must be a float64 array of 8 rows"):
            Trajectory(data)

    # The CSV writer's arithmetic is float64: float32 rows would be
    # formatted to other bytes than each value on its own.
    @pytest.mark.parametrize(
        "data",
        [np.zeros(8), np.zeros((3, 8)), np.zeros((8, 3), np.float32), np.zeros((8, 3), np.int64)],
        ids=("flat", "transposed", "float32", "int64"),
    )
    def test_rejects_data_of_another_shape_or_dtype(self, data):
        with pytest.raises(ValueError, match="data must be a float64 array of 8 rows"):
            Trajectory(data)


class TestComputeMetrics:
    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError, match="trajectory is empty"):
            compute_metrics(synthetic_trajectory([], r=0.0))

    def test_overshoot_formula_first_example(self):
        traj = synthetic_trajectory([0.0, 5.538, 5.0, 5.0, 5.0, 5.0])
        metrics = compute_metrics(traj)
        assert metrics.y_peak == 5.538
        assert metrics.y_final == 5.0
        assert metrics.overshoot_pct == pytest.approx(10.76, abs=0.005)

    def test_overshoot_formula_second_example(self):
        traj = synthetic_trajectory([0.0, 16.076, 15.0, 15.0, 15.0, 15.0])
        metrics = compute_metrics(traj)
        assert metrics.overshoot_pct == pytest.approx(7.17, abs=0.005)

    def test_monotone_trajectory_has_zero_overshoot(self):
        y = np.linspace(0.0, 4.0, 21)
        metrics = compute_metrics(synthetic_trajectory(y, dt=0.5))
        assert metrics.overshoot_pct == 0.0
        assert metrics.peak_time == 10.0  # the final sample

    def test_peak_is_first_global_maximum(self):
        traj = synthetic_trajectory([0.0, 3.0, 1.0, 3.0, 2.0, 2.0], dt=1.0)
        metrics = compute_metrics(traj)
        assert metrics.y_peak == 3.0
        assert metrics.peak_time == 1.0

    def test_step_down_peak_is_first_global_minimum(self):
        traj = synthetic_trajectory([0.0, -3.0, -1.0, -3.0, -2.0, -2.0], dt=1.0)
        metrics = compute_metrics(traj)
        assert metrics.y_peak == -3.0
        assert metrics.peak_time == 1.0
        assert metrics.overshoot_pct == 50.0

    def test_settling_time_band(self):
        # band is 2% of y_final = 0.1; last sample outside is 5.2 at t=1,
        # so settling happens at the next sample.
        traj = synthetic_trajectory([0.0, 5.2, 5.05, 5.01, 5.0, 5.0], dt=1.0)
        metrics = compute_metrics(traj)
        assert metrics.settling_time == 2.0

    def test_settling_band_is_two_percent(self):
        # The 2% band of y_final = 100 is +-2, and 102.5 lies between it and
        # the 3% band, so the response settles after it, at t = 3.
        traj = synthetic_trajectory([0.0, 104.0, 102.5, 101.0, 100.0, 100.0], dt=1.0)
        assert compute_metrics(traj).settling_time == 3.0

    def test_settling_time_zero_when_never_outside(self):
        traj = synthetic_trajectory([5.0, 5.0, 5.0, 5.0], dt=0.1)
        assert compute_metrics(traj).settling_time == 0.0

    def test_rise_time_from_ramp(self):
        t = np.arange(0, 21)
        y = np.minimum(t * 0.5, 5.0)  # reaches 5.0 at t = 10, holds after
        metrics = compute_metrics(synthetic_trajectory(y, dt=1.0))
        # 10% crossing at y >= 0.5 (t = 1), 90% at y >= 4.5 (t = 9)
        assert metrics.rise_time == 8.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rise_time_from_samples_on_the_levels(self, sign):
        # y_final = 10: the samples 1.0 and 9.0 lie exactly on the 10% and
        # 90% levels, so they are the crossings (t = 2 and t = 4).
        y = sign * np.array([0.0, 0.5, 1.0, 5.0, 9.0, 10.0, 10.0])
        assert compute_metrics(synthetic_trajectory(y, dt=1.0)).rise_time == 2.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rise_time_takes_the_last_sample(self, sign):
        # Only the last sample reaches 90% of the final value, 4.5.
        y = sign * np.arange(6.0)
        metrics = compute_metrics(synthetic_trajectory(y, dt=1.0))
        # 10% crossing at |y| >= 0.5 (t = 1), 90% at the last sample (t = 5)
        assert metrics.rise_time == 4.0

    @pytest.mark.parametrize(
        "y, message",
        [
            ([0.0, 4.0, 5.0, math.nan], "holds a NaN"),
            ([0.0, math.nan, 5.0, 5.0], "holds a NaN"),
            # y - y_final would be inf - inf, a NaN with a RuntimeWarning.
            ([0.0, 1.0, math.inf], "ends at an infinity"),
            ([0.0, -1.0, -math.inf], "ends at an infinity"),
        ],
        ids=("end", "middle", "end-inf", "end-minus-inf"),
    )
    def test_rejects_nan_output(self, y, message):
        with pytest.raises(ValueError, match=message):
            compute_metrics(synthetic_trajectory(y, r=5.0))

    def test_deviation_past_the_float_range_is_inf(self):
        # y - y_final overflows to -inf at the -1e308 sample, which lies
        # outside the settling band; numpy's overflow warning would be an
        # error here.
        traj = synthetic_trajectory([0.0, 1e308, -1e308, 1e308], dt=1.0, r=0.0)
        assert compute_metrics(traj) == StepMetrics(
            y_peak=1e308,
            peak_time=1.0,
            settling_time=3.0,
            rise_time=0.0,
            y_final=1e308,
            overshoot_pct=0.0,
            settled=True,
        )

    def test_settled_flag(self):
        settled = synthetic_trajectory([0.0] + [5.0] * 99, dt=1.0)
        assert compute_metrics(settled).settled
        drifting = synthetic_trajectory(list(np.linspace(0, 5, 100)), dt=1.0)
        assert not compute_metrics(drifting).settled

    # 100 samples settle at 100 but one, whose deviation is exactly the 1%
    # band (1.0) or between the 1% and 1.5% bands (1.2). The settled tail
    # is the last 5%, samples 95 on.
    @pytest.mark.parametrize(
        "index, value, settled",
        [(97, 101.0, True), (97, 101.2, False), (94, 101.2, True), (95, 101.2, False)],
        ids=("on-band", "outside-band", "before-tail", "tail-start"),
    )
    def test_settled_flag_band_and_tail(self, index, value, settled):
        y = np.full(100, 100.0)
        y[0] = 0.0
        y[index] = value
        assert compute_metrics(synthetic_trajectory(y, dt=1.0)).settled is settled

    def test_zero_final_value_reports_undefined_percentages(self):
        traj = synthetic_trajectory([0.0, 1.0, 0.5, 0.0], r=5.0)
        metrics = compute_metrics(traj)
        assert metrics.overshoot_pct is None
        assert metrics.rise_time is None
        assert metrics.y_peak == 1.0

    def test_invariant_under_appending_settled_samples(self):
        y = [0.0, 5.538, 5.0, 5.0, 5.0, 5.0]
        base = compute_metrics(synthetic_trajectory(y))
        extended = compute_metrics(synthetic_trajectory(y + [5.0] * 10))
        assert extended.overshoot_pct == base.overshoot_pct
        assert extended.peak_time == base.peak_time
        assert extended.y_peak == base.y_peak
        assert extended.y_final == base.y_final

    def test_scale_covariance_of_closed_loop(self):
        def run(setpoint):
            scenario = SimScenario(
                setpoint=setpoint, duration=0.2, dt=1e-4,
                controller=PidConfig(gains=PidGains(0.0045, 0.05, 5e-6)),
            )
            return compute_metrics(run_closed_loop(scenario))

        small, large = run(2.0), run(2.0 * 3.5)
        assert large.y_peak == pytest.approx(3.5 * small.y_peak, rel=1e-9)
        assert large.y_final == pytest.approx(3.5 * small.y_final, rel=1e-9)
        assert large.overshoot_pct == pytest.approx(small.overshoot_pct, rel=1e-7)

    @pytest.mark.parametrize("setpoint", [2.0, 5.0])
    def test_pid_step_down_mirrors_step_up(self, setpoint):
        # The PID loop is linear and starts at rest, so the step down is
        # the exact mirror of the step up (equal values, and -0.0 against
        # row 0's 0.0), and so are its figures.
        up, down = (
            run_closed_loop(replace(presets.default_scenario(), setpoint=r))
            for r in (setpoint, -setpoint)
        )
        assert np.array_equal(down.y, -up.y)
        up, down = compute_metrics(up), compute_metrics(down)
        for name in ("overshoot_pct", "peak_time", "settling_time", "rise_time"):
            assert getattr(down, name).hex() == getattr(up, name).hex(), name
        for name in ("y_peak", "y_final"):
            assert getattr(down, name).hex() == (-getattr(up, name)).hex(), name


class TestPeakDeviation:
    def test_max_excursion_after_time(self):
        traj = synthetic_trajectory([5.0, 5.0, 6.5, 4.0, 5.0, 5.0], dt=1.0, r=5.0)
        assert peak_deviation(traj, 0.0) == 1.5
        assert peak_deviation(traj, 3.0) == 1.0

    def test_rejects_empty_window(self):
        traj = synthetic_trajectory([5.0, 5.0], dt=1.0)
        with pytest.raises(ValueError):
            peak_deviation(traj, 100.0)

    def test_deviation_past_the_float_range_is_inf(self):
        # y - r overflows to -inf at the -1e308 sample; numpy's overflow
        # warning would be an error here. The helper's e = r - y overflows
        # there too.
        with np.errstate(over="ignore"):
            traj = synthetic_trajectory([0.0, -1e308, 1e308], dt=1.0, r=1e308)
        assert peak_deviation(traj, 0.0) == math.inf
        assert peak_deviation(traj, 2.0) == 0.0

    @pytest.mark.parametrize("row", [COLUMNS.index("y"), COLUMNS.index("r")], ids=("y", "r"))
    def test_nan_in_the_window_is_rejected(self, row):
        traj = synthetic_trajectory([5.0, 5.0, 6.5, 5.0], dt=1.0, r=5.0)
        data = traj.data.copy()
        data[row, 1] = math.nan
        traj = Trajectory(data)
        with pytest.raises(ValueError, match="holds a NaN at or after t=1.0"):
            peak_deviation(traj, 1.0)
        # A NaN before the window is ignored.
        assert peak_deviation(traj, 2.0) == 1.5


class TestCompareControllers:
    def test_degenerate_equivalence(self):
        gains = PidGains(0.0045, 0.05, 5e-6)
        scenario = SimScenario(
            setpoint=5.0, duration=0.1, dt=1e-4, controller=PidConfig(gains=gains)
        )
        result = compare_controllers(
            scenario,
            PidConfig(gains=gains),
            FuzzyPidController(
                base=gains, factors=ScalingFactors(ke=5.0, kec=0.8, kup=0.0, kui=0.0, kud=0.0)
            ),
        )
        assert result.pid_metrics == result.fuzzy_metrics
        for column in COLUMNS:
            assert np.array_equal(
                getattr(result.pid_trajectory, column),
                getattr(result.fuzzy_trajectory, column),
            )

    def test_plant_map_is_computed_once_per_scenario(self, monkeypatch):
        # Building a scenario computes the RK4 map and a run reuses it;
        # compare_controllers builds one scenario per controller.
        calls = []

        def counting(plant, dt):
            calls.append((plant, dt))
            return rk4_zoh(plant, dt)

        monkeypatch.setattr(harness, "rk4_zoh", counting)
        gains = PidGains(0.0045, 0.05, 5e-6)
        scenario = SimScenario(
            setpoint=5.0, duration=0.01, dt=1e-4, controller=PidConfig(gains=gains)
        )
        assert calls == [(PIPELINE_TF, 1e-4)]
        pid_traj = run_closed_loop(scenario)
        assert calls == [(PIPELINE_TF, 1e-4)]
        result = compare_controllers(scenario, PidConfig(gains=gains), _FUZZY)
        assert calls == [(PIPELINE_TF, 1e-4)] * 3
        assert np.array_equal(result.pid_trajectory.data, pid_traj.data)
        fuzzy_traj = run_closed_loop(replace(scenario, controller=_FUZZY))
        assert np.array_equal(result.fuzzy_trajectory.data, fuzzy_traj.data)
        assert len(result.pid_trajectory) == len(result.fuzzy_trajectory) == 101

    def test_loop_is_built_once_per_order_and_kind(self, monkeypatch):
        # A fresh process has built no loop after the import.
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sprayflow; print(sprayflow.harness._loop.cache_info().currsize)"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert result.stdout == "0\n"
        # Each build reads the plant-step lines once.
        builds = []

        def counting(order):
            builds.append(order)
            return step_lines(order)

        harness._loop.cache_clear()
        monkeypatch.setattr(harness, "step_lines", counting)
        scenario = hand_case(_PID)
        run_closed_loop(scenario)
        run_closed_loop(scenario)
        assert builds == [2]
        compare_controllers(scenario, _PID, _FUZZY)
        assert builds == [2, 2]
        compare_controllers(scenario, _PID, _FUZZY_SMALL)
        assert builds == [2, 2]
        # One loop per count of disturbances on each port, whatever their values.
        run_closed_loop(replace(scenario, disturbances=_INPUT + _OUTPUT))
        assert builds == [2, 2, 2]
        run_closed_loop(replace(scenario, disturbances=_TWO_PER_PORT[1:3]))
        assert builds == [2, 2, 2]
        compare_controllers(replace(scenario, plant=ORDER_3), _PID, _FUZZY)
        assert builds == [2, 2, 2, 3, 3]
        assert harness._loop.cache_info().currsize == 5

    @pytest.mark.parametrize("slot", [0, 1])
    def test_rejects_unsupported_controller(self, slot):
        controllers = [_PID, _FUZZY]
        controllers[slot] = _PID_GAINS
        with pytest.raises(ValueError, match="unsupported controller PidGains"):
            compare_controllers(hand_case(_PID), *controllers)

    def test_run_without_a_finite_row_has_no_metrics(self):
        scenario = SimScenario(
            setpoint=1e308, duration=0.01, dt=1e-4, controller=BLOW_UP_CONTROLLERS[0],
            disturbances=(Disturbance(time=0.0, magnitude=-1e308, port=PLANT_OUTPUT),),
        )
        result = compare_controllers(scenario, *BLOW_UP_CONTROLLERS)
        assert len(result.pid_trajectory) == len(result.fuzzy_trajectory) == 0
        assert result.pid_metrics is None
        assert result.fuzzy_metrics is None

    def test_disturbance_rejection_ordering(self):
        gains = PidGains(0.0045, 0.05, 5e-6)
        scenario = SimScenario(
            setpoint=5.0, duration=1.0, dt=1e-4,
            controller=PidConfig(gains=gains),
            disturbances=(Disturbance(time=0.5, magnitude=1e-3, port=PLANT_INPUT),),
        )
        result = compare_controllers(
            scenario,
            PidConfig(gains=gains),
            FuzzyPidController(
                base=gains,
                factors=ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6),
            ),
        )
        assert peak_deviation(result.fuzzy_trajectory, 0.5) <= peak_deviation(
            result.pid_trajectory, 0.5
        )
