import math

import numpy as np
import pytest

from sprayflow.plant import (
    PIPELINE_TF,
    Disturbance,
    NumericalBlowUp,
    TransferFunction,
    advance,
    rk4_zoh,
    tf_to_ss,
)


class TestTransferFunction:
    def test_rejects_improper(self):
        with pytest.raises(ValueError):
            TransferFunction(num=(1.0, 0.0), den=(1.0, 2.0))
        with pytest.raises(ValueError):
            TransferFunction(num=(1.0,), den=(3.0,))

    def test_rejects_zero_leading_denominator(self):
        with pytest.raises(ValueError):
            TransferFunction(num=(1.0,), den=(0.0, 1.0, 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TransferFunction(num=(math.inf,), den=(1.0, 1.0))

    def test_leading_zero_numerator_is_proper(self):
        tf = TransferFunction(num=(0.0, 5.0), den=(1.0, 2.0))
        assert tf_to_ss(tf).order == 1


class TestTfToSs:
    def test_pipeline_model_realization(self):
        model = tf_to_ss(PIPELINE_TF)
        assert model.order == 2
        assert model.a[0, 0] == 0.0
        assert model.a[0, 1] == 1.0
        assert model.a[1, 0] == 0.0
        assert model.a[1, 1] == pytest.approx(-1.0 / 0.0037, rel=1e-13)
        assert np.array_equal(model.b, [0.0, 1.0])
        assert model.c[0] == pytest.approx(43956.0 / 0.0037, rel=1e-13)
        assert model.c[1] == 0.0
        # Cross-check the normalized gain path.
        assert 0.0037 * model.c[0] == pytest.approx(43956.0, rel=1e-13)

    def test_pure_integrator(self):
        model = tf_to_ss(TransferFunction(num=(1.0,), den=(1.0, 0.0)))
        assert np.array_equal(model.a, [[0.0]])
        assert np.array_equal(model.b, [1.0])
        assert np.array_equal(model.c, [1.0])

    def test_first_order_lag(self):
        k, a = 3.5, 2.0
        model = tf_to_ss(TransferFunction(num=(k,), den=(1.0, a)))
        assert np.array_equal(model.a, [[-a]])
        assert np.array_equal(model.b, [1.0])
        assert np.array_equal(model.c, [k])


def stepper(model, dt):
    """The model's RK4 step at one dt, with Phi and Gamma computed once."""
    rows = rk4_zoh(model, dt)
    c = tuple(model.c.tolist())
    return lambda x, u: advance(rows, c, x, u)


class TestPlantStep:
    def test_zero_state_zero_input(self):
        step = stepper(tf_to_ss(PIPELINE_TF), 0.1)
        x, y = step([0.0, 0.0], 0.0)
        assert x == [0.0, 0.0]
        assert y == 0.0

    def test_integrator_exact_for_constant_input(self):
        step = stepper(tf_to_ss(TransferFunction(num=(1.0,), den=(1.0, 0.0))), 0.1)
        x, y = step([0.0], 1.0)
        assert x[0] == pytest.approx(0.1, rel=1e-15)
        assert y == pytest.approx(0.1, rel=1e-15)

    def test_output_identity_after_every_step(self):
        model = tf_to_ss(PIPELINE_TF)
        step = stepper(model, 1e-4)
        x = [0.0, 0.0]
        rng = np.random.default_rng(3)
        for u in rng.uniform(-1.0, 1.0, size=50):
            x, y = step(x, float(u))
            assert y == float(model.c @ np.array(x))

    def test_pipeline_slope_approaches_dc_gain(self):
        # After the 3.7 ms lag decays, dy/dt of the integrating plant under
        # constant input approaches 43956*u.
        dt = 1e-4
        step = stepper(tf_to_ss(PIPELINE_TF), dt)
        x = [0.0, 0.0]
        for _ in range(2000):
            x, y_prev = step(x, 1.0)
        x, y = step(x, 1.0)
        slope = (y - y_prev) / dt
        assert slope == pytest.approx(43956.0, rel=1e-3)

    def test_linearity_of_trajectories(self):
        step = stepper(tf_to_ss(PIPELINE_TF), 1e-4)
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1.0, 1.0, size=200)
        scale = 3.7
        x1 = x2 = [0.0, 0.0]
        for u in inputs:
            x1, y1 = step(x1, float(u))
            x2, y2 = step(x2, float(scale * u))
            assert y2 == pytest.approx(scale * y1, rel=1e-9, abs=1e-12)

    def test_blow_up_detected(self):
        step = stepper(tf_to_ss(TransferFunction(num=(1.0,), den=(1.0, -1000.0))), 0.1)
        x = [1.0]
        with pytest.raises(NumericalBlowUp):
            for _ in range(200):
                x, _ = step(x, 0.0)

    def test_non_finite_input_flags_blow_up(self):
        step = stepper(tf_to_ss(PIPELINE_TF), 0.1)
        with pytest.raises(NumericalBlowUp):
            step([0.0, 0.0], math.inf)


def classical_rk4_step(a, b, x, u, dt):
    """One four-stage RK4 step of x' = Ax + Bu with u held over the step."""
    def f(state):
        return a @ state + b * u

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestRk4Zoh:
    @pytest.mark.parametrize(
        "tf, dt",
        [
            (PIPELINE_TF, 1e-4),
            # (s + 1.5) / ((s + 1)(s + 2)(s + 3)), a third-order plant.
            (TransferFunction(num=(1.0, 1.5), den=(1.0, 6.0, 11.0, 6.0)), 0.05),
        ],
    )
    def test_phi_gamma_equal_one_four_stage_step(self, tf, dt):
        model = tf_to_ss(tf)
        n = model.order
        rows = np.array(rk4_zoh(model, dt))
        phi, gamma = rows[:, :n], rows[:, n]
        # The step is linear in (x, u): its columns are the unit responses.
        phi_ref = np.column_stack(
            [classical_rk4_step(model.a, model.b, np.eye(n)[j], 0.0, dt) for j in range(n)]
        )
        gamma_ref = classical_rk4_step(model.a, model.b, np.zeros(n), 1.0, dt)
        for got, want in ((phi, phi_ref), (gamma, gamma_ref)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        rng = np.random.default_rng(17)
        c = tuple(model.c.tolist())
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=n)
            u = float(rng.uniform(-1.0, 1.0))
            x_next, y = advance(rows.tolist(), c, x.tolist(), u)
            want = classical_rk4_step(model.a, model.b, x, u, dt)
            assert np.max(np.abs(np.array(x_next) - want)) <= 1e-14 * np.max(np.abs(want))
            assert y == pytest.approx(float(model.c @ want), rel=1e-13)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            rk4_zoh(tf_to_ss(PIPELINE_TF), 0.0)


class TestDisturbances:
    def test_validation(self):
        with pytest.raises(ValueError):
            Disturbance(time=-1.0, magnitude=1.0)
        with pytest.raises(ValueError):
            Disturbance(time=0.0, magnitude=1.0, port="actuator")
