import functools
import hashlib
import math
import re
import struct

import numpy as np
import pytest

from sprayflow import plant
from sprayflow.plant import (
    MAX_ORDER,
    PIPELINE_TF,
    Disturbance,
    TransferFunction,
    rk4_zoh,
    tf_to_ss,
)

from _oracles import advance, dense_rk4_map


# The pipeline plant's step at dt = 1e-4 as (rows, c), written out:
# TestRk4Zoh pins rk4_zoh to it.
_h = float.fromhex
PIPELINE_STEP_BITS = (
    (
        (_h("0x1.0000000000000p+0"), _h("0x1.9dd029e888f2fp-14"), _h("0x1.5485d7ff48df7p-28")),
        (0.0, _h("0x1.f258f4e33bce6p-1"), _h("0x1.9dd029e888f2fp-14")),
    ),
    (_h("0x1.6a8c800000000p+23"), 0.0),
)

# A plant of order MAX_ORDER, the pipeline model with fourteen more 0.1 ms
# lags, written in decimal: TestRk4Zoh pins its map, and test_cli runs it
# through `sprayflow compare`.
ORDER_16_TF = TransferFunction(
    num=(43956.0,),
    den=(
        3.7e-59, 5.19e-54, 3.381e-49, 1.3559e-44, 3.7401e-40, 7.5075e-36, 1.13113e-31,
        1.29987e-27, 1.14543e-23, 7.7077e-20, 3.9039e-16, 1.4469e-12, 3.731e-9, 6.09e-6,
        0.0051, 1.0, 0.0,
    ),
)


def map_hex(rows, c):
    """The float.hex of every entry of a step (rows, c), row by row, then c."""
    return " ".join(v.hex() for row in (*rows, c) for v in row)


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
        rows, c = rk4_zoh(tf, 0.1)
        assert len(rows) == len(c) == 1

    @pytest.mark.parametrize("num, den", [((), (1.0, 0.0)), ((1.0,), ())], ids=("num", "den"))
    def test_rejects_empty_coefficients(self, num, den):
        with pytest.raises(ValueError, match="non-empty"):
            TransferFunction(num=num, den=den)

    def test_order_bound(self):
        # den = s^n + 1: the largest accepted order, then one more.
        rows, c = rk4_zoh(TransferFunction(num=(1.0,), den=(1.0,) + (0.0,) * 15 + (1.0,)), 1e-3)
        assert MAX_ORDER == 16
        assert len(rows) == len(c) == 16
        with pytest.raises(ValueError, match="plant order 17 exceeds the bound of 16"):
            TransferFunction(num=(1.0,), den=(1.0,) + (0.0,) * 16 + (1.0,))


class TestTfToSs:
    def test_pipeline_model_realization(self):
        a, b, c = map(np.asarray, tf_to_ss(PIPELINE_TF))
        assert a.shape == (2, 2)
        assert a[0, 0] == 0.0
        assert a[0, 1] == 1.0
        assert a[1, 0] == 0.0
        assert a[1, 1] == pytest.approx(-1.0 / 0.0037, rel=1e-13)
        assert np.array_equal(b, [0.0, 1.0])
        assert c[0] == pytest.approx(43956.0 / 0.0037, rel=1e-13)
        assert c[1] == 0.0
        # Cross-check the normalized gain path.
        assert 0.0037 * c[0] == pytest.approx(43956.0, rel=1e-13)

    def test_pure_integrator(self):
        a, b, c = map(np.asarray, tf_to_ss(TransferFunction(num=(1.0,), den=(1.0, 0.0))))
        assert np.array_equal(a, [[0.0]])
        assert np.array_equal(b, [1.0])
        assert np.array_equal(c, [1.0])

    def test_first_order_lag(self):
        k, lag = 3.5, 2.0
        a, b, c = map(np.asarray, tf_to_ss(TransferFunction(num=(k,), den=(1.0, lag))))
        assert np.array_equal(a, [[-lag]])
        assert np.array_equal(b, [1.0])
        assert np.array_equal(c, [k])


def stepper(tf, dt):
    """The plant's RK4 step at one dt as a function step(x, u), with Phi
    and Gamma computed once."""
    return functools.partial(plant.step, *rk4_zoh(tf, dt))


class TestPlantStep:
    def test_zero_state_zero_input(self):
        step = stepper(PIPELINE_TF, 0.1)
        x, y = step((0.0, 0.0), 0.0)
        assert x == (0.0, 0.0)
        assert y == 0.0

    def test_integrator_exact_for_constant_input(self):
        step = stepper(TransferFunction(num=(1.0,), den=(1.0, 0.0)), 0.1)
        x, y = step((0.0,), 1.0)
        assert x[0] == pytest.approx(0.1, rel=1e-15)
        assert y == pytest.approx(0.1, rel=1e-15)

    def test_output_identity_after_every_step(self):
        c = np.asarray(tf_to_ss(PIPELINE_TF)[2])
        step = stepper(PIPELINE_TF, 1e-4)
        x = [0.0, 0.0]
        rng = np.random.default_rng(3)
        for u in rng.uniform(-1.0, 1.0, size=50):
            x, y = step(x, float(u))
            assert y == float(c @ np.array(x))

    def test_pipeline_slope_approaches_dc_gain(self):
        # After the 3.7 ms lag decays, dy/dt of the integrating plant under
        # constant input approaches 43956*u.
        dt = 1e-4
        step = stepper(PIPELINE_TF, dt)
        x = [0.0, 0.0]
        for _ in range(2000):
            x, y_prev = step(x, 1.0)
        x, y = step(x, 1.0)
        slope = (y - y_prev) / dt
        assert slope == pytest.approx(43956.0, rel=1e-3)

    def test_linearity_of_trajectories(self):
        step = stepper(PIPELINE_TF, 1e-4)
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1.0, 1.0, size=200)
        scale = 3.7
        x1 = x2 = [0.0, 0.0]
        for u in inputs:
            x1, y1 = step(x1, float(u))
            x2, y2 = step(x2, float(scale * u))
            assert y2 == pytest.approx(scale * y1, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "tf, dt",
        [
            # c = (43956 / 0.0037, 0): a non-finite x[1] reaches y only as 0 * inf.
            (PIPELINE_TF, 1e-4),
            (TransferFunction(num=(1.0,), den=(1.0, -1000.0)), 0.1),
            (TransferFunction(num=(1.0, 1.5), den=(1.0, 6.0, 11.0, 6.0)), 0.05),
        ],
        ids=("pipeline", "unstable", "third-order"),
    )
    def test_non_finite_state_or_input_gives_non_finite_output(self, tf, dt):
        # The step checks nothing; the closed loop checks y alone, which
        # relies on this.
        step = stepper(tf, dt)
        n = len(tf.den) - 1
        for bad in (math.inf, -math.inf, math.nan):
            for i in range(n):
                x = [0.5] * n
                x[i] = bad
                x_next, y = step(x, 0.25)
                assert not any(map(math.isfinite, x_next))
                assert not math.isfinite(y)
            x_next, y = step([0.5] * n, bad)
            assert not any(map(math.isfinite, x_next))
            assert not math.isfinite(y)

    @pytest.mark.parametrize("x", [(0.0,), (0.0, 0.0, 0.0)], ids=["short-state", "long-state"])
    def test_state_of_another_length_raises(self, x):
        # A short state would read u as a state entry and drop the Gamma
        # column; a long one would take a state entry for u.
        rows, c = rk4_zoh(PIPELINE_TF, 1e-4)
        with pytest.raises(ValueError):
            plant.step(rows, c, x, 1.0)

    def test_state_overflow_gives_non_finite_output(self):
        # One step of 1/(s - 1000) at dt = 0.1 multiplies the state by about 4e6.
        step = stepper(TransferFunction(num=(1.0,), den=(1.0, -1000.0)), 0.1)
        x, y = step((1e303,), 0.0)
        assert x == (math.inf,)
        assert y == math.inf


def _bits(values):
    """The bytes of values, with every nan written as math.nan.

    The sign of a nan that a sum of two nans returns is not reproducible:
    CPython's float addition returns one operand or the other depending on
    whether the interpreter has specialized the instruction yet, so the
    reference step itself gives both signs for the same input. No nan is
    ever logged, so only the bits of the other values are compared.
    """
    return struct.pack(f"<{len(values)}d", *(math.nan if v != v else v for v in values))


class TestCompiledStepBitwise:
    """`plant.step` against the reference step, compared as bytes.

    == takes -0.0 for 0.0, so both results are packed with struct and
    compared whole.
    """

    @staticmethod
    def assert_same_bits(rows, c, x, u):
        x_ref, y_ref = advance(rows, c, list(x), u)
        x_next, y = plant.step(rows, c, x, u)
        assert type(x_next) is tuple
        assert _bits(x_next + (y,)) == _bits(tuple(x_ref) + (y_ref,)), (rows, c, x, u)

    @staticmethod
    def special_inputs(n, rng):
        """States and inputs with signed zeros, infinities and nan."""
        special = (0.0, -0.0, math.inf, -math.inf, math.nan)
        cases = [((-0.0,) * n, -0.0), ((-0.0,) * n, 0.0), ((0.0,) * n, -0.0)]
        for value in special:
            cases.append(((0.5,) * n, value))
            for i in range(n):
                x = [float(v) for v in rng.normal(size=n)]
                x[i] = value
                cases.append((tuple(x), float(rng.normal())))
        for _ in range(50):
            x = tuple(float(v) for v in rng.normal(scale=10.0 ** rng.integers(-3, 4), size=n))
            cases.append((x, float(rng.normal())))
        return cases

    @pytest.mark.parametrize("n", [1, 2, 3, 4, MAX_ORDER])
    def test_random_steps(self, n):
        rng = np.random.default_rng(n)
        signed = rng.normal(size=(n + 1, n + 1))
        # Entries of both signs, then non-negative rows and a non-positive
        # output row: with the latter an all -0.0 state and u = -0.0 make
        # every term of every sum -0.0, which the leading 0.0 turns into
        # 0.0. Zeros of both signs are mixed in.
        for values in (signed, np.vstack([np.abs(signed[:n]), -np.abs(signed[n:])])):
            values[rng.random(size=values.shape) < 0.2] = 0.0
            values[rng.random(size=values.shape) < 0.1] = -0.0
            rows = tuple(tuple(row) for row in values[:n].tolist())
            c = tuple(values[n, :n].tolist())
            for x, u in self.special_inputs(n, rng):
                self.assert_same_bits(rows, c, x, u)

    def test_rk4_steps(self):
        rng = np.random.default_rng(5)
        for tf, dt in (
            (PIPELINE_TF, 1e-4),
            (TransferFunction(num=(1.0, 1.5), den=(1.0, 6.0, 11.0, 6.0)), 0.05),
        ):
            rows, c = rk4_zoh(tf, dt)
            for x, u in self.special_inputs(len(rows), rng):
                self.assert_same_bits(rows, c, x, u)

    def test_non_finite_entries_are_values_not_source(self):
        # rk4_zoh rejects such a step; plant.step takes it as it is.
        rows = (
            (math.inf, -0.0, 1.0),
            (math.nan, 2.0, -math.inf),
        )
        c = (math.nan, 0.0)
        rng = np.random.default_rng(9)
        for x, u in self.special_inputs(2, rng) + [((0.0, 1.0), 0.0), ((1.0, 0.0), 1.0)]:
            self.assert_same_bits(rows, c, x, u)


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
        a, b, c_ref = map(np.asarray, tf_to_ss(tf))
        n = len(c_ref)
        rows, c = rk4_zoh(tf, dt)
        assert c == tuple(c_ref.tolist())
        assert all(type(value) is float for row in rows for value in row + c)
        rows = np.array(rows)
        phi, gamma = rows[:, :n], rows[:, n]
        # The step is linear in (x, u): its columns are the unit responses.
        phi_ref = np.column_stack(
            [classical_rk4_step(a, b, np.eye(n)[j], 0.0, dt) for j in range(n)]
        )
        gamma_ref = classical_rk4_step(a, b, np.zeros(n), 1.0, dt)
        for got, want in ((phi, phi_ref), (gamma, gamma_ref)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        step = functools.partial(plant.step, rows.tolist(), c)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=n)
            u = float(rng.uniform(-1.0, 1.0))
            x_next, y = step(x.tolist(), u)
            want = classical_rk4_step(a, b, x, u, dt)
            assert np.max(np.abs(np.array(x_next) - want)) <= 1e-14 * np.max(np.abs(want))
            assert y == pytest.approx(float(c_ref @ want), rel=1e-13)

    def test_pipeline_map_bits(self):
        assert map_hex(*rk4_zoh(PIPELINE_TF, 1e-4)) == map_hex(*PIPELINE_STEP_BITS)

    def test_order_1_map_bits(self):
        rows, c = rk4_zoh(TransferFunction(num=(3.5,), den=(1.0, 2.0)), 0.1)
        assert map_hex(rows, c) == "0x1.a33103f59f9b9p-1 0x1.733bf02981920p-4 0x1.c000000000000p+1"

    def test_order_3_map_bits(self):
        rows, c = rk4_zoh(TransferFunction(num=(1.0, 1.5), den=(1.0, 6.0, 11.0, 6.0)), 0.05)
        assert map_hex(rows, c) == (
            "0x1.fff0d844d013ap-1 0x1.97d9c54a69217p-5 0x1.289e60f04c757p-10 "
            "0x1.434f9953b1e74p-16 -0x1.bced916872b03p-8 0x1.f991712fa66f2p-1 "
            "0x1.603c131d5acb7p-5 0x1.289e60f04c757p-10 -0x1.082d0e5604189p-2 "
            "-0x1.eb46508dfea28p-2 0x1.757aea04a462ep-1 0x1.603c131d5acb7p-5 "
            "0x1.8000000000000p+0 0x1.0000000000000p+0 0x0.0p+0"
        )

    def test_order_16_map_bits(self):
        # The map is plain floats, each entry of a product with hA its two
        # non-zero products added left to right from 0.0, so these bits
        # hold on every machine.
        text = map_hex(*rk4_zoh(ORDER_16_TF, 1e-4))
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        assert digest == "5d629241695ce44b2f790da73a92c402fa727528e5b895166126d96a15a9c8e1"

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            rk4_zoh(PIPELINE_TF, 0.0)

    @pytest.mark.parametrize(
        "num, den, dt",
        [
            ((1.0,), (1.0, 1e300, 1.0), 1e-4),  # the series overflows
            ((1.0,), (1e-300, 1e300, 1.0), 1e-4),  # den / den[0] overflows
            ((1e300,), (1e-300, 1.0), 1e-4),  # num / den[0] overflows, so c does
            ((1.0,), (1.0, 1e308, 1.0), 10.0),  # dt * den overflows in hA's last row
        ],
        ids=("series", "den", "num", "hA"),
    )
    def test_rejects_non_finite_step(self, num, den, dt):
        with pytest.raises(ValueError, match=rf"den=.* at dt={re.escape(repr(dt))} is not finite"):
            rk4_zoh(TransferFunction(num=num, den=den), dt)

    def test_equals_dense_map_bitwise(self):
        # The dense map multiplies by every entry of hA; rk4_zoh skips the
        # zeros of the companion matrix. Both must give the same bits, or
        # reject the same plant with the same message.
        rejected = 0
        for tf, dt in random_plants(300, seed=23):
            try:
                want = dense_rk4_map(tf, dt)
            except ValueError as exc:
                rejected += 1
                with pytest.raises(ValueError) as info:
                    rk4_zoh(tf, dt)
                assert str(info.value) == str(exc)
                continue
            rows, c = rk4_zoh(tf, dt)
            assert _bits([v for row in rows for v in row]) == _bits(
                [v for row in want[0] for v in row]
            ), (tf, dt)
            assert _bits(c) == _bits(want[1]), (tf, dt)
        # Both paths are taken.
        assert 0 < rejected < 100


def random_plants(count, seed):
    """(plant, dt) pairs for the map: orders 1 to 16, real poles 0.1 to
    1e4 rad/s, dt 1e-5 to 1e-3 s.

    About a third have a pure integrator (den[-1] = 0), some other
    denominator and numerator coefficients are 0.0 or -0.0, and about a
    tenth have a leading coefficient small enough that normalizing by it,
    or the series, overflows.
    """
    rng = np.random.default_rng(seed)
    plants = []
    while len(plants) < count:
        n = int(rng.integers(1, MAX_ORDER + 1))
        den = np.poly(-(10.0 ** rng.uniform(-1.0, 4.0, size=n)))
        if rng.random() < 1 / 3:
            den[-1] = 0.0
        zeros = rng.random(size=n + 1) < 0.1
        zeros[0] = False
        den[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        if rng.random() < 0.1:
            den[0] = 10.0 ** rng.uniform(-300.0, -10.0)
        num = rng.uniform(-1e3, 1e3, size=int(rng.integers(1, n + 1)))
        num[rng.random(size=num.size) < 0.2] = -0.0
        num[-1] = 1.0
        dt = 10.0 ** rng.uniform(-5.0, -3.0)
        plants.append((TransferFunction(num=tuple(num.tolist()), den=tuple(den.tolist())), dt))
    return plants


class TestDisturbances:
    def test_validation(self):
        with pytest.raises(ValueError):
            Disturbance(time=-1.0, magnitude=1.0)
        with pytest.raises(ValueError, match="magnitude must be finite"):
            Disturbance(time=0.0, magnitude=math.nan)
        with pytest.raises(ValueError):
            Disturbance(time=0.0, magnitude=1.0, port="actuator")
