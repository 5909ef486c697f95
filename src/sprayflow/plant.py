"""LTI plant realization and fixed-step integration.

A strictly proper SISO transfer function is realized in controllable
canonical form and time-marched with RK4 under a zero-order hold on the
input. For a linear plant one classical four-stage RK4 step is the linear
map x+ = Phi x + Gamma u, where Phi is the degree-4 Taylor polynomial of
exp(hA) and Gamma = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) B. `rk4_zoh`
computes both once per (plant, dt) and hands them over, with the output
row, as tuples of plain floats, and rejects a step that is not finite.
`step_lines` writes the step of an order as straight-line code on plain
floats, which checks nothing: a caller that must stop at a blow-up
checks the output, which is not finite whenever any state entry is not.
The closed loop (`harness.run_closed_loop`) writes those lines into its
own body; `compile_step` builds them into a function step(x, u) for
stepping by hand, with the same bits. The shipped pipeline model has a
pure integrator and a 3.7 ms lag, so the default step of 1e-4 s resolves
its fast pole. A plant's order is bounded by MAX_ORDER.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

PLANT_INPUT = "plant-input"
PLANT_OUTPUT = "plant-output"

# A step costs about order^2 operations. At order 16 a PID step of the
# closed loop takes about 7 us, against 0.4 us at order 2 and about 2.7 us
# for a whole fuzzy-PID step on the pipeline plant (CPython 3.11, 2 shared
# cores). Building the loop of an order takes about 2 ms, once per process,
# controller kind and disturbance count per port, and the realization's
# n x n matrices stay small.
MAX_ORDER = 16


@dataclass(frozen=True)
class TransferFunction:
    """SISO transfer function, coefficients highest degree first."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num = tuple(float(c) for c in self.num)
        den = tuple(float(c) for c in self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if not num or not den:
            raise ValueError("numerator and denominator must be non-empty")
        if len(den) - 1 > MAX_ORDER:
            raise ValueError(f"plant order {len(den) - 1} exceeds the bound of {MAX_ORDER}")
        if not all(math.isfinite(c) for c in num + den):
            raise ValueError("coefficients must be finite")
        if den[0] == 0:
            raise ValueError("leading denominator coefficient must be nonzero")
        # Strictly proper: numerator degree below denominator degree.
        trimmed = _trim_leading_zeros(num)
        if len(trimmed) >= len(den):
            raise ValueError("transfer function must be strictly proper")


def _trim_leading_zeros(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    idx = 0
    while idx < len(coeffs) - 1 and coeffs[idx] == 0:
        idx += 1
    return coeffs[idx:]


# Flow-pipeline model of the spray line: integrator plus a 3.7 ms lag.
PIPELINE_TF = TransferFunction(num=(43956.0,), den=(0.0037, 1.0, 0.0))


def tf_to_ss(tf: TransferFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Controllable canonical realization (a, b, c) of a strictly proper function.

    x' = a x + b u, y = c x, with no feedthrough. The denominator is
    normalized to a monic polynomial first; the last row of a carries its
    negated coefficients.
    """
    lead = tf.den[0]
    den = np.asarray(tf.den, dtype=float) / lead
    num = np.asarray(_trim_leading_zeros(tf.num), dtype=float) / lead
    n = len(den) - 1
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    # den = [1, a_{n-1}, ..., a_0] highest degree first.
    a[n - 1, :] = -den[1:][::-1]
    b = np.zeros(n)
    b[n - 1] = 1.0
    c = np.zeros(n)
    # c[j] is the numerator coefficient of s^j.
    for j, coeff in enumerate(num[::-1]):
        c[j] = coeff
    return a, b, c


def rk4_zoh(
    plant: TransferFunction, dt: float
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """One RK4 step of the plant under zero-order hold, as plain floats.

    Returns (rows, c) for `compile_step`. Row i holds (Phi[i, 0], ...,
    Phi[i, n-1], Gamma[i]), so the next state is
    x+[i] = sum(row[j] * (x + [u])[j]), and c is the output row of the
    canonical realization (see tf_to_ss); the state has len(rows) entries.
    Expanding the four RK4 stages of x' = Ax + Bu with u held gives
    exactly these series in hA.

    Raises ValueError when an entry of the step is not finite: finite
    coefficients can overflow in the normalization by den[0] or in the
    series, and such a step would blow up before the first sample.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    # Overflow is detected below from the result, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = tf_to_ss(plant)
        n = len(c)
        ha = dt * a
        term = np.eye(n)
        phi = np.eye(n)
        gamma_series = np.eye(n)
        for k in range(1, 5):
            term = term @ ha / k  # (hA)^k / k!
            phi = phi + term
            if k < 4:
                gamma_series = gamma_series + term / (k + 1)  # (hA)^k / (k+1)!
        gamma = dt * (gamma_series @ b)
    rows = tuple(tuple(phi[i].tolist()) + (float(gamma[i]),) for i in range(n))
    c = tuple(c.tolist())
    if not all(math.isfinite(v) for row in rows + (c,) for v in row):
        raise ValueError(
            f"the RK4 step of the plant num={plant.num!r}, den={plant.den!r} "
            f"at dt={dt!r} is not finite"
        )
    return rows, c


def step_lines(n: int) -> tuple[list[str], list[str]]:
    """Straight-line code of one plant step of order n, as (setup, lines).

    The setup unpacks the locals rows and c, a step as `rk4_zoh` returns
    it, into the names r{i}_{j} = rows[i][j] and c{i} = c[i]; it runs once
    and fails on a step of another order. The lines advance the state
    locals x0 .. x{n-1} by one step on the input u and set the output y;
    for n = 2:

        (r0_0, r0_1, r0_2), (r1_0, r1_1, r1_2), = rows
        c0, c1, = c

        n0 = 0.0 + r0_0 * x0 + r0_1 * x1 + r0_2 * u
        n1 = 0.0 + r1_0 * x0 + r1_1 * x1 + r1_2 * u
        x0 = n0
        x1 = n1
        y = 0.0 + c0 * x0 + c1 * x1

    Each dot product is accumulated left to right from 0.0, one rounding
    per term, so its bits do not depend on the interpreter: from CPython
    3.12 on the builtin sum() of floats is compensated. No path whose bits
    are pinned may use sum, math.fsum, math.sumprod or a numpy reduction;
    every plant step is built from these lines, by `compile_step` and by
    the closed loop (`harness.run_closed_loop`). The leading 0.0 turns a
    sum of -0.0 terms into 0.0.

    Plain arithmetic, with no finiteness check. y is not finite whenever
    some x_i is not, even where c_i = 0 (0 * inf is nan), so checking y
    covers the state; a non-finite u makes every x_i non-finite.
    """
    inputs = [f"x{j}" for j in range(n)] + ["u"]
    rows = "".join("(" + ", ".join(f"r{i}_{j}" for j in range(n + 1)) + "), " for i in range(n))
    setup = [f"{rows}= rows", "".join(f"c{i}, " for i in range(n)) + "= c"]
    lines = [
        f"n{i} = 0.0 + " + " + ".join(f"r{i}_{j} * {v}" for j, v in enumerate(inputs))
        for i in range(n)
    ]
    lines += [f"x{i} = n{i}" for i in range(n)]
    lines.append("y = 0.0 + " + " + ".join(f"c{i} * x{i}" for i in range(n)))
    return setup, lines


def compile_step(
    rows: tuple[tuple[float, ...], ...], c: tuple[float, ...]
) -> Callable[[Sequence[float], float], tuple[tuple[float, ...], float]]:
    """The precomputed RK4 step (see rk4_zoh) as a function step(x, u).

    step(x, u) returns the next state, a tuple, and the output. Its body
    unpacks x into x0 .. x{n-1}, runs the lines of `step_lines` and
    returns the state locals and y, so it gives the closed loop's bits.

    The source holds generated names only. The values reach the body as
    closure cells of a factory(rows, c) that runs the setup of
    `step_lines`, so inf and nan entries step like any other and nothing
    of the plant is formatted into code.
    """
    n = len(rows)
    setup, body = step_lines(n)
    state = "".join(f"x{i}, " for i in range(n))
    lines = [
        "def factory(rows, c):",
        *(f"    {line}" for line in setup),
        "    def step(x, u):",
        f"        {state}= x",
        *(f"        {line}" for line in body),
        f"        return ({state}), y",
        "    return step",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["factory"](rows, c)


@dataclass(frozen=True)
class Disturbance:
    """Additive step disturbance on the plant input or output."""

    time: float
    magnitude: float
    port: str = PLANT_INPUT

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"activation time must be non-negative, got {self.time!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")
        if self.port not in (PLANT_INPUT, PLANT_OUTPUT):
            raise ValueError(f"unknown disturbance port {self.port!r}")

