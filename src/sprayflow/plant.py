"""LTI plant realization and fixed-step integration.

A strictly proper SISO transfer function is realized in controllable
canonical form and time-marched with RK4 under a zero-order hold on the
input. For a linear plant one classical four-stage RK4 step is the linear
map x+ = Phi x + Gamma u, where Phi is the degree-4 Taylor polynomial of
exp(hA) and Gamma = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) B. `rk4_zoh`
computes both once per (plant, dt) and hands them over, with the output
row, as tuples of plain floats; `advance` then steps plain floats and
checks nothing: a caller that must stop at a blow-up checks the output,
which is not finite whenever any state entry is not. The shipped pipeline
model has a pure integrator and a 3.7 ms lag, so the default step of
1e-4 s resolves its fast pole. A plant's order is bounded by MAX_ORDER.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PLANT_INPUT = "plant-input"
PLANT_OUTPUT = "plant-output"

# A step costs about order^2 operations: at order 16 the plant step takes
# about as long as a whole fuzzy-PID step, and the realization's n x n
# matrices stay small.
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

    Returns (rows, c) for `advance`. Row i holds (Phi[i, 0], ...,
    Phi[i, n-1], Gamma[i]), so the next state is
    x+[i] = sum(row[j] * (x + [u])[j]), and c is the output row of the
    canonical realization (see tf_to_ss); the state has len(rows) entries.
    Expanding the four RK4 stages of x' = Ax + Bu with u held gives
    exactly these series in hA.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
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
    return rows, tuple(c.tolist())


def advance(
    rows: tuple[tuple[float, ...], ...], c: tuple[float, ...], x: list[float], u: float
) -> tuple[list[float], float]:
    """Next state and output of one precomputed RK4 step (see rk4_zoh).

    Plain arithmetic, with no finiteness check. y = sum(c[i] * x[i]) is not
    finite whenever some x[i] is not, even where c[i] = 0 (0 * inf is
    nan), so checking y covers the state; a non-finite u makes every
    x[i] non-finite.

    Each dot product is accumulated left to right, one rounding per step,
    so its bits do not depend on the interpreter: from CPython 3.12 on the
    builtin sum() of floats is compensated. No path whose bits are pinned
    may use sum, math.fsum, math.sumprod or a numpy reduction.
    """
    x_next = []
    for row in rows:
        acc = 0.0
        # zip stops at the end of x, before Gamma[i] = row[-1].
        for a, v in zip(row, x):
            acc += a * v
        x_next.append(acc + row[-1] * u)
    y = 0.0
    for a, v in zip(c, x_next):
        y += a * v
    return x_next, y


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

