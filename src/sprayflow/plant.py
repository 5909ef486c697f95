"""LTI plant realization and fixed-step integration.

A strictly proper SISO transfer function is realized in controllable
canonical form and time-marched with RK4 under a zero-order hold on the
input. For a linear plant one classical four-stage RK4 step is the linear
map x+ = Phi x + Gamma u, where Phi is the degree-4 Taylor polynomial of
exp(hA) and Gamma = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) B. Both are
computed once per (model, dt) by `rk4_zoh`; `advance` then steps plain
floats. The shipped pipeline model has a pure integrator and a 3.7 ms
lag, so the default step of 1e-4 s resolves its fast pole.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

PLANT_INPUT = "plant-input"
PLANT_OUTPUT = "plant-output"


class NumericalBlowUp(RuntimeError):
    """The plant state left the finite range during integration."""


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


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """State-space realization x' = Ax + Bu, y = Cx (strictly proper, no feedthrough)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        n = self.a.shape[0]
        if self.a.shape != (n, n) or self.b.shape != (n,) or self.c.shape != (n,):
            raise ValueError("inconsistent state-space dimensions")
        for arr in (self.a, self.b, self.c):
            arr.setflags(write=False)

    @property
    def order(self) -> int:
        return self.a.shape[0]


def tf_to_ss(tf: TransferFunction) -> StateSpaceModel:
    """Controllable canonical realization of a strictly proper function.

    The denominator is normalized to a monic polynomial first; the last
    state-matrix row carries its negated coefficients.
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
    return StateSpaceModel(a=a, b=b, c=c)


def rk4_zoh(model: StateSpaceModel, dt: float) -> tuple[tuple[float, ...], ...]:
    """One RK4 step under zero-order hold, as rows of plain floats.

    Row i holds (Phi[i, 0], ..., Phi[i, n-1], Gamma[i]), so the next state
    is x+[i] = sum(row[j] * (x + [u])[j]). Expanding the four RK4 stages of
    x' = Ax + Bu with u held gives exactly these series in hA.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n = model.order
    ha = dt * model.a
    term = np.eye(n)
    phi = np.eye(n)
    gamma_series = np.eye(n)
    for k in range(1, 5):
        term = term @ ha / k  # (hA)^k / k!
        phi = phi + term
        if k < 4:
            gamma_series = gamma_series + term / (k + 1)  # (hA)^k / (k+1)!
    gamma = dt * (gamma_series @ model.b)
    return tuple(tuple(phi[i].tolist()) + (float(gamma[i]),) for i in range(n))


def advance(
    rows: tuple[tuple[float, ...], ...], c: tuple[float, ...], x: list[float], u: float
) -> tuple[list[float], float]:
    """Next state and output of one precomputed RK4 step (see rk4_zoh).

    Raises NumericalBlowUp when the state or the output is not finite.
    """
    xu = [*x, u]
    mul = operator.mul
    x_next = [sum(map(mul, row, xu)) for row in rows]
    if not all(map(math.isfinite, x_next)):
        raise NumericalBlowUp(f"non-finite plant state after step with u={u!r}")
    y = sum(map(mul, c, x_next))
    # The output can overflow before the state does when C carries a large gain.
    if not math.isfinite(y):
        raise NumericalBlowUp(f"non-finite plant output after step with u={u!r}")
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

