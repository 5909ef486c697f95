"""Discrete parallel-form PID law on plain floats.

The integral uses the rectangular rule, the derivative a backward
difference on the error. `pid_law` takes the accumulator and the
derivative and returns the control value and the new accumulator, so the
caller holds the state; the closed loop (`harness.run_closed_loop`) sets
the derivative to zero on its first step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PidGains:
    """Parallel-form gains; all non-negative."""

    kp: float
    ki: float
    kd: float

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be non-negative and finite, got {v!r}")


@dataclass(frozen=True)
class PidLimits:
    """Optional output and integral clamps, each a (min, max) pair or None."""

    output: tuple[float, float] | None = None
    integral: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("output", "integral"):
            bounds = getattr(self, name)
            if bounds is not None and not bounds[0] < bounds[1]:
                raise ValueError(f"{name} clamp needs min < max, got {bounds!r}")


NO_LIMITS = PidLimits()


def _clamp(value: float, bounds: tuple[float, float] | None) -> float:
    if bounds is None:
        return value
    return min(max(value, bounds[0]), bounds[1])


def pid_law(
    kp: float,
    ki: float,
    kd: float,
    e: float,
    derivative: float,
    integral: float,
    dt: float,
    limits: PidLimits,
) -> tuple[float, float]:
    """The PID law on plain floats: control value and the new integral.

    The integral is clamped before the output is, which keeps the
    accumulator inside the anti-windup band no matter what the output
    clamp does.
    """
    if not math.isfinite(e):
        raise ValueError(f"error must be finite, got {e!r}")
    integral = _clamp(integral + e * dt, limits.integral)
    u = _clamp(kp * e + ki * integral + kd * derivative, limits.output)
    return u, integral
