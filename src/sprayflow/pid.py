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


def pid_law(
    kp: float,
    ki: float,
    kd: float,
    e: float,
    derivative: float,
    integral: float,
    dt: float,
) -> tuple[float, float]:
    """The PID law on plain floats: control value and the new integral."""
    if not math.isfinite(e):
        raise ValueError(f"error must be finite, got {e!r}")
    integral += e * dt
    return kp * e + ki * integral + kd * derivative, integral
