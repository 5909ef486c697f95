"""Discrete parallel-form PID law with explicit state threading.

The integral uses the rectangular rule, the derivative a backward
difference on the error; the derivative term is zero on the first step.
State goes in and comes out of every call, so instances of the state are
freely shareable across concurrent simulations.
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
class StandardFormGains:
    """Standard-form tuning: proportional gain, integration and derivative times."""

    kp: float
    ti: float
    td: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.kp) or self.kp < 0:
            raise ValueError(f"kp must be non-negative and finite, got {self.kp!r}")
        if not math.isfinite(self.ti) or self.ti <= 0:
            raise ValueError(f"integration time must be positive, got {self.ti!r}")
        if not math.isfinite(self.td) or self.td < 0:
            raise ValueError(f"derivative time must be non-negative, got {self.td!r}")


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


@dataclass(frozen=True)
class PidState:
    """Integrator accumulator and backward-difference memory."""

    integral: float = 0.0
    prev_error: float = 0.0
    first_step: bool = True


def reset() -> PidState:
    """Fresh state: zero accumulator, first-step flag set. Idempotent."""
    return PidState()


def standard_to_parallel(gains: StandardFormGains) -> PidGains:
    """Convert standard-form (kp, Ti, Td) to parallel-form (kp, ki, kd)."""
    return PidGains(kp=gains.kp, ki=gains.kp / gains.ti, kd=gains.kp * gains.td)


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


def pid_step(
    state: PidState,
    gains: PidGains,
    e: float,
    dt: float,
    limits: PidLimits = NO_LIMITS,
) -> tuple[float, PidState]:
    """Advance the controller one sample.

    Returns the control value and the updated state; see pid_law.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    derivative = 0.0 if state.first_step else (e - state.prev_error) / dt
    u, integral = pid_law(
        gains.kp, gains.ki, gains.kd, e, derivative, state.integral, dt, limits
    )
    return u, PidState(integral=integral, prev_error=e, first_step=False)
