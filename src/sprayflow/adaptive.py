"""Adaptive fuzzy-PID controller.

Each sample, the fuzzy engine turns the error and its rate of change into
gain deltas; the PID law then actuates with base-plus-delta gains. Deltas
are recomputed from the absolute base gains every step (they are not
integrated), and effective gains are floored at zero before actuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .fuzzy import DEFAULT_RULE_TABLE, RuleTable, ScalingFactors, infer, quantize
from .pid import NO_LIMITS, PidGains, PidLimits, PidState, pid_step


@dataclass(frozen=True)
class FuzzyPidController:
    """Configuration plus running state of the composite controller."""

    base: PidGains
    factors: ScalingFactors = ScalingFactors()
    table: RuleTable = DEFAULT_RULE_TABLE
    limits: PidLimits = NO_LIMITS
    state: PidState = PidState()
    prev_error: float = 0.0
    first_step: bool = True


def reset(ctrl: FuzzyPidController) -> FuzzyPidController:
    """Same configuration, fresh state. Idempotent."""
    return replace(ctrl, state=PidState(), prev_error=0.0, first_step=True)


def adapted_gains(ctrl: FuzzyPidController, e: float, ec: float) -> tuple[float, float, float]:
    """Gain-update kernel: the effective (kp, ki, kd) for one (error, error-rate) pair.

    Base gains plus the scaled fuzzy deltas, each floored at zero.
    """
    f = ctrl.factors
    dp, di, dd = infer(quantize(e, f.ke), quantize(ec, f.kec), ctrl.table.consequent_index)
    base = ctrl.base
    return (
        max(0.0, base.kp + f.kup * dp),
        max(0.0, base.ki + f.kui * di),
        max(0.0, base.kd + f.kud * dd),
    )


def fuzzy_pid_step(
    ctrl: FuzzyPidController, r: float, y: float, dt: float
) -> tuple[float, PidGains, FuzzyPidController]:
    """Advance the composite controller one sample.

    Returns the control value, the effective gains actually used (for
    trajectory logging) and the updated controller. The error rate is a
    backward difference over dt, zero on the first step.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(r) and math.isfinite(y)):
        raise ValueError(f"setpoint and measurement must be finite, got {r!r}, {y!r}")
    e = r - y
    ec = 0.0 if ctrl.first_step else (e - ctrl.prev_error) / dt
    effective = PidGains(*adapted_gains(ctrl, e, ec))
    u, state = pid_step(ctrl.state, effective, e, dt, ctrl.limits)
    return u, effective, replace(ctrl, state=state, prev_error=e, first_step=False)
