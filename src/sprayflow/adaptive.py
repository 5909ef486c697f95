"""Adaptive fuzzy-PID controller.

Each sample, the fuzzy engine turns the error and its rate of change into
gain deltas; the PID law then actuates with base-plus-delta gains. Deltas
are recomputed from the absolute base gains every step (they are not
integrated), and effective gains are floored at zero before actuation.
The controller is configuration only; the closed loop
(`harness.run_closed_loop`) holds the running state and calls
`floored_gains` on the deltas of `fuzzy.infer`, as `adapted_gains` does.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fuzzy import (
    DEFAULT_RULE_TABLE,
    RuleTable,
    ScalingFactors,
    infer_deltas,
    quantize,
)
from .pid import PidGains


@dataclass(frozen=True)
class FuzzyPidController:
    """Configuration of the composite controller."""

    base: PidGains
    factors: ScalingFactors
    table: RuleTable = DEFAULT_RULE_TABLE


def adapted_gains(ctrl: FuzzyPidController, e: float, ec: float) -> tuple[float, float, float]:
    """The effective (kp, ki, kd) for one (error, error-rate) pair.

    Base gains plus the scaled fuzzy deltas, each floored at zero. A
    non-finite e or ec raises (`quantize`).
    """
    f = ctrl.factors
    deltas = infer_deltas(quantize(e, f.ke), quantize(ec, f.kec), ctrl.table)
    return floored_gains(ctrl.base, f, *deltas)


def floored_gains(
    base: PidGains, f: ScalingFactors, dp: float, di: float, dd: float
) -> tuple[float, float, float]:
    """The base gains plus the deltas scaled by kup, kui and kud, each floored at zero."""
    kp = base.kp + f.kup * dp
    ki = base.ki + f.kui * di
    kd = base.kd + f.kud * dd
    return (kp if kp > 0.0 else 0.0, ki if ki > 0.0 else 0.0, kd if kd > 0.0 else 0.0)
