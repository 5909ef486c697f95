"""Adaptive fuzzy-PID controller.

Each sample, the fuzzy engine turns the error and its rate of change into
gain deltas; the PID law then actuates with base-plus-delta gains. Deltas
are recomputed from the absolute base gains every step (they are not
integrated), and effective gains are floored at zero before actuation.
The controller is configuration only; the closed loop
(`harness.run_closed_loop`) holds the running state.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fuzzy import DEFAULT_RULE_TABLE, RuleTable, ScalingFactors, infer_deltas, quantize
from .pid import PidGains


@dataclass(frozen=True)
class FuzzyPidController:
    """Configuration of the composite controller."""

    base: PidGains
    factors: ScalingFactors
    table: RuleTable = DEFAULT_RULE_TABLE


def adapted_gains(ctrl: FuzzyPidController, e: float, ec: float) -> tuple[float, float, float]:
    """Gain-update kernel: the effective (kp, ki, kd) for one (error, error-rate) pair.

    Base gains plus the scaled fuzzy deltas, each floored at zero.
    """
    f = ctrl.factors
    dp, di, dd = infer_deltas(quantize(e, f.ke), quantize(ec, f.kec), ctrl.table)
    base = ctrl.base
    return (
        max(0.0, base.kp + f.kup * dp),
        max(0.0, base.ki + f.kui * di),
        max(0.0, base.kd + f.kud * dd),
    )
