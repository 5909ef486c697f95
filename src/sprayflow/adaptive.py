"""Adaptive fuzzy-PID controller.

Each sample, the fuzzy engine turns the error and its rate of change into
gain deltas; the PID law then actuates with base-plus-delta gains. Deltas
are recomputed from the absolute base gains every step (they are not
integrated), and effective gains are floored at zero before actuation.
The controller is configuration only; the closed loop
(`harness.run_closed_loop`) holds the running state and runs the gain
update inlined: the Python loop as the lines of `gain_lines`, the C loop
as the same operations in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fuzzy import (
    DEFAULT_RULE_TABLE,
    RuleTable,
    ScalingFactors,
    infer_deltas,
    inference_lines,
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
    """Gain-update kernel: the effective (kp, ki, kd) for one (error, error-rate) pair.

    Base gains plus the scaled fuzzy deltas, each floored at zero.
    """
    f = ctrl.factors
    dp, di, dd = infer_deltas(quantize(e, f.ke), quantize(ec, f.kec), ctrl.table)
    base = ctrl.base
    kp = base.kp + f.kup * dp
    ki = base.ki + f.kui * di
    kd = base.kd + f.kud * dd
    return (kp if kp > 0.0 else 0.0, ki if ki > 0.0 else 0.0, kd if kd > 0.0 else 0.0)


def gain_lines() -> tuple[list[str], list[str]]:
    """`adapted_gains` as straight-line code, as (setup, lines).

    The setup reads the base gains, the factors and the rule table's
    kernels from the local ctrl, a `FuzzyPidController`. The lines set kp,
    ki and kd from the locals e and rate, e finite and rate never nan.
    They run `fuzzy.inference_lines` on e * ke and rate * kec, whose
    ladders clamp as `quantize` does, then the operations of
    `adapted_gains` in the same order, so for a finite rate they give its
    bits; they check nothing. An infinite rate locates at an edge of the
    universe and gives finite gains, where `adapted_gains` raises; the
    loop's error check then stops the run (see `harness._loop`).
    """
    setup = ["factors = ctrl.factors", "ke = factors.ke", "kec = factors.kec"]
    setup += ["kernels = ctrl.table.kernels"]
    lines = inference_lines("e * ke", "rate * kec")
    for gain, factor, delta in (("kp", "kup", "dp"), ("ki", "kui", "di"), ("kd", "kud", "dd")):
        setup += [f"{gain}_base = ctrl.base.{gain}", f"{factor} = factors.{factor}"]
        lines += [
            f"{gain} = {gain}_base + {factor} * {delta}",
            f"if not {gain} > 0.0:",
            f"    {gain} = 0.0",
        ]
    return setup, lines
