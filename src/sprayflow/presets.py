"""Shipped default tuning and scenarios.

The base gains were tuned offline against the pipeline model (closed-loop
damping ratio near 0.55 with mild integral action); they are this
package's defaults, not identified constants. The output scale factors
are sized so the largest fuzzy correction moves each gain by roughly a
third of its base value, keeping the adaptation inside the loop's stable
range. DEFAULT_FACTORS is the one home of the shipped scaling factors;
ScalingFactors itself has no defaults.
"""
from __future__ import annotations

from dataclasses import replace

from .adaptive import FuzzyPidController
from .fuzzy import ScalingFactors
from .harness import PidConfig, SimScenario
from .pid import PidGains
from .plant import PIPELINE_TF, PLANT_INPUT, Disturbance

DEFAULT_BASE_GAINS = PidGains(kp=0.0045, ki=0.05, kd=5e-6)

DEFAULT_FACTORS = ScalingFactors(ke=5.0, kec=0.8, kup=1e-4, kui=1e-3, kud=2e-6)

DEFAULT_SETPOINT = 5.0
DEFAULT_DURATION = 0.5
DEFAULT_DT = 1e-4

DISTURBANCE_TIME = 0.5
DISTURBANCE_MAGNITUDE = 1e-3
DISTURBANCE_DURATION = 2.0


def default_pid_config() -> PidConfig:
    return PidConfig(gains=DEFAULT_BASE_GAINS)


def default_fuzzy_controller() -> FuzzyPidController:
    return FuzzyPidController(base=DEFAULT_BASE_GAINS, factors=DEFAULT_FACTORS)


def default_scenario(controller=None) -> SimScenario:
    """Setpoint step on the pipeline model with the shipped tuning."""
    return SimScenario(
        setpoint=DEFAULT_SETPOINT,
        duration=DEFAULT_DURATION,
        dt=DEFAULT_DT,
        controller=controller if controller is not None else default_pid_config(),
        plant=PIPELINE_TF,
    )


def disturbance_scenario(controller=None) -> SimScenario:
    """Default scenario plus an input step disturbance after settling."""
    return replace(
        default_scenario(controller),
        duration=DISTURBANCE_DURATION,
        disturbances=(
            Disturbance(time=DISTURBANCE_TIME, magnitude=DISTURBANCE_MAGNITUDE, port=PLANT_INPUT),
        ),
    )
