"""Adaptive fuzzy-PID flow control for variable-rate spraying, with a
closed-loop simulator and step-response metrics."""

from . import presets
from .adaptive import FuzzyPidController, fuzzy_pid_step
from .fuzzy import (
    DEFAULT_RULE_TABLE,
    GainDeltas,
    Label,
    RuleTable,
    ScalingFactors,
    fuzzify,
    infer_deltas,
    quantize,
    scale_deltas,
)
from .harness import (
    ComparisonResult,
    PidConfig,
    SimScenario,
    StepMetrics,
    Trajectory,
    compare_controllers,
    compute_metrics,
    peak_deviation,
    run_closed_loop,
)
from .pid import (
    NO_LIMITS,
    PidGains,
    PidLimits,
    PidState,
    StandardFormGains,
    pid_step,
    standard_to_parallel,
)
from .plant import (
    PIPELINE_TF,
    PLANT_INPUT,
    PLANT_OUTPUT,
    Disturbance,
    NumericalBlowUp,
    PlantState,
    StateSpaceModel,
    TransferFunction,
    apply_disturbances,
    initial_state,
    plant_step,
    tf_to_ss,
)

__version__ = "0.1.0"
