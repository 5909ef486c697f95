"""Adaptive fuzzy-PID flow control for variable-rate spraying, with a
closed-loop simulator and step-response metrics."""

from . import presets
from .adaptive import FuzzyPidController
from .fuzzy import (
    DEFAULT_RULE_TABLE,
    Label,
    RuleTable,
    ScalingFactors,
    infer_deltas,
    quantize,
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
from .pid import PidGains
from .plant import (
    PIPELINE_TF,
    PLANT_INPUT,
    PLANT_OUTPUT,
    Disturbance,
    TransferFunction,
    tf_to_ss,
)

__version__ = "0.1.0"
