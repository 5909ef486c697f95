"""Closed-loop scenario runner and step-response metrics.

A scenario pairs one plant with one controller and a constant setpoint.
Every run starts from rest: zero plant state, zero integral. Each step
the controller acts on the measurement logged at the previous sample (no
extra computational delay is modeled), disturbances are added at their
ports, and the plant advances by one RK4 step. The logged u
column is the effective plant input and the y column the measured output,
both including any active disturbances, so e = r - y holds row-wise.

The loop runs on plain floats as one function of straight-line code,
built once per process for each plant order, controller kind and number
of disturbances on each port (`_loop`) and called once per run with the
scenario's values: the plant step that `plant.rk4_zoh` precomputes once
per scenario from its plant and dt as (rows, c), kept as
`SimScenario.rk4_step`, the disturbances and the controller; setup lines
unpack the step, the disturbances, the gains and, for fuzzy-PID, the
factors and rule kernels into locals once per run. The plant state lives
in locals and the plant step (`plant.step_lines`), each disturbance, the
PID law and the gain update (`adaptive.gain_lines`) are written out;
only a firing-plan kernel of the rule table remains a call. A run's
trajectory is the rows of one float64 array, in `COLUMNS` order, and the
loop logs through memoryviews of its rows u to kd. It holds the
controller state, the integral and the previous error; their backward
difference, zero on the first step, is both the derivative and the fuzzy
error rate. A run is bit-identical to stepping `plant.compile_step`,
`pid.pid_law` and `adaptive.adapted_gains` by hand.

The loop alone decides a blow-up, the same way for both controllers: it
stops before a row whose error e = r - y is not finite. With a finite
setpoint a finite error means a finite output, state and input (see
`plant.step_lines`), so every logged row is finite. An error rate that
overflows needs no check of its own. The error and the previous error are
finite and dt > 0, so the rate is never nan, at worst an infinity. Then
kd * rate is an infinity, or nan for kd = 0, and so is u; the fuzzy
inputs are clamped into the universe, so the gains stay finite. A
non-finite u makes every state entry and y non-finite, and the error
check of the same step stops the run before its row.

numpy is imported inside the functions that make arrays (a run, whose
columns are numpy arrays, and the metrics), not with the module, so
importing the package and building a scenario load no numpy.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ._codegen import define
from .adaptive import FuzzyPidController, gain_lines
from .pid import PidGains
from .plant import (
    PIPELINE_TF,
    PLANT_INPUT,
    Disturbance,
    TransferFunction,
    rk4_zoh,
    step_lines,
)

if TYPE_CHECKING:
    import numpy as np

# The trajectory columns, in CSV order.
COLUMNS = ("t", "r", "e", "u", "y", "kp", "ki", "kd")

# A run logs 8 float64 columns per step, so 1e7 steps hold about 640 MB.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class PidConfig:
    """Plain fixed-gain PID controller choice for a scenario."""

    gains: PidGains


@dataclass(frozen=True)
class SimScenario:
    """Everything a closed-loop run needs.

    Every disturbance must act within the run. With sample times
    t[k] = k * dt, an input disturbance acts on step k once t[k-1] reaches
    its time and an output one once t[k] does, so a plant-input time may
    be at most the second-to-last sample time (steps - 1) * dt and a
    plant-output time at most the last, steps * dt. The plant's RK4 step
    at dt must be finite (see `plant.rk4_zoh`).
    """

    setpoint: float
    duration: float
    dt: float
    controller: PidConfig | FuzzyPidController
    plant: TransferFunction = PIPELINE_TF
    disturbances: tuple[Disturbance, ...] = ()
    # The plant's RK4 step at dt as (rows, c), computed once per instance
    # here and used by `run_closed_loop`.
    rk4_step: tuple[tuple[tuple[float, ...], ...], tuple[float, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not math.isfinite(self.setpoint):
            raise ValueError(f"setpoint must be finite, got {self.setpoint!r}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.duration / self.dt > MAX_STEPS:
            raise ValueError(
                "duration/dt exceeds the bound of 1e7 steps (about 640 MB of logged columns)"
            )
        if self.steps < 1:
            raise ValueError(
                f"duration {self.duration!r} is shorter than one step of dt {self.dt!r}"
            )
        # A plant whose step is not finite would blow up before any sample.
        object.__setattr__(self, "rk4_step", rk4_zoh(self.plant, self.dt))
        if not isinstance(self.controller, (PidConfig, FuzzyPidController)):
            raise ValueError(f"unsupported controller {self.controller!r}")
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        for d in self.disturbances:
            limit = (self.steps - 1 if d.port == PLANT_INPUT else self.steps) * self.dt
            if d.time > limit:
                raise ValueError(
                    f"{d.port} disturbance at time {d.time!r} never acts: "
                    f"this run allows {d.port} times up to {limit!r}"
                )

    @property
    def steps(self) -> int:
        # A relative tolerance, so an exact multiple is not floored away by
        # roundoff at any step count up to MAX_STEPS.
        return int(math.floor(self.duration / self.dt * (1.0 + 1e-12)))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled closed-loop record, one column per sample.

    data is a float64 array with one row per name in COLUMNS, and traj.t
    to traj.kd are read-only views of those rows. The CSV writer formats
    the rows by float64 arithmetic, so no other dtype is taken.
    """

    data: np.ndarray
    blown_up: bool = False

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or len(self.data) != len(COLUMNS) or self.data.dtype != "float64":
            raise ValueError(f"data must be a float64 array of {len(COLUMNS)} rows, one per column")
        self.data.setflags(write=False)

    def __len__(self) -> int:
        return self.data.shape[1]


# traj.t to traj.kd, named once, in COLUMNS.
for _row, _name in enumerate(COLUMNS):
    setattr(Trajectory, _name, property(lambda traj, row=_row: traj.data[row]))
del _row, _name


@dataclass(frozen=True)
class StepMetrics:
    """Step-response figures of one trajectory.

    y_final is the last sample and y_peak the peak (see `compute_metrics`);
    the settled flag reports whether the final 5% of samples stayed within
    1% of y_final. overshoot_pct and rise_time, both relative to y_final,
    are None exactly when y_final is zero. The figures come from a y with
    no NaN and a finite last sample (`compute_metrics` rejects others).

    Every figure covers the whole run as one step response. With a
    disturbance the peak and overshoot can come from the disturbance
    phase, and settling_time is the last exit from the 2% band, which is
    then the re-settling after the disturbance. On the shipped disturbance
    scenario PID reports 0.5796 s and fuzzy-PID 0.5797 s, while the
    setpoint step alone settles at 0.1176 s and 0.1432 s. Per-phase
    figures are an open item of ROADMAP.md.
    """

    y_peak: float
    peak_time: float
    settling_time: float
    rise_time: float | None
    y_final: float
    overshoot_pct: float | None
    settled: bool


def run_closed_loop(scenario: SimScenario) -> Trajectory:
    """Simulate one scenario and return its trajectory.

    Row 0 logs the plant at rest before any control action (u = 0,
    resting gains), so y[0] is zero plus any output disturbance active at
    t = 0. The run ends at the first step whose error, once output
    disturbances are added, is not finite, for either controller; the
    trajectory then holds the rows before it, every one finite (none if
    row 0's error overflows), with blown_up set. A step whose error rate
    overflows is such a step (see the module docstring).

    The whole loop is one function of straight-line code (see `_loop`),
    called once with the scenario's values: its `rk4_step` and its
    controller.
    """
    import numpy as np

    controller = scenario.controller
    n_rows = scenario.steps + 1
    dt = scenario.dt
    r = float(scenario.setpoint)
    rows, c = scenario.rk4_step
    fuzzy = isinstance(controller, FuzzyPidController)
    rest = controller.base if fuzzy else controller.gains
    # One float64 array holds the run, one row per column in COLUMNS order.
    # The gain rows are float64 whatever the type of the gains: the fuzzy
    # loop writes its adapted gains into them.
    block = np.zeros((len(COLUMNS), n_rows))
    t, r_log, e_log, u_log, y_log, kp_log, ki_log, kd_log = block
    t[:] = np.arange(n_rows) * dt
    r_log[:] = r
    kp_log[:], ki_log[:], kd_log[:] = rest.kp, rest.ki, rest.kd
    # (first step, magnitude) per port, in declaration order. An input
    # disturbance acts on step k when t_prev = t[k-1] reaches its time,
    # an output one when t[k] does.
    u_dists = []
    y_dists = []
    for d in scenario.disturbances:
        start = int(np.searchsorted(t, d.time))
        if d.port == PLANT_INPUT:
            u_dists.append((start + 1, d.magnitude))
        else:
            y_dists.append((start, d.magnitude))

    # The loop logs through memoryviews of the rows u to kd, which write
    # the same 8 bytes as numpy's item assignment at about half the cost.
    logs = map(memoryview, (u_log, y_log, kp_log, ki_log, kd_log))
    n_logged = _loop(len(rows), fuzzy, len(u_dists), len(y_dists))(
        n_rows, dt, r, u_dists, y_dists, *logs, rows, c, controller
    )
    np.subtract(r, y_log, out=e_log)
    return Trajectory(block[:, :n_logged], blown_up=n_logged < n_rows)


# One entry per plant order, controller kind and disturbance count per port:
# at most 3 * 2 * plant.MAX_ORDER = 96 for the CLI, which takes at most one
# disturbance. A library caller may use any counts, so the cache is bounded.
@functools.lru_cache(maxsize=128)
def _loop(order: int, fuzzy: bool, n_u: int, n_y: int) -> Callable[..., int]:
    """The closed loop of a plant order, controller kind and disturbance counts.

    loop(n_rows, dt, r, u_dists, y_dists, u_log, y_log, kp_log, ki_log,
    kd_log, rows, c, ctrl) logs rows 0 to n_rows - 1 into u_log and y_log
    (and, for fuzzy-PID, the gains into kp_log, ki_log and kd_log), writable
    float64 buffers such as memoryviews of arrays, and returns the number
    of rows logged. rows and c are the plant step (see `plant.rk4_zoh`),
    ctrl the scenario's controller, and u_dists and y_dists hold the n_u
    and n_y (first step, magnitude) pairs of each port. Before the loop,
    the setup lines of `plant.step_lines` and, for fuzzy-PID,
    `adaptive.gain_lines` read the values from rows, c and ctrl, and
    further lines unpack the pairs into the locals us0, um0, us1, um1 and
    so on for the input, and ys0, ym0 and so on for the output.

    The body is straight-line code: the plant state lives in the locals
    x0 .. x{order-1}, the PID law and, for fuzzy-PID, the gain update are
    written out, each disturbance is one line, `if k >= us0: u += um0`,
    in declaration order per port, and only a firing-plan kernel remains
    a call. Each performs the operations of `plant.compile_step`,
    `pid.pid_law` and `adaptive.adapted_gains` on the same operands in the
    same order, so a run is bit-identical to stepping those by hand. The
    one check is that of the error: step k returns k, before logging row
    k, when its error is not finite. Where the error rate overflows, the
    lines run on: the clamping ladders of `fuzzy.inference_lines` locate
    it at an edge of the universe, whose entry may build its kernel,
    and u and then the error are not finite, so the step returns the k
    that a rate check would have (see the module docstring). The source
    depends on the order, the kind and the counts only and holds
    generated names; every value arrives as an argument.
    """
    setup, plant = step_lines(order)
    setup += [f"us{n}, um{n} = u_dists[{n}]" for n in range(n_u)]
    setup += [f"ys{n}, ym{n} = y_dists[{n}]" for n in range(n_y)]
    if fuzzy:
        gain_setup, gains = gain_lines()
        setup += gain_setup
        gains += ["kp_log[k] = kp", "ki_log[k] = ki", "kd_log[k] = kd"]
    else:
        setup += ["kp = ctrl.gains.kp", "ki = ctrl.gains.ki", "kd = ctrl.gains.kd"]
        gains = []
    step = [
        # Step k: the controller acts on row k-1, then the plant advances.
        "rate = (e - e_prev) / dt",
        "e_prev = e",
        *gains,
        # pid_law
        "integral += e * dt",
        "u = kp * e + ki * integral + kd * rate",
        *(f"if k >= us{n}: u += um{n}" for n in range(n_u)),
        *plant,
        *(f"if k >= ys{n}: y += ym{n}" for n in range(n_y)),
        "e = r - y",
        "if not isfinite(e):",
        "    return k",
        "u_log[k] = u",
        "y_log[k] = y",
    ]
    body = [
        *setup,
        *(f"x{i} = 0.0" for i in range(order)),
        "y = 0.0",
        *(f"if ys{n} <= 0: y += ym{n}" for n in range(n_y)),
        "e = r - y",
        "if not isfinite(e):",
        "    return 0",
        "y_log[0] = y",
        # e - e is +0.0 for a finite e, so the first step's rate is 0.0.
        "e_prev = e",
        "integral = 0.0",
        "for k in range(1, n_rows):",
        *(f"    {line}" for line in step),
        "return n_rows",
    ]
    params = "n_rows, dt, r, u_dists, y_dists, u_log, y_log, kp_log, ki_log, kd_log, rows, c, ctrl"
    return define("loop", params, body, isfinite=math.isfinite)


def compute_metrics(traj: Trajectory) -> StepMetrics:
    """Step-response metrics of a non-empty trajectory: no NaN in y, a finite last y.

    The steady value is the last sample, the step's direction its sign
    (up for zero), and the peak the first extreme in that direction;
    overshoot is the peak's excess over the steady value in that
    direction, the settling time the earliest time after which every
    sample stays inside a 2% band, and the rise time the gap between the
    first 10% and 90% crossings. All of them span the whole run,
    disturbances included (see StepMetrics). A run logs finite rows only,
    so only a hand-built trajectory can hold a NaN or end at an infinity;
    either raises ValueError.
    """
    import numpy as np

    y = traj.y
    t = traj.t
    if len(y) == 0:
        raise ValueError("trajectory is empty")
    y_final = float(y[-1])
    if math.isinf(y_final):
        raise ValueError("trajectory output y ends at an infinity")
    sign = 1.0 if y_final >= 0.0 else -1.0
    toward = sign * y
    # argmax returns the first NaN if there is one, so the peak is NaN
    # exactly when y holds a NaN.
    peak_idx = int(np.argmax(toward))
    y_peak = float(y[peak_idx])
    if math.isnan(y_peak):
        raise ValueError("trajectory output y holds a NaN")
    peak_time = float(t[peak_idx])

    # Finite samples more than the float range apart deviate by inf.
    with np.errstate(over="ignore"):
        deviation = np.abs(y - y_final)
    tail_start = (19 * len(y)) // 20
    settled = bool(np.all(deviation[tail_start:] <= 0.01 * abs(y_final)))

    outside = np.flatnonzero(deviation > 0.02 * abs(y_final))
    settling_time = float(t[outside[-1] + 1]) if outside.size else float(t[0])

    if y_final == 0.0:
        overshoot_pct = None
        rise_time = None
    else:
        overshoot_pct = sign * (y_peak - y_final) / abs(y_final) * 100.0
        # The first sample at or beyond each level; the last sample meets
        # both, so each argmax finds a True.
        rise_10 = float(t[np.argmax(toward >= sign * 0.1 * y_final)])
        rise_90 = float(t[np.argmax(toward >= sign * 0.9 * y_final)])
        rise_time = rise_90 - rise_10
    return StepMetrics(
        y_peak=y_peak,
        peak_time=peak_time,
        settling_time=settling_time,
        rise_time=rise_time,
        y_final=y_final,
        overshoot_pct=overshoot_pct,
        settled=settled,
    )


def peak_deviation(traj: Trajectory, after_time: float) -> float:
    """Largest |y - r| at or after a given time; gauges disturbance rejection.

    Finite y and r more than the float range apart deviate by inf, as in
    compute_metrics. A run logs finite rows only, so only a hand-built
    trajectory can hold a NaN; one in y or r at or after after_time raises
    ValueError, and one before it is ignored.
    """
    import numpy as np

    mask = traj.t >= after_time
    if not np.any(mask):
        raise ValueError(f"no samples at or after t={after_time!r}")
    with np.errstate(over="ignore"):
        peak = float(np.max(np.abs(traj.y[mask] - traj.r[mask])))
    # np.max returns NaN if any deviation is NaN.
    if math.isnan(peak):
        raise ValueError(f"trajectory y or r holds a NaN at or after t={after_time!r}")
    return peak


@dataclass(frozen=True)
class ComparisonResult:
    """Metrics (and the trajectories behind them) for a PID/fuzzy-PID pair.

    A run that blew up before its first finite row has no rows, and its
    metrics are None.
    """

    pid_metrics: StepMetrics | None
    fuzzy_metrics: StepMetrics | None
    pid_trajectory: Trajectory
    fuzzy_trajectory: Trajectory


def compare_controllers(
    scenario: SimScenario,
    pid_config: PidConfig,
    fuzzy_config: FuzzyPidController,
) -> ComparisonResult:
    """Run both controllers on the same scenario, each from rest.

    Each run is `run_closed_loop` of the scenario with its controller
    replaced. Either controller may be of either kind; both are checked
    before either runs.
    """
    runs = [replace(scenario, controller=c) for c in (pid_config, fuzzy_config)]
    pid_traj, fuzzy_traj = map(run_closed_loop, runs)
    return ComparisonResult(
        pid_metrics=compute_metrics(pid_traj) if len(pid_traj) else None,
        fuzzy_metrics=compute_metrics(fuzzy_traj) if len(fuzzy_traj) else None,
        pid_trajectory=pid_traj,
        fuzzy_trajectory=fuzzy_traj,
    )
