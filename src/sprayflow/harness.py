"""Closed-loop scenario runner and step-response metrics.

A scenario pairs one plant with one controller and a constant setpoint.
Every run starts from rest: zero plant state, zero integral. Each step
the controller acts on the measurement logged at the previous sample (no
extra computational delay is modeled), disturbances are added at their
ports, and the plant advances by one RK4 step. The logged u
column is the effective plant input and the y column the measured output,
both including any active disturbances, so e = r - y holds row-wise.

The loop runs on plain floats as one function of straight-line code,
built once per process for each plant order and controller kind
(`_loop`) and called once per run with the scenario's values: the plant
step that `plant.rk4_zoh` precomputes once per scenario from its plant
and dt as (rows, c), kept as `SimScenario.rk4_step`, and the controller;
setup lines unpack the step, the gains and, for fuzzy-PID, the factors
and rule table into locals once per run. The plant state lives in locals
and the plant step (`plant.step_lines`), the PID law and the gain update
(`adaptive.gain_lines`) are written out; only a firing-plan kernel of
the rule table remains a call. The loop holds the controller state, the
integral and the previous error; their backward difference, zero on the
first step, is both the derivative and the fuzzy error rate. A run is
bit-identical to stepping `plant.compile_step`, `pid.pid_law` and
`adaptive.adapted_gains` by hand.

The loop alone decides a blow-up, the same way for both controllers: it
stops before a step whose error rate is not finite and before a row whose
error e = r - y is not finite. With a finite setpoint a finite error means
a finite output, state and input (see `plant.step_lines`), so every
logged row is finite.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

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
    """Uniformly sampled closed-loop record, one row per sample."""

    t: np.ndarray
    r: np.ndarray
    e: np.ndarray
    u: np.ndarray
    y: np.ndarray
    kp: np.ndarray
    ki: np.ndarray
    kd: np.ndarray
    blown_up: bool = False

    def __post_init__(self) -> None:
        for name in COLUMNS:
            column = getattr(self, name)
            if len(column) != len(self.t):
                raise ValueError(f"column {name} has mismatched length")
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class StepMetrics:
    """Step-response figures of one trajectory.

    y_final is the last sample; the settled flag reports whether the final
    5% of samples stayed within 1% of it. Percentage-based figures are None
    when y_final is zero.

    Every figure covers the whole run as one step response. With a
    disturbance the peak and overshoot can come from the disturbance
    phase, and settling_time is the last exit from the 2% band, which is
    then the re-settling after the disturbance. On the shipped disturbance
    scenario PID reports 0.5796 s and fuzzy-PID 0.5797 s, while the
    setpoint step alone settles at 0.1176 s and 0.1432 s. Per-phase
    figures are an open item of ROADMAP.md.
    """

    y_max: float
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
    t = 0. The run ends at the first step whose error rate, or whose
    output or error once output disturbances are added, is not finite,
    for either controller; the trajectory then holds the rows before it,
    every one finite (none if row 0's error overflows), with blown_up set.

    The whole loop is one function of straight-line code (see `_loop`),
    called once with the scenario's values: its `rk4_step` and its
    controller.
    """
    n_rows = scenario.steps + 1
    dt = scenario.dt
    r = float(scenario.setpoint)
    rows, c = scenario.rk4_step
    t = np.arange(n_rows) * dt
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

    controller = scenario.controller
    fuzzy = isinstance(controller, FuzzyPidController)
    rest = controller.base if fuzzy else controller.gains

    u_log = np.zeros(n_rows)
    y_log = np.zeros(n_rows)
    # float64 whatever the type of the gains: the fuzzy loop writes its
    # adapted gains into these columns.
    kp_log = np.full(n_rows, rest.kp, dtype=float)
    ki_log = np.full(n_rows, rest.ki, dtype=float)
    kd_log = np.full(n_rows, rest.kd, dtype=float)

    n_logged = _loop(len(rows), fuzzy)(
        n_rows=n_rows, dt=dt, r=r, u_dists=u_dists, y_dists=y_dists, u_log=u_log,
        y_log=y_log, kp_log=kp_log, ki_log=ki_log, kd_log=kd_log, rows=rows, c=c,
        ctrl=controller,
    )

    sl = slice(0, n_logged)
    y_out = y_log[sl]
    return Trajectory(
        t=t[:n_logged],
        r=np.full(n_logged, r),
        e=r - y_out,
        u=u_log[sl],
        y=y_out,
        kp=kp_log[sl],
        ki=ki_log[sl],
        kd=kd_log[sl],
        blown_up=n_logged < n_rows,
    )


# At most 2 * plant.MAX_ORDER entries: one per plant order and controller kind.
@functools.cache
def _loop(order: int, fuzzy: bool) -> Callable[..., int]:
    """The closed loop of a plant order and controller kind as one function.

    loop(n_rows, dt, r, u_dists, y_dists, u_log, y_log, kp_log, ki_log,
    kd_log, rows, c, ctrl) logs rows 0 to n_rows - 1 into u_log and y_log
    (and, for fuzzy-PID, the gains into kp_log, ki_log and kd_log) and
    returns the number of rows logged. rows and c are the plant step (see
    `plant.rk4_zoh`), ctrl the scenario's controller, and u_dists and
    y_dists hold the (first step, magnitude) pairs of each port. Before
    the loop, the setup lines of `plant.step_lines` and, for fuzzy-PID,
    `adaptive.gain_lines` read the values from rows, c and ctrl.

    The body is straight-line code: the plant state lives in the locals
    x0 .. x{order-1}, the PID law and, for fuzzy-PID, the gain update are
    written out, and only a firing-plan kernel remains a call. Each
    performs the operations of `plant.compile_step`, `pid.pid_law` and
    `adaptive.adapted_gains` on the same operands in the same order, so a
    run is bit-identical to stepping those by hand. The source depends on
    the order and the kind only and holds generated names; every value
    arrives as an argument.
    """
    setup, plant = step_lines(order)
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
        "if not isfinite(rate):",
        "    return k",
        "e_prev = e",
        *gains,
        # pid_law
        "integral += e * dt",
        "u = kp * e + ki * integral + kd * rate",
        "for start, m in u_dists:",
        "    if k >= start:",
        "        u += m",
        *plant,
        "for start, m in y_dists:",
        "    if k >= start:",
        "        y += m",
        "e = r - y",
        "if not isfinite(e):",
        "    return k",
        "u_log[k] = u",
        "y_log[k] = y",
    ]
    lines = [
        "def loop(n_rows, dt, r, u_dists, y_dists, u_log, y_log,"
        " kp_log, ki_log, kd_log, rows, c, ctrl):",
        *(f"    {line}" for line in setup),
        *(f"    x{i} = 0.0" for i in range(order)),
        "    y = 0.0",
        "    for start, m in y_dists:",
        "        if start <= 0:",
        "            y += m",
        "    e = r - y",
        "    if not isfinite(e):",
        "        return 0",
        "    y_log[0] = y",
        # e - e is +0.0 for a finite e, so the first step's rate is 0.0.
        "    e_prev = e",
        "    integral = 0.0",
        "    for k in range(1, n_rows):",
        *(f"        {line}" for line in step),
        "    return n_rows",
    ]
    namespace = {"isfinite": math.isfinite}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


def compute_metrics(traj: Trajectory) -> StepMetrics:
    """Step-response metrics of a non-empty trajectory.

    The steady value is the last sample; overshoot is the first global
    maximum's excess over it, the settling time the earliest time after
    which every sample stays inside a 2% band, and the rise time the gap
    between the first 10% and 90% crossings. All of them span the whole
    run, disturbances included (see StepMetrics).
    """
    y = traj.y
    t = traj.t
    if len(y) == 0:
        raise ValueError("trajectory is empty")
    y_final = float(y[-1])
    peak_idx = int(np.argmax(y))
    y_max = float(y[peak_idx])
    peak_time = float(t[peak_idx])

    tail_start = (19 * len(y)) // 20
    settled = bool(np.all(np.abs(y[tail_start:] - y_final) <= 0.01 * abs(y_final)))

    band = 0.02 * abs(y_final)
    outside = np.flatnonzero(np.abs(y - y_final) > band)
    settling_time = float(t[outside[-1] + 1]) if outside.size else float(t[0])

    if y_final == 0.0:
        overshoot_pct = None
        rise_time = None
    else:
        overshoot_pct = (y_max - y_final) / abs(y_final) * 100.0
        rise_time = _rise_time(t, y, y_final)
    return StepMetrics(
        y_max=y_max,
        peak_time=peak_time,
        settling_time=settling_time,
        rise_time=rise_time,
        y_final=y_final,
        overshoot_pct=overshoot_pct,
        settled=settled,
    )


def _rise_time(t: np.ndarray, y: np.ndarray, y_final: float) -> float | None:
    sign = 1.0 if y_final > 0 else -1.0
    crossings = []
    for fraction in (0.1, 0.9):
        hits = np.flatnonzero(sign * y >= sign * fraction * y_final)
        if hits.size == 0:
            return None
        crossings.append(float(t[hits[0]]))
    return crossings[1] - crossings[0]


def peak_deviation(traj: Trajectory, after_time: float) -> float:
    """Largest |y - r| at or after a given time; gauges disturbance rejection."""
    mask = traj.t >= after_time
    if not np.any(mask):
        raise ValueError(f"no samples at or after t={after_time!r}")
    return float(np.max(np.abs(traj.y[mask] - traj.r[mask])))


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
    """Run both controllers on the same scenario, each from rest."""
    pid_traj = run_closed_loop(replace(scenario, controller=pid_config))
    fuzzy_traj = run_closed_loop(replace(scenario, controller=fuzzy_config))
    return ComparisonResult(
        pid_metrics=compute_metrics(pid_traj) if len(pid_traj) else None,
        fuzzy_metrics=compute_metrics(fuzzy_traj) if len(fuzzy_traj) else None,
        pid_trajectory=pid_traj,
        fuzzy_trajectory=fuzzy_traj,
    )
