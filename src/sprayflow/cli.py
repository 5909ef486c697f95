"""Command-line front end.

Subcommands: simulate (run one closed loop, write the trajectory CSV and
print its metrics), compare (PID versus fuzzy-PID on the same scenario),
rules (dump the rule table in the override-file format) and metrics
(recompute step-response figures from an existing trajectory CSV).

Configuration is a flat key = value text file with '#' comments;
command-line flags with the same names override file values. All CSV
output is byte-reproducible: fixed-point with nine fractional digits,
comma separated, LF terminated.

Exit codes: 0 success, 1 configuration error, 2 numerical blow-up.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import presets
from .adaptive import FuzzyPidController
from .fuzzy import DEFAULT_RULE_TABLE, RuleTable, ScalingFactors
from .harness import (
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
from .plant import PIPELINE_TF, PLANT_INPUT, Disturbance, TransferFunction

CSV_HEADER = "t,r,e,u,y,kp,ki,kd"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2

# Config-file keys, which are also the override flags, in --help order.
CONFIG_KEYS = (
    "setpoint",
    "duration",
    "dt",
    "kp",
    "ki",
    "kd",
    "ke",
    "kec",
    "kup",
    "kui",
    "kud",
    "disturbance_time",
    "disturbance_magnitude",
    "controller",
    "plant_num",
    "plant_den",
    "disturbance_port",
    "rules_file",
    "output",
)


class ConfigError(ValueError):
    """Bad configuration file, key or value."""


def _fmt9(value: float) -> str:
    # Adding positive zero folds -0.0 into 0.0 before formatting.
    return f"{value + 0.0:.9f}"


# One CSV row in the _fmt9 format; "%.9f" and "{:.9f}" format floats alike.
_ROW_FORMAT = ",".join(["%.9f"] * 8) + "\n"
# Rows formatted per write, which bounds the memory the writer adds.
_CSV_CHUNK_ROWS = 1024


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory in the canonical byte-reproducible CSV format."""
    columns = (traj.t, traj.r, traj.e, traj.u, traj.y, traj.kp, traj.ki, traj.kd)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            stop = start + _CSV_CHUNK_ROWS
            # Adding positive zero folds -0.0 into 0.0, as _fmt9 does.
            rows = (np.column_stack([col[start:stop] for col in columns]) + 0.0).tolist()
            fh.write("".join([_ROW_FORMAT % tuple(row) for row in rows]))


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory CSV produced by write_trajectory_csv.

    The file needs at least two data rows of finite values and a uniform,
    increasing time axis; dt is taken from its end points.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trajectory file: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"trajectory file must start with header {CSV_HEADER!r}")
    if len(lines) < 3:
        raise ConfigError("trajectory file needs at least two data rows to define dt")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory row: {exc}") from exc
    # loadtxt skips blank lines; count them as malformed rows.
    if data.shape != (len(lines) - 1, 8):
        raise ConfigError("trajectory rows must have 8 fields, with no blank lines")
    if not np.all(np.isfinite(data)):
        raise ConfigError("trajectory values must be finite")
    t = data[:, 0]
    dt = float(t[-1] - t[0]) / (len(t) - 1)
    # Nine decimals round each t by up to 5e-10 and parsing adds half an ulp,
    # so an interval of a uniform axis reads up to 1e-9 + 1 ulp off dt.
    tol = 2e-9 + 4.0 * np.spacing(np.max(np.abs(t)))
    if not (dt > 0 and np.all(np.abs(np.diff(t) - dt) <= tol)):
        raise ConfigError("trajectory time axis t is not uniform and increasing")
    return Trajectory(
        t=t,
        r=data[:, 1],
        e=data[:, 2],
        u=data[:, 3],
        y=data[:, 4],
        kp=data[:, 5],
        ki=data[:, 6],
        kd=data[:, 7],
    )


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value config file with '#' comments."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {text!r}")
    return value


def _parse_coefficients(key: str, text: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{key}: empty coefficient list")
    return tuple(_parse_float(key, p) for p in parts)


_DEFAULTS: dict[str, str] = {
    "setpoint": repr(presets.DEFAULT_SETPOINT),
    "duration": repr(presets.DEFAULT_DURATION),
    "dt": repr(presets.DEFAULT_DT),
    "controller": "pid",
    "kp": repr(presets.DEFAULT_BASE_GAINS.kp),
    "ki": repr(presets.DEFAULT_BASE_GAINS.ki),
    "kd": repr(presets.DEFAULT_BASE_GAINS.kd),
    "ke": repr(presets.DEFAULT_FACTORS.ke),
    "kec": repr(presets.DEFAULT_FACTORS.kec),
    "kup": repr(presets.DEFAULT_FACTORS.kup),
    "kui": repr(presets.DEFAULT_FACTORS.kui),
    "kud": repr(presets.DEFAULT_FACTORS.kud),
    "plant_num": " ".join(map(repr, PIPELINE_TF.num)),
    "plant_den": " ".join(map(repr, PIPELINE_TF.den)),
    "output": "trajectory.csv",
}


def resolve_config(
    file_values: dict[str, str], overrides: dict[str, str]
) -> tuple[SimScenario, FuzzyPidController, str]:
    """Merge defaults, config-file values and flag overrides.

    Returns the scenario, the fuzzy-PID controller and the output path.
    The `controller` key picks the scenario's controller: fixed-gain PID
    on the base gains, or that fuzzy-PID controller.
    """
    merged = dict(_DEFAULTS)
    merged.update(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})

    controller = merged["controller"]
    if controller not in ("pid", "fuzzy-pid"):
        raise ConfigError(f"controller must be 'pid' or 'fuzzy-pid', got {controller!r}")
    disturbed = "disturbance_time" in merged
    if disturbed != ("disturbance_magnitude" in merged):
        raise ConfigError("disturbance_time and disturbance_magnitude must be given together")
    if "disturbance_port" in merged and not disturbed:
        raise ConfigError("disturbance_port given without disturbance_time/magnitude")

    try:
        gains = PidGains(
            kp=_parse_float("kp", merged["kp"]),
            ki=_parse_float("ki", merged["ki"]),
            kd=_parse_float("kd", merged["kd"]),
        )
        fuzzy = FuzzyPidController(
            base=gains,
            factors=ScalingFactors(
                ke=_parse_float("ke", merged["ke"]),
                kec=_parse_float("kec", merged["kec"]),
                kup=_parse_float("kup", merged["kup"]),
                kui=_parse_float("kui", merged["kui"]),
                kud=_parse_float("kud", merged["kud"]),
            ),
            table=_load_rules(merged.get("rules_file")),
        )
        disturbances = ()
        if disturbed:
            disturbances = (
                Disturbance(
                    time=_parse_float("disturbance_time", merged["disturbance_time"]),
                    magnitude=_parse_float(
                        "disturbance_magnitude", merged["disturbance_magnitude"]
                    ),
                    port=merged.get("disturbance_port", PLANT_INPUT),
                ),
            )
        scenario = SimScenario(
            setpoint=_parse_float("setpoint", merged["setpoint"]),
            duration=_parse_float("duration", merged["duration"]),
            dt=_parse_float("dt", merged["dt"]),
            controller=PidConfig(gains=gains) if controller == "pid" else fuzzy,
            plant=TransferFunction(
                num=_parse_coefficients("plant_num", merged["plant_num"]),
                den=_parse_coefficients("plant_den", merged["plant_den"]),
            ),
            disturbances=disturbances,
        )
    except ValueError as exc:
        # ConfigError is a ValueError, so the parse and rules-file messages
        # pass through unchanged.
        raise ConfigError(str(exc)) from None
    return scenario, fuzzy, merged["output"]


def _load_rules(path: str | None) -> RuleTable:
    """The rule table of an override file, or the built-in one for None."""
    if path is None:
        return DEFAULT_RULE_TABLE
    try:
        return RuleTable.load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read rules file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad rules file: {exc}") from None


_METRIC_ROWS = (
    ("maximum output", "y_max"),
    ("peak time", "peak_time"),
    ("settling time", "settling_time"),
    ("rise time", "rise_time"),
    ("final value", "y_final"),
    ("overshoot %", "overshoot_pct"),
)


def _metric_cell(metrics: StepMetrics, attr: str) -> str:
    value = getattr(metrics, attr)
    return "undefined" if value is None else _fmt9(value)


def print_metrics(metrics: StepMetrics) -> None:
    out = sys.stdout
    for label, attr in _METRIC_ROWS:
        out.write(f"{label:<16}{_metric_cell(metrics, attr)}\n")
    out.write(f"{'settled':<16}{'yes' if metrics.settled else 'no'}\n")


def cmd_simulate(scenario: SimScenario, output: str) -> int:
    traj = run_closed_loop(scenario)
    try:
        write_trajectory_csv(traj, output)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc
    if traj.blown_up:
        print("numerical blow-up: partial trajectory written", file=sys.stderr)
        return EXIT_BLOWUP
    print_metrics(compute_metrics(traj))
    return EXIT_OK


def cmd_compare(scenario: SimScenario, fuzzy: FuzzyPidController) -> int:
    result = compare_controllers(scenario, PidConfig(gains=fuzzy.base), fuzzy)
    trajectories = (result.pid_trajectory, result.fuzzy_trajectory)
    for name, traj in zip(("pid", "fuzzy-pid"), trajectories):
        if traj.blown_up:
            print(f"numerical blow-up in {name} run", file=sys.stderr)
            return EXIT_BLOWUP
    metrics = (result.pid_metrics, result.fuzzy_metrics)

    out = sys.stdout
    out.write(f"{'metric':<16}{'pid':<20}{'fuzzy-pid':<20}\n")
    for label, attr in _METRIC_ROWS:
        cells = [_metric_cell(m, attr) for m in metrics]
        out.write(f"{label:<16}{cells[0]:<20}{cells[1]:<20}\n")
    flags = ["yes" if m.settled else "no" for m in metrics]
    out.write(f"{'settled':<16}{flags[0]:<20}{flags[1]:<20}\n")
    if scenario.disturbances:
        t0 = min(d.time for d in scenario.disturbances)
        cells = [_fmt9(peak_deviation(traj, t0)) for traj in trajectories]
        out.write(f"{'peak deviation':<16}{cells[0]:<20}{cells[1]:<20}\n")
    return EXIT_OK


def cmd_rules(rules_file: str | None) -> int:
    sys.stdout.write(_load_rules(rules_file).dump())
    return EXIT_OK


def cmd_metrics(csv_path: str) -> int:
    traj = read_trajectory_csv(csv_path)
    print_metrics(compute_metrics(traj))
    return EXIT_OK


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    for key in CONFIG_KEYS:
        flags = [f"--{key}"]
        if "_" in key:
            flags.append(f"--{key.replace('_', '-')}")
        parser.add_argument(*flags, dest=key, default=None, help=f"override {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprayflow",
        description="Closed-loop flow-control simulation: PID and adaptive fuzzy-PID.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="run one closed loop and export its trajectory CSV")
    _add_override_flags(sim)
    cmp_parser = sub.add_parser("compare", help="run PID and fuzzy-PID on the same scenario")
    _add_override_flags(cmp_parser)
    rules = sub.add_parser("rules", help="print the rule table in the override-file format")
    rules.add_argument("--rules-file", "--rules_file", dest="rules_file", default=None)
    metrics = sub.add_parser("metrics", help="recompute metrics from a trajectory CSV")
    metrics.add_argument("csv_path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        if args.command == "rules":
            return cmd_rules(args.rules_file)
        if args.command == "metrics":
            return cmd_metrics(args.csv_path)
        file_values = load_config_file(args.config) if args.config else {}
        overrides = {key: getattr(args, key) for key in CONFIG_KEYS}
        scenario, fuzzy, output = resolve_config(file_values, overrides)
        if args.command == "simulate":
            return cmd_simulate(scenario, output)
        return cmd_compare(scenario, fuzzy)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
