"""Command-line front end.

Subcommands: simulate (run one closed loop, write the trajectory CSV and
print its metrics), compare (PID versus fuzzy-PID on the same scenario),
rules (dump the rule table in the override-file format) and metrics
(recompute step-response figures from an existing trajectory CSV).

Configuration is a flat key = value text file with '#' comments;
command-line flags with the same names override file values. CONFIG_KEYS
declares the format once: each key's parser and default, in --help order.
Values are parsed in that order, so of several values that do not parse
the first is reported. Flags must be spelled in full, and every input
file (config, rules, trajectory CSV) must be a regular file.

All CSV output is byte-reproducible: fixed-point with nine fractional
digits, comma separated, LF terminated, one column per name in
harness.COLUMNS.

Exit codes: 0 success, 1 configuration error, 2 numerical blow-up.
"""
from __future__ import annotations

import argparse
import math
import os
import stat
import sys

import numpy as np

from . import presets
from .adaptive import FuzzyPidController
from .fuzzy import DEFAULT_RULE_TABLE, RuleTable, ScalingFactors
from .harness import (
    COLUMNS,
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

CSV_HEADER = ",".join(COLUMNS)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2


class ConfigError(ValueError):
    """Bad configuration file, key or value."""


def _read_text(path: str, kind: str) -> str:
    """The ASCII text of a regular input file.

    The file type is checked before the path is opened: a device such as
    /dev/zero would be read until memory runs out, and a FIFO with no
    writer would block.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ConfigError(f"cannot read {kind} file: {path!r} is not a regular file")
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file: {exc}") from exc


def _fmt9(value: float) -> str:
    # Adding positive zero folds -0.0 into 0.0 before formatting.
    return f"{value + 0.0:.9f}"


# One CSV row in the _fmt9 format; "%.9f" and "{:.9f}" format floats alike.
_ROW_FORMAT = ",".join(["%.9f"] * len(COLUMNS)) + "\n"
# Rows formatted per write, which bounds the memory the writer adds.
_CSV_CHUNK_ROWS = 1024


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory in the canonical byte-reproducible CSV format."""
    columns = [getattr(traj, name) for name in COLUMNS]
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
    lines = _read_text(path, "trajectory").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"trajectory file must start with header {CSV_HEADER!r}")
    if len(lines) < 3:
        raise ConfigError("trajectory file needs at least two data rows to define dt")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory row: {exc}") from exc
    # loadtxt skips blank lines; count them as malformed rows.
    if data.shape != (len(lines) - 1, len(COLUMNS)):
        raise ConfigError(f"trajectory rows must have {len(COLUMNS)} fields, with no blank lines")
    if not np.all(np.isfinite(data)):
        raise ConfigError("trajectory values must be finite")
    t = data[:, 0]
    dt = float(t[-1] - t[0]) / (len(t) - 1)
    # Nine decimals round each t by up to 5e-10 and parsing adds half an ulp,
    # so an interval of a uniform axis reads up to 1e-9 + 1 ulp off dt.
    tol = 2e-9 + 4.0 * np.spacing(np.max(np.abs(t)))
    if not (dt > 0 and np.all(np.abs(np.diff(t) - dt) <= tol)):
        raise ConfigError("trajectory time axis t is not uniform and increasing")
    return Trajectory(**dict(zip(COLUMNS, data.T)))


def load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value config file with '#' comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path, "config").splitlines(), start=1):
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


def _parse_text(key: str, text: str) -> str:
    return text


# The configuration format: each config-file key, which is also an override
# flag, mapped to (parser, default) in --help order. A None default leaves
# the key unset.
CONFIG_KEYS = {
    "setpoint": (_parse_float, presets.DEFAULT_SETPOINT),
    "duration": (_parse_float, presets.DEFAULT_DURATION),
    "dt": (_parse_float, presets.DEFAULT_DT),
    "kp": (_parse_float, presets.DEFAULT_BASE_GAINS.kp),
    "ki": (_parse_float, presets.DEFAULT_BASE_GAINS.ki),
    "kd": (_parse_float, presets.DEFAULT_BASE_GAINS.kd),
    "ke": (_parse_float, presets.DEFAULT_FACTORS.ke),
    "kec": (_parse_float, presets.DEFAULT_FACTORS.kec),
    "kup": (_parse_float, presets.DEFAULT_FACTORS.kup),
    "kui": (_parse_float, presets.DEFAULT_FACTORS.kui),
    "kud": (_parse_float, presets.DEFAULT_FACTORS.kud),
    "disturbance_time": (_parse_float, None),
    "disturbance_magnitude": (_parse_float, None),
    "controller": (_parse_text, "pid"),
    "plant_num": (_parse_coefficients, PIPELINE_TF.num),
    "plant_den": (_parse_coefficients, PIPELINE_TF.den),
    "disturbance_port": (_parse_text, PLANT_INPUT),
    "rules_file": (_parse_text, None),
    "output": (_parse_text, "trajectory.csv"),
}


def resolve_config(
    file_values: dict[str, str], overrides: dict[str, str]
) -> tuple[SimScenario, FuzzyPidController, str]:
    """Merge defaults, config-file values and flag overrides.

    Returns the scenario, the fuzzy-PID controller and the output path.
    The `controller` key picks the scenario's controller: fixed-gain PID
    on the base gains, or that fuzzy-PID controller.
    """
    given = dict(file_values)
    given.update({k: v for k, v in overrides.items() if v is not None})
    values = {
        key: parse(key, given[key]) if key in given else default
        for key, (parse, default) in CONFIG_KEYS.items()
    }

    controller = values["controller"]
    if controller not in ("pid", "fuzzy-pid"):
        raise ConfigError(f"controller must be 'pid' or 'fuzzy-pid', got {controller!r}")
    disturbed = "disturbance_time" in given
    if disturbed != ("disturbance_magnitude" in given):
        raise ConfigError("disturbance_time and disturbance_magnitude must be given together")
    if "disturbance_port" in given and not disturbed:
        raise ConfigError("disturbance_port given without disturbance_time/magnitude")

    try:
        gains = PidGains(kp=values["kp"], ki=values["ki"], kd=values["kd"])
        fuzzy = FuzzyPidController(
            base=gains,
            factors=ScalingFactors(
                ke=values["ke"],
                kec=values["kec"],
                kup=values["kup"],
                kui=values["kui"],
                kud=values["kud"],
            ),
            table=_load_rules(values["rules_file"]),
        )
        disturbances = ()
        if disturbed:
            disturbances = (
                Disturbance(
                    time=values["disturbance_time"],
                    magnitude=values["disturbance_magnitude"],
                    port=values["disturbance_port"],
                ),
            )
        scenario = SimScenario(
            setpoint=values["setpoint"],
            duration=values["duration"],
            dt=values["dt"],
            controller=PidConfig(gains=gains) if controller == "pid" else fuzzy,
            plant=TransferFunction(num=values["plant_num"], den=values["plant_den"]),
            disturbances=disturbances,
        )
    except ValueError as exc:
        # ConfigError is a ValueError, so the rules-file messages pass
        # through unchanged.
        raise ConfigError(str(exc)) from None
    return scenario, fuzzy, values["output"]


def _load_rules(path: str | None) -> RuleTable:
    """The rule table of an override file, or the built-in one for None."""
    if path is None:
        return DEFAULT_RULE_TABLE
    # Outside the try: a read error is a ConfigError, hence a ValueError.
    text = _read_text(path, "rules")
    try:
        return RuleTable.parse(text)
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


def _flag_spellings(key: str) -> list[str]:
    """The override flags of a key: --plant_num and --plant-num for plant_num."""
    flags = [f"--{key}"]
    if "_" in key:
        flags.append(f"--{key.replace('_', '-')}")
    return flags


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="path to a key = value config file")
    for key in CONFIG_KEYS:
        parser.add_argument(*_flag_spellings(key), dest=key, default=None, help=f"override {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprayflow",
        description="Closed-loop flow-control simulation: PID and adaptive fuzzy-PID.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags are matched by their full spelling only, as _VALUE_FLAGS lists them.
    for name, text in (
        ("simulate", "run one closed loop and export its trajectory CSV"),
        ("compare", "run PID and fuzzy-PID on the same scenario"),
    ):
        _add_override_flags(sub.add_parser(name, help=text, allow_abbrev=False))
    rules = sub.add_parser(
        "rules", help="print the rule table in the override-file format", allow_abbrev=False
    )
    rules.add_argument("--rules-file", "--rules_file", dest="rules_file", default=None)
    metrics = sub.add_parser("metrics", help="recompute metrics from a trajectory CSV")
    metrics.add_argument("csv_path")
    return parser


# Every override flag takes one value.
_VALUE_FLAGS = frozenset(flag for key in CONFIG_KEYS for flag in _flag_spellings(key))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write '--flag -1e-3' as '--flag=-1e-3' for every override flag.

    argparse takes a token that starts with '-' for an option unless it
    looks like a plain negative number such as -0.001, so a value in
    exponent notation such as -1e-3 would leave its flag without a value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and token.startswith("-") and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_values(argv))
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
