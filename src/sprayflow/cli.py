"""Command-line front end.

Subcommands: simulate (run one closed loop, write the trajectory CSV and
print its metrics), compare (PID versus fuzzy-PID on the same scenario),
rules (dump the rule table in the override-file format) and metrics
(recompute step-response figures from an existing trajectory CSV).

Configuration is a flat key = value text file with '#' comments;
command-line flags with the same names override file values. CONFIG_KEYS
declares the format once: each key's parser and default, in --help order.
Values are parsed in that order, so of several values that do not parse
the first is reported. Flags must be spelled in full. The token after a
flag that takes a value is its value, whatever it starts with, unless it
is a long option ('--...'): --output -x.csv writes -x.csv and --kp -1e-3
sets kp, as --output=-x.csv and --kp=-1e-3 do. Every token after a bare
'--' is an operand: metrics -- -x.csv reads -x.csv. Every input file
(config, rules, trajectory CSV) must be a regular file.

All CSV output is byte-reproducible: fixed-point with nine fractional
digits, comma separated, LF terminated, one column per name in
harness.COLUMNS. The writer formats a chunk of rows at a time, with numpy
integer arithmetic where it covers every value of the chunk and with one
%-format otherwise, to the bytes that formatting each value on its own
gives. The reader hands np.loadtxt the lines of the open file as it
reads them, in batches of about 16 KiB, so `metrics` holds the parsed
rows, never the whole text; lines end in LF, CRLF or CR. It checks each
batch first, and refuses a blank line and a line past the MAX_STEPS + 1
rows a run logs at most; np.loadtxt parses neither. numpy is imported
by the writer and the reader, not with the module, so `rules`, `--help`
and a configuration error load no numpy.

Exit codes: 0 success, 1 configuration error (an argument error
included), 2 numerical blow-up.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING, NoReturn, TextIO

from . import presets
from .adaptive import FuzzyPidController
from .fuzzy import DEFAULT_RULE_TABLE, RuleTable, ScalingFactors
from .harness import (
    COLUMNS,
    MAX_STEPS,
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

if TYPE_CHECKING:
    import numpy as np

CSV_HEADER = ",".join(COLUMNS)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2


class ConfigError(ValueError):
    """Bad configuration file, key or value."""


@contextlib.contextmanager
def _input_file(path: str, kind: str) -> Iterator[TextIO]:
    """A regular input file, open as ASCII text.

    The file type is checked before the path is opened: a device such as
    /dev/zero would be read until memory runs out, and a FIFO with no
    writer would block. An error in opening, reading or decoding the file
    is a ConfigError.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ConfigError(f"cannot read {kind} file: {path!r} is not a regular file")
        with open(path, "r", encoding="ascii") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file: {exc}") from exc


def _read_text(path: str, kind: str) -> str:
    """The ASCII text of a regular input file."""
    with _input_file(path, kind) as fh:
        return fh.read()


# Fixed point with nine fractional digits: every printed number and CSV value.
_FIXED9 = "%.9f"


def _fmt9(value: float) -> str:
    # Adding positive zero folds -0.0 into 0.0 before formatting.
    return _FIXED9 % (value + 0.0)


# Rows formatted per write, which bounds the memory the writer adds.
_CSV_CHUNK_ROWS = 1024


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory in the canonical byte-reproducible CSV format.

    Every value is written as _fmt9 writes it: the exact value v * 10**9
    rounded to an integer, ties to even, printed with nine fractional
    digits. The writer formats a chunk of rows at a time (_csv_rows). When
    numpy arithmetic covers every value of the chunk, it gets that integer
    from the arithmetic, which is exact: let x be v * 1e9 in float64 and
    n = rint(x). If |x| < 2**52 and |x - n| != 0.5, n is the integer _fmt9
    prints: ulp(x) <= 0.5, so x - n and 0.5 are both multiples of ulp(x)
    and |x - n| <= 0.5 - ulp(x), while the exact product lies within
    ulp(x) / 2 of x, hence strictly within 0.5 of n. A chunk that holds any
    other value (not finite, |x| >= 2**52, or x on a tie) is formatted as a
    whole by the format _fmt9 applies to each value.
    """
    rows = traj.data.T
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode("ascii") + b"\n")
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            fh.write(_csv_rows(rows[start : start + _CSV_CHUNK_ROWS]))


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a non-empty (rows, columns) block of float64 values.

    If the arithmetic does not cover every value (see
    write_trajectory_csv), one %-format of all the values, each plus 0.0,
    writes the rows. Otherwise each value has a slot of bytes: a sign, the
    whole part of |n| (at most 7 digits, as |n| < 2**52), the point, 9
    fraction digits and the separator. A slot holds NUL for the leading
    zeros of the whole part and for the sign of a value that is not below
    zero, so -0.0 prints unsigned and -4e-10 as -0.000000000, as _fmt9
    prints them. Dropping the NULs leaves the rows.
    """
    import numpy as np

    values = block.ravel()
    with np.errstate(all="ignore"):
        x = values * 1e9
        n = np.rint(x)
        exact = (np.abs(x) < 2.0**52) & (np.abs(x - n) != 0.5)
    if not exact.all():
        row = ",".join([_FIXED9] * block.shape[1]) + "\n"
        return (row * block.shape[0] % tuple((values + 0.0).tolist())).encode("ascii")
    scaled = np.abs(n).astype(np.int64)
    whole = scaled // 10**9
    frac = (scaled - whole * 10**9).astype(np.int32)
    whole = whole.astype(np.int32)
    whole_digits = len(str(int(whole.max())))
    # Sign, whole digits, point, 9 fraction digits, separator.
    width = whole_digits + 12
    buf = np.zeros((len(values), width), np.uint8)
    buf[:, -1] = ord(",")
    buf[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    pos = width - 1
    for _ in range(9):
        pos -= 1
        q = frac // 10
        buf[:, pos] = frac - q * 10 + ord("0")
        frac = q
    pos -= 1
    buf[:, pos] = ord(".")
    for k in range(whole_digits):
        pos -= 1
        q = whole // 10
        digit = whole - q * 10 + ord("0")
        if k:
            # A leading zero stays NUL; the ones digit is always written.
            digit *= whole != 0
        buf[:, pos] = digit
        whole = q
    buf[:, 0] = (values < 0) * ord("-")
    return buf[buf != 0].tobytes()


# _data_lines reads and checks the lines a batch of about this many bytes
# at a time, about 170 rows of a written CSV, so that the work per line
# stays in C: checking each line in Python made the benchmark's
# pid_disturbance_cli scenario about 4% slower (2-core Xeon).
_LINE_BATCH_BYTES = 2**14


def _data_lines(fh: TextIO) -> Iterator[str]:
    """The data lines of an open trajectory file, checked as they are read.

    A blank line is refused: np.loadtxt would skip it, and it is the only
    line that np.loadtxt skips with comments=None. So is a line past
    MAX_STEPS + 1, the most rows a run logs, before np.loadtxt parses any
    line of its batch. After the last line, fewer than two lines are
    refused.
    """
    most = MAX_STEPS + 1
    n = 0
    while lines := fh.readlines(_LINE_BATCH_BYTES):
        n += len(lines)
        if n > most:
            raise ConfigError(f"trajectory file exceeds the bound of {most} data rows")
        if "\n" in lines:
            # The lines ahead of it are parsed first, so a malformed row
            # among them is reported, as it is when the lines come one by one.
            yield from lines[: lines.index("\n")]
            raise ConfigError("trajectory file must have no blank lines")
        yield from lines
    if n < 2:
        raise ConfigError("trajectory file needs at least two data rows to define dt")


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory CSV produced by write_trajectory_csv.

    The file needs at least two and at most MAX_STEPS + 1 data rows of
    finite values, no blank line, and a uniform, increasing time axis; dt
    is taken from its end points. Lines end in LF, CRLF or CR. np.loadtxt
    parses the lines as _data_lines reads and checks them, so the reader
    holds the parsed array and one batch of lines, not the text of the
    file.
    """
    import numpy as np

    with _input_file(path, "trajectory") as fh:
        if fh.readline().removesuffix("\n") != CSV_HEADER:
            raise ConfigError(f"trajectory file must start with header {CSV_HEADER!r}")
        try:
            data = np.loadtxt(_data_lines(fh), delimiter=",", comments=None, ndmin=2)
        except (ConfigError, UnicodeDecodeError):
            raise  # a line _data_lines refused, or a read error _input_file reports
        except ValueError as exc:
            raise ConfigError(f"malformed trajectory row: {exc}") from exc
    if data.shape[1] != len(COLUMNS):
        raise ConfigError(f"trajectory rows must have {len(COLUMNS)} fields, not {data.shape[1]}")
    if not np.all(np.isfinite(data)):
        raise ConfigError("trajectory values must be finite")
    t = data[:, 0]
    # Nine decimals round each t by up to 5e-10 and parsing adds half an ulp,
    # so an interval of a uniform axis reads up to 1e-9 + 1 ulp off dt.
    tol = 2e-9 + 4.0 * np.spacing(np.max(np.abs(t)))
    # A t that spans more than the float range makes dt or an interval inf,
    # which fails the check.
    with np.errstate(over="ignore", invalid="ignore"):
        dt = float(t[-1] - t[0]) / (len(t) - 1)
        uniform = dt > 0 and np.all(np.abs(np.diff(t) - dt) <= tol)
    if not uniform:
        raise ConfigError("trajectory time axis t is not uniform and increasing")
    return Trajectory(data.T)


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
    ("peak output", "y_peak"),
    ("peak time", "peak_time"),
    ("settling time", "settling_time"),
    ("rise time", "rise_time"),
    ("final value", "y_final"),
    ("overshoot %", "overshoot_pct"),
    ("settled", "settled"),
)
# The width of each controller's column in the compare report.
_COMPARE_WIDTH = 20


def _metric_cell(metrics: StepMetrics, attr: str) -> str:
    value = getattr(metrics, attr)
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return _fmt9(value)


def _write_row(label: str, cells: list[str], width: int) -> None:
    """One report line: a 16-character label, then each cell padded to width."""
    sys.stdout.write(f"{label:<16}" + "".join(cell.ljust(width) for cell in cells) + "\n")


def print_metrics(*metrics: StepMetrics, width: int = 0) -> None:
    """The metric rows, one column per StepMetrics."""
    for label, attr in _METRIC_ROWS:
        _write_row(label, [_metric_cell(m, attr) for m in metrics], width)


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
    _write_row("metric", ["pid", "fuzzy-pid"], _COMPARE_WIDTH)
    print_metrics(result.pid_metrics, result.fuzzy_metrics, width=_COMPARE_WIDTH)
    if scenario.disturbances:
        t0 = min(d.time for d in scenario.disturbances)
        cells = [_fmt9(peak_deviation(traj, t0)) for traj in trajectories]
        _write_row("peak deviation", cells, _COMPARE_WIDTH)
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


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser that takes flags by their full spelling only.

    Flags are spelled in full, parse errors are configuration errors,
    and the subparsers share the class.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{message} (see {self.prog} --help)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Parsing leaves the parser as it was, so every call of `main` in a
    process parses with the same one; do not modify it.
    """
    parser = _ArgumentParser(
        prog="sprayflow",
        description="Closed-loop flow-control simulation: PID and adaptive fuzzy-PID.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "run one closed loop and export its trajectory CSV"),
        ("compare", "run PID and fuzzy-PID on the same scenario"),
    ):
        _add_override_flags(sub.add_parser(name, help=text))
    rules = sub.add_parser("rules", help="print the rule table in the override-file format")
    rules.add_argument(*_flag_spellings("rules_file"), dest="rules_file", default=None)
    metrics = sub.add_parser("metrics", help="recompute metrics from a trajectory CSV")
    metrics.add_argument("csv_path")
    return parser


# The flags that take one value: --config and every override flag.
_VALUE_FLAGS = frozenset(["--config"]).union(*map(_flag_spellings, CONFIG_KEYS))


def _attach_values(argv: list[str]) -> list[str]:
    """Write each value flag and the token after it as '--flag=value'.

    The token after a flag that takes a value is its value, whatever it
    starts with, as getopt takes an option's required argument, unless it
    is a long option ('--...'): argparse then reports the flag without its
    value. Left apart, a token such as -1e-3, -1,2 or -x.csv would be taken
    by argparse for an option; joined to its flag, it is never a guess.
    As for getopt, every token after a bare '--' is an operand, passed on
    as it is.
    """
    out: list[str] = []
    for i, token in enumerate(argv):
        if token == "--":
            return out + argv[i:]
        if out and out[-1] in _VALUE_FLAGS and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_values(argv))
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
    except SystemExit:
        # Only --help exits the parser, once it has printed the help; a
        # parse error raises ConfigError.
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
