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
(config, rules, trajectory CSV) must be a regular file, and a config or
rules file holds at most MAX_TEXT_CHARS (65,536) characters.

All CSV output is byte-reproducible: fixed-point with nine fractional
digits, comma separated, LF terminated, one column per name in
harness.COLUMNS. The writer formats a chunk of rows at a time and the
reader reads a line or 16 KiB at a time, so `metrics` holds the parsed
rows, never the whole text. Each has two paths to the same bytes and
bits: C where the library of `_native` builds or loads, and Python,
which is the reference, runs everywhere else and takes what C refuses.
The C writer formats a chunk by integer arithmetic and refuses one that
holds a value the arithmetic does not cover; the Python writer formats
a chunk by one %-format of its values. The C reader takes a file only in
the writer's own form. Any other file goes to np.loadtxt, which is
handed the lines of the open file as they are read; lines end in LF,
CRLF or CR. Each line is checked before np.loadtxt parses it: a line
longer than the 2,567 characters of the longest row the writer writes,
a blank line and a line past the MAX_STEPS + 1 rows a run logs at most
are refused. numpy and `_native` are imported by the writer and the
reader, not with the module, so `rules`, `--help` and a configuration
error load neither.

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
from typing import TYPE_CHECKING, BinaryIO, NoReturn, TextIO

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
_HEADER_LINE = CSV_HEADER.encode("ascii") + b"\n"

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


# The most characters a config or rules file may hold. Both are a few
# hundred characters; the bound keeps a huge file from being read whole.
MAX_TEXT_CHARS = 2**16


def _read_text(path: str, kind: str) -> str:
    """The ASCII text of a regular input file of at most MAX_TEXT_CHARS characters."""
    with _input_file(path, kind) as fh:
        text = fh.read(MAX_TEXT_CHARS + 1)
    if len(text) > MAX_TEXT_CHARS:
        raise ConfigError(f"{kind} file exceeds {MAX_TEXT_CHARS} characters")
    return text


# Fixed point with nine fractional digits: every printed number and CSV value.
_FIXED9 = "%.9f"


def _fmt9(value: float) -> str:
    # Adding positive zero folds -0.0 into 0.0 before formatting.
    return _FIXED9 % (value + 0.0)


# Rows formatted per write, which bounds the memory the writer adds.
_CSV_CHUNK_ROWS = 1024


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write a trajectory in the canonical byte-reproducible CSV format.

    Every value is written as _fmt9 writes it, a chunk of rows at a
    time: by the C formatter of `_native.format_rows` where its library
    builds or loads, which refuses a chunk that holds a value its integer
    arithmetic does not cover, and by _csv_rows otherwise.
    """
    from . import _native

    format_rows = _native.format_rows()
    rows = traj.data.T
    # One buffer for every chunk the C formatter writes: a fresh one per
    # chunk took about 1 ms more per 20,001-row file, in page faults.
    out = bytearray(_native.FIELD_BYTES * rows[:_CSV_CHUNK_ROWS].size if format_rows else 0)
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for start in range(0, len(traj), _CSV_CHUNK_ROWS):
            block = rows[start : start + _CSV_CHUNK_ROWS]
            size = format_rows(block, out) if format_rows else -1
            fh.write(_csv_rows(block) if size < 0 else memoryview(out)[:size])


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a (rows, columns) block of float64 values.

    This is the writer's Python path: the reference of the C formatter,
    and what formats a chunk the C formatter refuses. It is one %-format
    of all the values, each plus 0.0, the format _fmt9 applies to each.
    """
    row = ",".join([_FIXED9] * block.shape[1]) + "\n"
    return (row * block.shape[0] % tuple((block.ravel() + 0.0).tolist())).encode("ascii")


# _canonical_rows reads the file this many bytes at a time, about 170 rows
# of a written CSV, so that it holds about one read when it refuses a long
# line.
_READ_BYTES = 2**14

# The longest row write_trajectory_csv writes: one value per column and a
# comma between two. A finite value prints as at most 320 characters, a
# sign, 309 whole digits, the point and nine fraction digits.
_MAX_ROW_CHARS = len(COLUMNS) * 320 + len(COLUMNS) - 1


def _data_lines(fh: TextIO) -> Iterator[str]:
    """The data lines of an open trajectory file without their ends,
    checked as they are read.

    Each line is one readline of at most _MAX_ROW_CHARS + 1 characters,
    so a line longer than _MAX_ROW_CHARS is refused once that much of it
    is read, and the reader holds at most that much of a line. A blank
    line is refused: np.loadtxt would skip it, and it is the only line
    that np.loadtxt skips with comments=None. So is a line past
    MAX_STEPS + 1, the most rows a run logs. After the last line, fewer
    than two lines are refused.
    """
    most = MAX_STEPS + 1
    n = 0
    while line := fh.readline(_MAX_ROW_CHARS + 1):
        line = line.removesuffix("\n")
        if len(line) > _MAX_ROW_CHARS:
            raise ConfigError(f"trajectory file has a line longer than {_MAX_ROW_CHARS} characters")
        if not line:
            raise ConfigError("trajectory file must have no blank lines")
        n += 1
        if n > most:
            raise ConfigError(f"trajectory file exceeds the bound of {most} data rows")
        yield line
    if n < 2:
        raise ConfigError("trajectory file needs at least two data rows to define dt")


# The shortest row the writer writes: eight values of one whole digit,
# each with its point, nine fraction digits and a comma or the LF.
_MIN_ROW_BYTES = len(COLUMNS) * 12


def _canonical_rows(fh: BinaryIO) -> np.ndarray | None:
    """The data rows of an open trajectory file as the writer writes them, or None.

    The file must be the header line, then at least two rows of
    len(COLUMNS) fields, each an optional '-', one to seven whole digits,
    the point and nine fraction digits, with the integer of all its digits
    below 2**53, joined by commas and ended by LF. The C parser of
    `_native.parse_rows` reads them from reads of _READ_BYTES bytes
    into an array that grows in place up to the rows the file could hold,
    min(size // _MIN_ROW_BYTES + 1, MAX_STEPS + 1). Where there is no C
    parser, or a byte, line or row count of the file differs from that
    form, None is returned with part of the file read, for the caller to
    read it again from the start with np.loadtxt (_parsed_rows). A file
    whose last byte is not LF is refused before C parses any row of it.
    """
    import numpy as np

    from . import _native

    parse = _native.parse_rows()
    if parse is None or fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
        return None
    size = os.fstat(fh.fileno()).st_size
    # pread leaves the read offset where the header read put it.
    if os.pread(fh.fileno(), 1, size - 1) != b"\n":
        return None
    most = min(size // _MIN_ROW_BYTES + 1, MAX_STEPS + 1)
    data = np.empty((min(512, most), len(COLUMNS)))
    n = 0
    text = b""
    while chunk := fh.read(_READ_BYTES):
        text += chunk
        # Room for every row text could begin, unless the file cannot hold them.
        room = min(n + len(text) // _MIN_ROW_BYTES + 1, most)
        if room > len(data):
            # No view of data exists, so it may move.
            data.resize((min(max(room, 2 * len(data)), most), len(COLUMNS)), refcheck=False)
        rows, used = parse(text, data, n)
        if rows < 0:
            return None
        n += rows
        text = text[used:]
    if text or n < 2:
        return None
    data.resize((n, len(COLUMNS)), refcheck=False)
    return data


def _parsed_rows(fh: TextIO) -> np.ndarray:
    """The data rows of an open trajectory file, which np.loadtxt parses
    as _data_lines reads and checks them."""
    import numpy as np

    if fh.readline(len(CSV_HEADER) + 1).removesuffix("\n") != CSV_HEADER:
        raise ConfigError(f"trajectory file must start with header {CSV_HEADER!r}")
    try:
        return np.loadtxt(_data_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (ConfigError, UnicodeDecodeError):
        raise  # a line _data_lines refused, or a read error _input_file reports
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory row: {exc}") from exc


def read_trajectory_csv(path: str) -> Trajectory:
    """Read a trajectory CSV produced by write_trajectory_csv.

    The file needs at least two and at most MAX_STEPS + 1 data rows of
    finite values, no blank line, and a uniform, increasing time axis; dt
    is taken from its end points. Lines end in LF, CRLF or CR, and none is
    longer than the longest row the writer writes. A file of the writer's
    own bytes is read by C (_canonical_rows). Any other file, or every file
    where there is no C parser, is read again from the start by
    np.loadtxt, which parses the lines as _data_lines reads and checks
    them (_parsed_rows). Either way the reader holds the parsed array and
    one read of the file, not its text, and the values have the bits of
    float() of their fields.
    """
    import numpy as np

    with _input_file(path, "trajectory") as fh:
        data = _canonical_rows(fh.buffer)
        if data is None:
            fh.seek(0)
            data = _parsed_rows(fh)
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
    entry_point()
