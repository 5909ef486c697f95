import contextlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sprayflow
from sprayflow import _native, cli, presets
from sprayflow.cli import (
    _CSV_CHUNK_ROWS,
    CONFIG_KEYS,
    CSV_HEADER,
    ConfigError,
    _fmt9,
    build_parser,
    load_config_file,
    main,
    read_trajectory_csv,
    resolve_config,
    write_trajectory_csv,
)
from sprayflow.fuzzy import DEFAULT_RULE_TABLE, RuleTable
from sprayflow.harness import PidConfig, SimScenario, Trajectory, run_closed_loop
from sprayflow.pid import PidGains

import bits
from test_plant import ORDER_16_TF

ROW_PATTERN = re.compile(r"^-?\d+\.\d{9}(,-?\d+\.\d{9}){7}$")


def run_cli(args):
    return main(list(args))


# Setpoint 1e308 against an output disturbance of -1e308 from t = 0.
OVERFLOW_FLAGS = (
    "--setpoint", "1e308", "--disturbance-time", "0",
    "--disturbance-magnitude=-1e308", "--disturbance-port", "plant-output",
)
# Setpoint 0 against an output disturbance of 1.5e308 from t = 0.1 ms: the
# error stays finite while its rate overflows.
RATE_OVERFLOW_FLAGS = (
    "--setpoint", "0", "--disturbance-time", "0.0001",
    "--disturbance-magnitude", "1.5e308", "--disturbance-port", "plant-output",
)


class TestSimulate:
    def test_csv_structure(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--duration", "0.01", "--output", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("ascii").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) - 1 == 101  # floor(0.01/1e-4) + 1 data rows
        for line in lines[1:]:
            assert ROW_PATTERN.match(line)
        stdout = capsys.readouterr().out
        assert "overshoot %" in stdout

    def test_zero_duration_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(["simulate", "--duration", "0", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_zero_step_scenario_rejected_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(["simulate", "--dt", "1", "--duration", "0.5", "--output", str(out)])
        assert code == 1
        assert not out.exists()
        assert "shorter than one step" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--controller", "fuzzy-pid", "--duration", "0.05"]
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # A path that starts with '-' follows its flag as it follows '='.
        monkeypatch.chdir(tmp_path)
        assert run_cli(args + ["--output", "-x.csv"]) == 0
        assert run_cli(args + ["--output=-y.csv"]) == 0
        assert (tmp_path / "-x.csv").read_bytes() == a.read_bytes()
        assert (tmp_path / "-y.csv").read_bytes() == a.read_bytes()

    def test_blow_up_exit_code(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli([
                "simulate", "--kp", "100", "--ki", "0", "--kd", "0",
                "--dt", "0.05", "--duration", "10", "--output", str(out),
            ])
        assert code == 2
        assert out.exists()
        assert "blow-up" in capsys.readouterr().err

    # Row 0's error r - y = 1e308 + 1e308 overflows, so no row is finite.
    # Where only the error rate overflows, at step 2, rows 0 and 1 are.
    @pytest.mark.parametrize(
        "controller, flags, rows",
        [
            ("pid", OVERFLOW_FLAGS, 0),
            ("fuzzy-pid", OVERFLOW_FLAGS, 0),
            ("pid", RATE_OVERFLOW_FLAGS, 2),
            ("fuzzy-pid", RATE_OVERFLOW_FLAGS, 2),
        ],
        ids=("pid", "fuzzy-pid", "pid-rate", "fuzzy-pid-rate"),
    )
    def test_overflowing_error_is_a_blow_up(self, tmp_path, capsys, controller, flags, rows):
        out = tmp_path / "partial.csv"
        code = run_cli(["simulate", "--controller", controller, *flags, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "numerical blow-up" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        lines = out.read_text("ascii").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + rows

    def test_unknown_flag_is_config_error(self, capsys):
        assert run_cli(["simulate", "--warp-speed", "9"]) == 1
        # Flags are not abbreviated, whatever the form of the value.
        for args in (["--setp", "-5e0"], ["--setp=-5e0"], ["--setp", "-5"]):
            capsys.readouterr()
            assert run_cli(["simulate", *args]) == 1, args
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_disturbance_after_end_rejected_without_output(self, tmp_path, capsys):
        # An input disturbance acts on the step after its time is reached, so
        # one at the last sample time of the default 0.5 s run never acts.
        out = tmp_path / "never.csv"
        for time in ("5", "0.5"):
            code = run_cli(["simulate", "--disturbance-time", time, "--disturbance-magnitude",
                            "0.001", "--output", str(out)])
            assert code == 1
            assert not out.exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"time {float(time)!r} never acts" in captured.err
            assert "up to 0.4999" in captured.err

    def test_output_disturbance_at_last_sample_moves_last_row(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        disturbed = tmp_path / "disturbed.csv"
        assert run_cli(["simulate", "--output", str(plain)]) == 0
        assert run_cli(["simulate", "--disturbance-time", "0.5", "--disturbance-magnitude",
                        "0.001", "--disturbance-port", "plant-output",
                        "--output", str(disturbed)]) == 0
        a = read_trajectory_csv(str(plain))
        b = read_trajectory_csv(str(disturbed))
        assert np.array_equal(a.y[:-1], b.y[:-1])
        assert b.y[-1] - a.y[-1] == pytest.approx(0.001, abs=1e-9)


class TestCompare:
    def test_zero_scaling_gives_identical_columns(self, capsys):
        code = run_cli([
            "compare", "--duration", "0.05",
            "--kup", "0", "--kui", "0", "--kud", "0",
        ])
        assert code == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            label, cells = line[:16], line[16:].split()
            assert len(cells) == 2
            assert cells[0] == cells[1], label

    def test_default_scenario_fuzzy_overshoots_less(self, capsys):
        assert run_cli(["compare"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("overshoot %"))
        pid_value, fuzzy_value = (float(v) for v in row[16:].split())
        assert fuzzy_value < pid_value

    # Every row of the shipped step and disturbance comparisons, to the last
    # printed digit: (label, pid, fuzzy-pid).
    @pytest.mark.parametrize(
        "flags, rows",
        [
            ([], [
                ("peak output", "5.555666191", "5.435461472"),
                ("peak time", "0.019600000", "0.026000000"),
                ("settling time", "0.117600000", "0.143200000"),
                ("rise time", "0.008600000", "0.011900000"),
                ("final value", "5.001045445", "5.001452559"),
                ("overshoot %", "11.090096099", "8.677657292"),
                ("settled", "yes", "yes"),
            ]),
            ([
                "--duration", "2", "--disturbance-time", "0.5", "--disturbance-magnitude", "0.001",
            ], [
                ("peak output", "5.555666191", "5.435461472"),
                ("peak time", "0.019600000", "0.026000000"),
                ("settling time", "0.579600000", "0.579700000"),
                ("rise time", "0.008600000", "0.011900000"),
                ("final value", "5.000000004", "4.999999759"),
                ("overshoot %", "11.113323733", "8.709234691"),
                ("settled", "yes", "yes"),
                ("peak deviation", "0.219776478", "0.208775468"),
            ]),
        ],
        ids=("step", "disturbance"),
    )
    def test_shipped_report(self, capsys, flags, rows):
        assert run_cli(["compare", *flags]) == 0
        expected = "".join(
            f"{label:<16}{pid:<20}{fuzzy:<20}\n"
            for label, pid, fuzzy in [("metric", "pid", "fuzzy-pid"), *rows]
        )
        assert capsys.readouterr().out == expected

    # A step down is a mirror image for PID, not for fuzzy-PID: its
    # consequents are mostly odd, so it gets the opposite gain corrections.
    @pytest.mark.parametrize(
        "setpoint, fuzzy_pin",
        [("5", "8.677657292"), ("-5", "10.992837332"), ("-2", "11.536418329")],
    )
    def test_overshoot_both_directions(self, capsys, setpoint, fuzzy_pin):
        assert run_cli(["compare", f"--setpoint={setpoint}"]) == 0
        out = capsys.readouterr().out
        rows = {line[:16].strip(): line[16:].split() for line in out.splitlines()}
        assert rows["overshoot %"] == ["11.090096099", fuzzy_pin]
        assert "peak output" in rows

    # README's sample-period table: overshoot %, PID and fuzzy-PID, with one
    # RK4 step per period, within criterion 06's tolerance of 0.1 pp.
    @pytest.mark.parametrize(
        "dt, pid_pin, fuzzy_pin",
        [("1e-4", 11.09, 8.68), ("1e-3", 12.87, 9.07), ("2e-3", 15.78, 9.51)],
    )
    def test_sample_period_overshoots(self, capsys, dt, pid_pin, fuzzy_pin):
        assert run_cli(["compare", "--dt", dt]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("overshoot %"))
        pid_value, fuzzy_value = (float(v) for v in row[16:].split())
        assert abs(pid_value - pid_pin) <= 0.1 and abs(fuzzy_value - fuzzy_pin) <= 0.1

    def test_disturbance_adds_peak_deviation_row(self, capsys):
        code = run_cli([
            "compare", "--duration", "0.2",
            "--disturbance-time", "0.1", "--disturbance-magnitude", "0.001",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert any(line.startswith("peak deviation") for line in out.splitlines())

    def test_disturbance_after_end_rejected(self, capsys):
        for time in ("5", "0.5"):
            code = run_cli(["compare", "--disturbance-time", time,
                            "--disturbance-magnitude", "0.001"])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"time {float(time)!r} never acts" in captured.err
            assert "up to 0.4999" in captured.err

    def test_output_disturbance_at_last_sample_moves_final_value(self, capsys):
        def final_values(args):
            assert run_cli(["compare"] + args) == 0
            out = capsys.readouterr().out
            row = next(line for line in out.splitlines() if line.startswith("final value"))
            return [float(v) for v in row[16:].split()]

        plain = final_values([])
        disturbed = final_values(["--disturbance-time", "0.5", "--disturbance-magnitude",
                                  "0.001", "--disturbance-port", "plant-output"])
        for a, b in zip(plain, disturbed):
            assert b - a == pytest.approx(0.001, abs=2e-9)

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["--setpoint", "0"],
            ["--disturbance-time", "0.02", "--disturbance-magnitude", "0.001"],
            [
                "--plant-num", " ".join(map(repr, ORDER_16_TF.num)),
                "--plant-den", " ".join(map(repr, ORDER_16_TF.den)),
            ],
        ],
        ids=("step", "zero-setpoint", "disturbance", "order-16"),
    )
    def test_columns_equal_simulate_cell_for_cell(self, tmp_path, capsys, args):
        args = ["--duration", "0.05", *args]

        def simulate(controller):
            output = str(tmp_path / f"{controller}.csv")
            argv = ["simulate", *args, "--controller", controller, "--output", output]
            assert run_cli(argv) == 0
            return capsys.readouterr().out.splitlines()

        pid, fuzzy = simulate("pid"), simulate("fuzzy-pid")
        assert run_cli(["compare", *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{'metric':<16}{'pid':<20}{'fuzzy-pid':<20}"
        assert len(lines) == len(pid) + 1 + ("--disturbance-time" in args)
        assert all(len(line) == 16 + 20 + 20 for line in lines)
        for line, pid_line, fuzzy_line in zip(lines[1:], pid, fuzzy):
            assert line[:16] == pid_line[:16] == fuzzy_line[:16]
            assert line[16:36].rstrip() == pid_line[16:]
            assert line[36:].rstrip() == fuzzy_line[16:]

    def test_no_disturbance_no_peak_row(self, capsys):
        assert run_cli(["compare", "--duration", "0.05"]) == 0
        out = capsys.readouterr().out
        assert not any(line.startswith("peak deviation") for line in out.splitlines())

    @pytest.mark.parametrize("kp, dt", [("100", "0.05"), ("0.011", "0.01")])
    def test_blow_up_exit_code(self, capsys, kp, dt):
        # Both loops run; the second case also overflows the fuzzy error rate.
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli([
                "compare", "--kp", kp, "--ki", "0", "--kd", "0",
                "--dt", dt, "--duration", "10",
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "numerical blow-up in pid run" in captured.err
        assert captured.out == ""

    def test_overflowing_error_is_a_blow_up(self, capsys):
        assert run_cli(["compare", *OVERFLOW_FLAGS]) == 2
        captured = capsys.readouterr()
        assert "numerical blow-up" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_negative_values_in_exponent_notation(self, capsys):
        args = ["compare", "--duration", "2", "--disturbance-time", "0.5"]
        assert run_cli(args + ["--disturbance-magnitude", "-1e-3"]) == 0
        spaced = capsys.readouterr().out
        assert run_cli(args + ["--disturbance-magnitude=-1e-3"]) == 0
        assert spaced == capsys.readouterr().out
        assert run_cli(["compare", "--duration", "0.05", "--setpoint", "-5e0"]) == 0
        spaced = capsys.readouterr().out
        assert run_cli(["compare", "--duration", "0.05", "--setpoint=-5e0"]) == 0
        assert spaced == capsys.readouterr().out
        # A coefficient list may start with a negative number: the pipeline
        # plant with both polynomials negated.
        assert run_cli(["compare", "--duration", "0.05"]) == 0
        plain = capsys.readouterr().out
        assert run_cli([
            "compare", "--duration", "0.05",
            "--plant-num", "-43956", "--plant-den", "-0.0037,-1,0",
        ]) == 0
        assert capsys.readouterr().out == plain
        # So may the keys' underscore spellings.
        assert run_cli([
            "compare", "--duration", "0.05",
            "--plant_num", "-43956", "--plant_den", "-0.0037,-1,0",
        ]) == 0
        assert capsys.readouterr().out == plain
        # The token after a value flag is its value, so one that is not a
        # number is reported as such.
        assert run_cli(["compare", "--setpoint", "-abc"]) == 1
        assert "setpoint: not a number: '-abc'" in capsys.readouterr().err


class TestRules:
    def test_default_dump(self, capsys):
        assert run_cli(["rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        assert lines[0].split(",")[0] == "PB/NB/PS"
        # Suspect cells are marked: (E=NM, EC=NS) and (E=NS, EC=PM).
        assert lines[2].split(",")[1] == "PM/NM/NB?"
        assert lines[5].split(",")[2] == "PS/PS/NS?"

    def test_dump_save_load_round_trip(self, tmp_path, capsys):
        assert run_cli(["rules"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "rules.txt"
        path.write_text(text, encoding="ascii")
        assert RuleTable.parse(path.read_text("ascii")) == DEFAULT_RULE_TABLE
        assert run_cli(["rules", "--rules-file", str(path)]) == 0
        assert capsys.readouterr().out == text
        assert run_cli(["rules", "--rules_file", str(path)]) == 0
        assert capsys.readouterr().out == text

    def test_missing_rules_file(self, tmp_path, capsys):
        assert run_cli(["rules", "--rules-file", str(tmp_path / "nope.txt")]) == 1


# Three-row t columns around the reader's interval tolerance,
# tol = 2e-9 + 4 * ulp(max |t|), and whether the reader accepts them.
# From t = 1.0 (ulp u = 2**-52, dt = 1e-4 to a multiple of u) the middle
# sample is off dt by 9007203 u, inside tol = 9007203.25 u, or by
# 9007204 u, outside tol but inside 2e-9 + 6 u. From t = 0 it is off
# dt = 3e-9 by exactly tol. A constant t has dt = 0.
TIME_AXES = {
    "inside-tolerance": ([1.0, 1.0001000020000008, 1.0002], True),
    "outside-tolerance": ([1.0, 1.000100002000001, 1.0002], False),
    "on-tolerance": ([0.0, 5.000000000000003e-09, 6e-09], True),
    "constant": ([1.0, 1.0, 1.0], False),
}


def check_time_axis(directory, t, accepted):
    """Read a CSV of the t column t, zeros elsewhere: t back, or the time-axis error."""
    path = directory / "axis.csv"
    path.write_text(CSV_HEADER + "\n" + "".join(f"{v!r},0,0,0,0,0,0,0\n" for v in t), "ascii")
    try:
        got = read_trajectory_csv(str(path)).t.tolist()
    except ConfigError as exc:
        got = str(exc)
    assert got == (t if accepted else "trajectory time axis t is not uniform and increasing")


# The row bound of the reader, cli.MAX_STEPS + 1 rows, is 10**7 + 1: it
# is tested at MAX_STEPS = 2, which allows three rows.
LOW_MAX_STEPS = 2


def check_row_length(directory):
    """A row of 2,567 characters, the longest the writer writes, reads; one
    of 2,568 is refused. The padding is leading zeros of the first t."""
    path = directory / "long.csv"
    refused = "trajectory file has a line longer than 2567 characters"
    for length, want in ((2567, 2), (2568, refused)):
        first = "0" * (length - 14) + ",0" * 7
        path.write_text(CSV_HEADER + "\n" + first + "\n1" + ",0" * 7 + "\n", "ascii")
        try:
            got = len(read_trajectory_csv(str(path)))
        except ConfigError as exc:
            got = str(exc)
        assert got == want, length


def check_row_bound(directory):
    """With cli.MAX_STEPS at LOW_MAX_STEPS: two and three rows read, four are
    refused, in short fields and in the writer's own."""
    path = directory / "bound.csv"
    refused = "trajectory file exceeds the bound of 3 data rows"
    for row in ("{},0,0,0,0,0,0,0\n", "{}.000000000" + ",0.000000000" * 7 + "\n"):
        for n_rows, want in ((2, 2), (3, 3), (4, refused)):
            path.write_text(CSV_HEADER + "\n" + "".join(map(row.format, range(n_rows))), "ascii")
            try:
                got = len(read_trajectory_csv(str(path)))
            except ConfigError as exc:
                got = str(exc)
            assert got == want, (row, n_rows)


class TestMetricsCommand:
    def test_recomputes_from_csv(self, tmp_path, capsys):
        # Nine decimals put each re-read sample within 5e-10 of the run's.
        # Overshoot is a difference of two samples over |y_final| / 100, and
        # each printed figure rounds by up to 5e-10 again, so the two
        # overshoots agree within 1e-9 + 1e-7 / |y_final|. The other figures
        # are samples, sample times or their differences, printed to the same
        # nine decimals, and come out equal here (a time figure can move by
        # one sample only when a sample lies within 5e-10 of its threshold).
        # At setpoint 1e7 the writer formats every chunk by %.9f.
        def figures(text):
            return {line[:16].strip(): line[16:] for line in text.splitlines()}

        for controller, setpoint in (("pid", "5"), ("fuzzy-pid", "5"), ("pid", "-2"),
                                     ("pid", "1e7")):
            out = tmp_path / f"{controller}-{setpoint}.csv"
            assert run_cli([
                "simulate", "--controller", controller, "--setpoint", setpoint,
                "--duration", "0.2", "--output", str(out),
            ]) == 0
            want = figures(capsys.readouterr().out)
            assert run_cli(["metrics", str(out)]) == 0
            got = figures(capsys.readouterr().out)
            assert len(want) == 7 and got.keys() == want.keys()
            bound = 1e-9 + 1e-7 / abs(float(want["final value"]))
            overshoot = "overshoot %"
            assert abs(float(got[overshoot]) - float(want[overshoot])) <= bound, setpoint
            del got[overshoot], want[overshoot]
            assert got == want, (controller, setpoint)

    def test_operand_after_double_dash(self, tmp_path, capsys, monkeypatch):
        # A path that starts with '-' follows a bare --, as for getopt.
        monkeypatch.chdir(tmp_path)
        write_trajectory_csv(run_closed_loop(presets.default_scenario()), "-x.csv")
        assert run_cli(["metrics", str(tmp_path / "-x.csv")]) == 0
        want = capsys.readouterr().out
        assert run_cli(["metrics", "--", "-x.csv"]) == 0
        assert capsys.readouterr().out == want

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["metrics", str(tmp_path / "gone.csv")]) == 1

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time,out\n1,2\n", encoding="ascii")
        assert run_cli(["metrics", str(path)]) == 1
        assert "must start with header" in capsys.readouterr().err

    def test_single_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        row = ",".join(["0.000000000"] * 8) + "\n"
        path.write_text(CSV_HEADER + "\n" + row, "ascii")
        with pytest.raises(ConfigError):
            read_trajectory_csv(str(path))
        assert run_cli(["metrics", str(path)]) == 1
        assert "two data rows" in capsys.readouterr().err
        # A blank line does not count as a second row.
        path.write_text(CSV_HEADER + "\n" + row + "\n", "ascii")
        with pytest.raises(ConfigError):
            read_trajectory_csv(str(path))

    def test_non_uniform_time_axis_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        assert run_cli(["simulate", "--duration", "0.01", "--output", str(path)]) == 0
        lines = path.read_text("ascii").splitlines()
        t = f"{float(lines[50].split(',')[0]) + 1e-8:.9f}"  # well past the 9-decimal rounding
        # (column, value, message): a non-uniform t, and non-finite y and u.
        for column, value, message in ((0, t, "not uniform"), (4, "nan", "finite"),
                                       (3, "inf", "finite")):
            fields = lines[50].split(",")
            fields[column] = value
            path.write_text("\n".join(lines[:50] + [",".join(fields)] + lines[51:]) + "\n", "ascii")
            with pytest.raises(ConfigError):
                read_trajectory_csv(str(path))
            capsys.readouterr()
            assert run_cli(["metrics", str(path)]) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("t, accepted", TIME_AXES.values(), ids=TIME_AXES)
    def test_time_axis_tolerance(self, tmp_path, t, accepted):
        check_time_axis(tmp_path, t, accepted)

    def test_row_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STEPS", LOW_MAX_STEPS)
        check_row_bound(tmp_path)

    def test_row_length_bound(self, tmp_path):
        check_row_length(tmp_path)

    def test_non_ascii_byte_in_last_row(self, tmp_path, capsys):
        # The byte lies far past the first 8 KiB that the header is read
        # from, so it is decoded while np.loadtxt draws the rows.
        path = tmp_path / "run.csv"
        assert run_cli(["simulate", "--duration", "0.1", "--output", str(path)]) == 0
        capsys.readouterr()
        path.write_bytes(path.read_bytes()[:-2] + b"\xff\n")
        assert run_cli(["metrics", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: cannot read trajectory file: 'ascii' codec can't decode byte 0xff"
        )
        assert "Traceback" not in captured.err


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "-scenario.cfg"
        cfg.write_text(
            "# demo scenario\n"
            "setpoint = 2.0\n"
            "duration = 0.02\n"
            "dt = 1e-4\n"
            "controller = pid\n"
            "kp = 0.004\n",
            encoding="ascii",
        )
        out = tmp_path / "run.csv"
        code = run_cli(["simulate", "--config", "-scenario.cfg", "--setpoint", "3.0",
                        "--output", str(out)])
        assert code == 0
        traj = read_trajectory_csv(str(out))
        assert traj.r[0] == 3.0  # flag beats file
        assert len(traj.t) == 201
        # A path that starts with '-' follows its flag as it follows '='.
        report = capsys.readouterr().out
        code = run_cli(["simulate", "--config=-scenario.cfg", "--setpoint", "3.0",
                        "--output", "eq.csv"])
        assert code == 0
        assert capsys.readouterr().out == report
        assert (tmp_path / "eq.csv").read_bytes() == out.read_bytes()

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("velocity = 9\n", encoding="ascii")
        with pytest.raises(ConfigError):
            load_config_file(str(cfg))

    def test_bad_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kp = fast\n", encoding="ascii")
        assert run_cli(["simulate", "--config", str(cfg)]) == 1

    def test_non_finite_number(self, capsys):
        assert run_cli(["simulate", "--setpoint", "inf"]) == 1

    def test_file_of_the_most_characters_runs(self, tmp_path, capsys):
        # Padded with a comment to 65,536 characters, cli.MAX_TEXT_CHARS.
        text = "duration = 0.01\n"
        cfg = tmp_path / "padded.cfg"
        cfg.write_text(text + "#" * (65536 - len(text)), "ascii")
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        assert len(read_trajectory_csv(str(out))) == 101

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["simulate", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_disturbance_needs_both_fields(self, capsys):
        assert run_cli(["compare", "--disturbance-time", "0.5"]) == 1

    def test_bad_disturbance_port(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(["simulate", "--disturbance-port", "bogus", "--disturbance-time", "1",
                        "--disturbance-magnitude", "1", "--output", str(out)])
        assert code == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_rules_file_override(self, tmp_path, capsys):
        # Rewrite the (E=PB, EC=ZO) cell, which fires on the first step of a
        # setpoint step, so the override must change the fuzzy run.
        text = DEFAULT_RULE_TABLE.dump().splitlines()
        entries = text[3].split(",")
        entries[6] = "PB/PB/PB"
        text[3] = ",".join(entries)
        path = tmp_path / "rules.txt"
        path.write_text("\n".join(text) + "\n", encoding="ascii")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["simulate", "--controller", "fuzzy-pid", "--duration", "0.02"]
        assert run_cli(base + ["--output", str(out_a)]) == 0
        assert run_cli(base + ["--rules-file", str(path), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_resolve_defaults(self):
        scenario, fuzzy, output = resolve_config({}, {})
        assert scenario.controller == PidConfig(gains=PidGains(0.0045, 0.05, 5e-6))
        assert (scenario.setpoint, scenario.duration, scenario.dt) == (5.0, 0.5, 1e-4)
        assert scenario.plant.num == (43956.0,)
        assert scenario.plant.den == (0.0037, 1.0, 0.0)
        assert scenario.disturbances == ()
        assert fuzzy == presets.default_fuzzy_controller()
        assert output == "trajectory.csv"
        fuzzy_scenario, _, _ = resolve_config({}, {"controller": "fuzzy-pid"})
        assert fuzzy_scenario.controller == fuzzy

    @pytest.mark.parametrize(
        "key", [key for key, (_, default) in CONFIG_KEYS.items() if default is not None]
    )
    def test_explicit_default_resolves_like_no_value(self, tmp_path, key):
        default = CONFIG_KEYS[key][1]
        if isinstance(default, float):
            text = repr(default)
        elif isinstance(default, tuple):
            text = " ".join(map(repr, default))
        else:
            text = default
        # A port is only accepted together with a disturbance.
        base = {}
        if key == "disturbance_port":
            base = {"disturbance_time": "0.1", "disturbance_magnitude": "0.001"}
        expected = resolve_config(base, {})
        cfg = tmp_path / "explicit.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="ascii")
        assert resolve_config({**base, **load_config_file(str(cfg))}, {}) == expected
        args = build_parser().parse_args(["simulate", f"--{key}", text])
        assert resolve_config(base, {key: getattr(args, key)}) == expected

    @pytest.mark.parametrize(
        "kp_source, setpoint_source, reverse",
        itertools.product(("file", "flag"), ("file", "flag"), (False, True)),
    )
    def test_first_bad_value_in_help_order_is_reported(
        self, tmp_path, capsys, kp_source, setpoint_source, reverse
    ):
        bad = [("kp", "fast", kp_source), ("setpoint", "slow", setpoint_source)]
        if reverse:
            bad.reverse()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "".join(f"{key} = {value}\n" for key, value, source in bad if source == "file"),
            encoding="ascii",
        )
        flags = [arg for key, value, source in bad if source == "flag"
                 for arg in (f"--{key}", value)]
        assert run_cli(["simulate", "--config", str(cfg), *flags]) == 1
        err = capsys.readouterr().err
        assert err == "error: setpoint: not a number: 'slow'\n"


# Values the writer's integer arithmetic does not cover, or that sit at the
# edge of it: ties of v * 1e9 such as 976562.5, products at or above 2**52,
# values that overflow it, non-finite values, the smallest subnormal, and
# products that round up to the next whole number. For two the float
# product rounds to another integer than the exact one: 0.9999999995, whose
# exact product lies just below the tie 999999999.5 that the float lands
# on and rint takes up, and 12345678.123456789, whose exact product
# 12345678123456789.18 has the float 12345678123456790, as floats past
# 2**53 are even. 4503599.627370496 times 1e9 is 2**52, the first product
# not covered, and 4.999999999999999e-10 times 1e9 is 0.5 - 2**-54, the
# largest below the tie 0.5, which x + 0.5 would round up to 1.0.
_FMT9_VALUES = (0.0009765625, -0.0009765625, 1e7, -1e20, 1e300, math.nan, math.inf,
                -math.inf, 5e-324, 0.9999999995, -9999999.999999999, 12345678.123456789,
                4503599.627370496, 4.999999999999999e-10, -4.999999999999999e-10)


def _writer_cases():
    """Trajectory columns by case name, for the CSV writer.

    Negative zero, negatives, values above 1e4 and below 1e-9 in size,
    over more rows than one write chunk; the same with the values of
    _FMT9_VALUES mixed in; then columns that hold one value on every row,
    and columns that nearly do. The writer formats a chunk by integer
    arithmetic only when that covers every value of the chunk, so cases
    also hold values it covers only: over two chunks, the second ending
    in a value it does not cover, and one row per value of _FMT9_VALUES
    among them. A row of ties, of which only +-0.0009765625 are exact,
    and a PID run at setpoint 1e7, where every chunk holds r and y past
    2**52 / 1e9, close the list.
    """
    values = np.array([-0.0, 0.0, -1.5, 12345.678901234, 3e-10, -4e-10, 1e-12,
                       -2.5e-9, 98765.4321, -7.0000000004, 0.1234567895])
    n = _CSV_CHUNK_ROWS + 3
    mixed = [np.resize(np.roll(values, shift), n) for shift in range(8)]
    # -2.5e-9 and 0.1234567895 times 1e9 are ties in float64.
    covered = np.delete(values, [7, 10])
    exact = [np.resize(np.roll(covered, shift), n) for shift in range(8)]
    exact_then_not = [column.copy() for column in exact]
    exact_then_not[5][-1] = 0.1234567895
    one_each = {
        f"fmt9-value-{i}-among-exact": [
            np.array([v if column == i % 8 else covered[column]]) for column in range(8)
        ]
        for i, v in enumerate(_FMT9_VALUES)
    }
    ties = [0.0009765625, -0.0009765625, 0.9999999995, -0.9999999995, 0.1234567895,
            -0.1234567895, 2.5e-9, -2.5e-9]
    far = replace(presets.default_scenario(), setpoint=1e7)
    edges = np.concatenate([values, _FMT9_VALUES])
    with_edges = [np.resize(np.roll(edges, 3 * shift), n) for shift in range(8)]
    last_row_differs = np.full(n, 2.5)
    last_row_differs[-1] = -3.0
    constants = [
        np.full(n, -0.0),
        np.resize([-0.0, 0.0], n),
        last_row_differs,
        np.full(n, -7.0000000004),
    ]
    return {
        "varying": mixed,
        "fmt9-values": with_edges,
        "fmt9-values-only": [np.array(_FMT9_VALUES) for _ in range(8)],
        "constant-columns": mixed[:4] + constants,
        "every-column-constant": [np.full(n, v) for v in values[:8]],
        "one-row": [values[i : i + 1] for i in range(8)],
        "no-rows": [np.empty(0) for _ in range(8)],
        "exact": exact,
        "exact-then-tie": exact_then_not,
        **one_each,
        "ties-only": [np.array([v]) for v in ties],
        "pid-setpoint-1e7": list(run_closed_loop(far).data),
    }


class TestTrajectoryCsvIO:
    def test_round_trip(self, tmp_path):
        scenario = SimScenario(
            setpoint=5.0, duration=0.01, dt=1e-4,
            controller=PidConfig(gains=PidGains(0.0045, 0.05, 5e-6)),
        )
        traj = run_closed_loop(scenario)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, str(path))
        again = read_trajectory_csv(str(path))
        assert np.allclose(again.y, traj.y, atol=5e-10)
        assert np.allclose(again.t, traj.t, atol=5e-10)

    def test_writer_bytes_equal_per_value_format(self, tmp_path):
        for case, columns in _writer_cases().items():
            path = tmp_path / f"{case}.csv"
            write_trajectory_csv(Trajectory(np.array(columns)), str(path))
            expected = CSV_HEADER + "\n" + "".join(
                ",".join(_fmt9(float(v)) for v in row) + "\n" for row in zip(*columns)
            )
            assert path.read_bytes() == expected.encode("ascii"), case

    @given(
        values=st.lists(
            st.one_of(
                st.floats(),
                st.floats(min_value=-1e7, max_value=1e7),
                # Halfway between two nine-decimal values.
                st.integers(-(10**16), 10**16).map(lambda k: (k + 0.5) / 1e9),
            ),
            min_size=8,
            max_size=8 * 13,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_writer_bytes_equal_per_value_format_for_any_floats(self, tmp_path_factory, values):
        # Up to 13 rows of arbitrary float64 values, written 4 rows a chunk,
        # so that they end inside a chunk or on its end, after up to 3 chunks,
        # by the writer's C path where its library builds or loads and by its
        # Python path.
        rows = np.array(values[: len(values) // 8 * 8]).reshape(-1, 8)
        path = tmp_path_factory.getbasetemp() / "any-floats.csv"
        expected = CSV_HEADER + "\n" + "".join(
            ",".join(_fmt9(float(v)) for v in row) + "\n" for row in rows
        )
        for pinned in (contextlib.nullcontext(), python_csv()):
            with pinned, mock.patch.object(cli, "_CSV_CHUNK_ROWS", 4):
                write_trajectory_csv(Trajectory(rows.T), str(path))
            assert path.read_bytes() == expected.encode("ascii")

    @pytest.mark.parametrize(
        "setpoint, rows", [(5.0, 100_001), (1e7, 10_001)], ids=("setpoint-5", "setpoint-1e7")
    )
    def test_writer_memory_is_bounded_by_the_chunk(self, tmp_path, setpoint, rows):
        # The writer formats one chunk of rows at a time, so it peaks below
        # 1 MiB; formatting the columns whole would take it past the bound.
        # At setpoint 5 that takes the 100k-row PID run (6.4 MB of columns):
        # the C formatter's whole output buffer, 19 bytes a value, would be
        # only 1.46 MiB on a 10k-row run. At setpoint 1e7 every chunk holds
        # values the integer arithmetic does not cover, and is formatted by
        # one %-format, which on the 10k-row run peaks at 0.76 MiB a chunk
        # at a time and at 7.35 MiB whole.
        scenario = SimScenario(
            setpoint=setpoint, duration=(rows - 1) * 1e-4, dt=1e-4,
            controller=presets.default_pid_config(),
        )
        traj = run_closed_loop(scenario)
        assert len(traj) == rows
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, str(tmp_path / "m.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    # Each line ends in newline, the last in end: a file of CRLF or CR
    # lines, and one whose last row has no line end.
    @pytest.mark.parametrize(
        "newline, end",
        [(b"\r\n", b"\r\n"), (b"\r", b"\r"), (b"\n", b"")],
        ids=("crlf", "cr", "lf-unended"),
    )
    def test_line_endings_read_the_same(self, tmp_path, newline, end):
        lf = tmp_path / "lf.csv"
        write_trajectory_csv(run_closed_loop(presets.default_scenario()), str(lf))
        other = tmp_path / "other.csv"
        other.write_bytes(lf.read_bytes()[:-1].replace(b"\n", newline) + end)
        want = read_trajectory_csv(str(lf)).data.tobytes()
        assert read_trajectory_csv(str(other)).data.tobytes() == want

    def test_reader_memory_is_bounded_by_the_result(self, tmp_path):
        # np.loadtxt parses the rows as the reader draws them, so reading
        # the 20,001-row PID disturbance run (1.28 MB of values) peaks near
        # 1.5 MiB; reading the text whole and splitting it into lines first
        # took it to 4.8 MiB.
        path = tmp_path / "d.csv"
        write_trajectory_csv(run_closed_loop(presets.disturbance_scenario()), str(path))
        tracemalloc.start()
        try:
            traj = read_trajectory_csv(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 20_001
        assert peak < traj.data.nbytes + 2**19

    @pytest.mark.parametrize("header", [True, False], ids=("header", "row"))
    def test_reader_memory_is_bounded_on_a_long_line(self, tmp_path, header):
        # A 1 MiB header or data row is refused after one read of the file,
        # so the reader never holds the line whole.
        long_line = "0" * 2**20 + "\n"
        path = tmp_path / "long.csv"
        path.write_text(long_line if header else CSV_HEADER + "\n" + long_line, "ascii")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                read_trajectory_csv(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**17


def pin_python_csv(monkeypatch):
    """Make the CSV writer and reader take their Python paths, as on a
    host with no C library."""
    monkeypatch.setattr(_native, "format_rows", lambda: None)
    monkeypatch.setattr(_native, "parse_rows", lambda: None)


@contextlib.contextmanager
def python_csv():
    """A context in which the CSV takes its Python paths (pin_python_csv)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        pin_python_csv(monkeypatch)
        yield


class TestTrajectoryCsvIOInPython(TestTrajectoryCsvIO):
    """Every test of TestTrajectoryCsvIO through the Python writer and
    reader, which TestTrajectoryCsvIO checks only where there is no C library."""

    @pytest.fixture(autouse=True)
    def pinned(self, monkeypatch):
        pin_python_csv(monkeypatch)

    # It runs both writers itself, and hypothesis runs a test from one class only.
    test_writer_bytes_equal_per_value_format_for_any_floats = None

    # Every chunk takes the %-format here: a chunk at a time peaks at
    # 0.41 MiB, the 10,001-row run formatted whole at 3.99 MiB. 100,001
    # rows under tracemalloc would make it the slowest test of the suite.
    @pytest.mark.parametrize("setpoint, rows", [(5.0, 10_001)], ids=("setpoint-5",))
    def test_writer_memory_is_bounded_by_the_chunk(self, tmp_path, setpoint, rows):
        super().test_writer_memory_is_bounded_by_the_chunk(tmp_path, setpoint, rows)


def c_csv():
    """Skip the test where no library builds, so the CSV takes its Python paths only."""
    if _native.format_rows() is None:
        pytest.skip("no C compiler and no cached library: the CSV takes the Python paths")


def spy(monkeypatch, name):
    """Count the calls of the function name of cli in the list returned."""
    calls = []
    original = getattr(cli, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(cli, name, counted)
    return calls


def outcome(read, path):
    """The bytes of the data that read reads from path, or its ConfigError message."""
    try:
        return read(str(path)).data.tobytes()
    except ConfigError as exc:
        return str(exc)


# Trajectories by group, each written and read through both paths: the
# runs of the presets, the PID run at setpoint 1e7, in which the C
# formatter refuses every chunk and the C parser every file, and the
# blow-up runs of the bit manifest, of one row or of values far past 1e7.
CSV_GROUPS = {
    "presets": lambda: map(run_closed_loop, bits._presets()),
    "setpoint-1e7": lambda: [run_closed_loop(replace(presets.default_scenario(), setpoint=1e7))],
    "blow-ups": lambda: map(run_closed_loop, bits._blow_ups()),
}


@pytest.mark.parametrize("group", CSV_GROUPS)
def test_c_and_python_paths_give_the_same_bytes(tmp_path, monkeypatch, group):
    c_csv()
    formatted, parsed = spy(monkeypatch, "_csv_rows"), spy(monkeypatch, "_parsed_rows")
    c_file, python_file = tmp_path / "c.csv", tmp_path / "python.csv"
    for traj in CSV_GROUPS[group]():
        del formatted[:], parsed[:]
        write_trajectory_csv(traj, str(c_file))
        got = outcome(read_trajectory_csv, c_file)
        # Every value of these runs is below 2**52 / 1e9 in size or at
        # least 1e7, and C refuses the runs that hold a value of 1e7 or more.
        far = bool(np.any(np.abs(traj.data) >= 1e7))
        chunks = -(-len(traj) // _CSV_CHUNK_ROWS)
        assert formatted == ["_csv_rows"] * (chunks if far else 0)
        assert parsed == ["_parsed_rows"] * (far or len(traj) < 2)
        with python_csv():
            write_trajectory_csv(traj, str(python_file))
            assert python_file.read_bytes() == c_file.read_bytes()
            assert outcome(read_trajectory_csv, c_file) == got


@given(
    columns=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-1e7, max_value=1e7),
        ),
        min_size=7 * 2,
        max_size=7 * 13,
    )
)
@settings(max_examples=150, deadline=None)
def test_c_and_python_readers_read_any_finite_values_the_same(tmp_path_factory, columns):
    # Up to 13 rows of finite values on a uniform time axis, read by the
    # C parser where the file is in its form, else by np.loadtxt, and by
    # np.loadtxt: the same bits, those of float() of each field.
    values = np.array(columns[: len(columns) // 7 * 7]).reshape(-1, 7)
    t = np.arange(len(values)) * 1e-4
    path = tmp_path_factory.getbasetemp() / "any-finite.csv"
    write_trajectory_csv(Trajectory(np.column_stack([t, values]).T), str(path))
    fields = [line.split(",") for line in path.read_text("ascii").splitlines()[1:]]
    want = np.array([[float(field) for field in row] for row in fields]).tobytes()
    assert read_trajectory_csv(str(path)).data.T.tobytes() == want
    with python_csv():
        assert read_trajectory_csv(str(path)).data.T.tobytes() == want


# A field of the y column and whether the C parser reads it: the largest
# integer of digits below 2**53 and 2**53 itself, seven and eight whole
# digits, and -0.0.
EDGE_FIELDS = {
    "below-2-to-the-53": ("9007199.254740991", True),
    "2-to-the-53": ("9007199.254740992", False),
    "seven-whole-digits": ("-1234567.000000001", True),
    "eight-whole-digits": ("12345678.000000001", False),
    "minus-zero": ("-0.000000000", True),
}


def check_edge_fields(directory, monkeypatch):
    """Read files of EDGE_FIELDS and of CRLF and CR lines by the path each
    names, to the bits of np.loadtxt and float()."""
    c_csv()
    parsed = spy(monkeypatch, "_parsed_rows")
    path = directory / "edge.csv"

    def text(y, newline=b"\n"):
        zero = "0.000000000"
        rows = ([zero] * 4 + [y] + [zero] * 3, ["0.000100000"] + [zero] * 7)
        lines = [CSV_HEADER, *map(",".join, rows)]
        return b"".join(line.encode("ascii") + newline for line in lines)

    files = {name: (text(field), by_c) for name, (field, by_c) in EDGE_FIELDS.items()}
    files["crlf"] = (text("0.000000000", b"\r\n"), False)
    files["cr"] = (text("0.000000000", b"\r"), False)
    for name, (content, by_c) in files.items():
        path.write_bytes(content)
        del parsed[:]
        got = read_trajectory_csv(str(path)).y
        assert parsed == ([] if by_c else ["_parsed_rows"]), name
        with python_csv():
            assert read_trajectory_csv(str(path)).y.tobytes() == got.tobytes(), name
        if name in EDGE_FIELDS:
            assert got[0].tobytes() == np.float64(EDGE_FIELDS[name][0]).tobytes(), name


def test_edge_fields_take_their_paths(tmp_path, monkeypatch):
    check_edge_fields(tmp_path, monkeypatch)


def test_unended_file_is_not_parsed_in_c(tmp_path, monkeypatch):
    # The file of test_line_endings_read_the_same[lf-unended]: its last row
    # has no LF, which the C parser would refuse only after every row.
    c_csv()
    parse, calls = _native.parse_rows(), []

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(_native, "parse_rows", lambda: counted)
    lf, unended = tmp_path / "lf.csv", tmp_path / "unended.csv"
    write_trajectory_csv(run_closed_loop(presets.default_scenario()), str(lf))
    unended.write_bytes(lf.read_bytes()[:-1])
    want = read_trajectory_csv(str(lf)).data.tobytes()
    assert calls
    del calls[:]
    assert read_trajectory_csv(str(unended)).data.tobytes() == want
    assert calls == []


def check_formatter_refusals():
    """The C formatter refuses a block exactly where its integer arithmetic
    (see sprayflow_format_rows in `_loop.c`) does not cover one of its values."""
    c_csv()
    for v in (*_FMT9_VALUES, -0.0, 1.5, -7.0000000004, 0.1234567895, 9007199.254740991):
        x = v * 1e9
        with np.errstate(invalid="ignore"):
            covered = abs(x) < 2.0**52 and abs(x - np.rint(x)) != 0.5
        out = bytearray(2 * 8 * _native.FIELD_BYTES)
        assert (_native.format_rows()(np.full((2, 8), v), out) >= 0) == covered, v


def test_c_formatter_refuses_what_the_arithmetic_does_not_cover():
    check_formatter_refusals()


RULE_ROW = ",".join(["ZO/ZO/ZO"] * 7)


# (argv with {tmp} for the test directory, {file name: text}, stderr fragment)
CONFIG_ERRORS = {
    "malformed-trajectory-row": (
        ["metrics", "{tmp}/bad.csv"],
        {"bad.csv": CSV_HEADER + "\n" + ",".join(["x"] * 8) + "\n" + ",".join(["0"] * 8) + "\n"},
        "malformed trajectory row",
    ),
    "config-line-without-equals": (
        ["simulate", "--config", "{tmp}/bad.cfg"],
        {"bad.cfg": "setpoint 5\n"},
        "expected key = value",
    ),
    "empty-plant-num": (["simulate", "--plant-num", ""], {}, "empty coefficient list"),
    "plant-order-above-bound": (
        ["compare", "--plant-num", "1", "--plant-den", " ".join(["1"] + ["0"] * 17)],
        {},
        "plant order 17 exceeds the bound of 16",
    ),
    # Finite coefficients whose RK4 step overflows: the step is all nan
    # before the first sample, so this is bad input, not a blow-up.
    "plant-step-not-finite": (
        ["compare", "--duration", "0.01", "--plant-den", "1 1e300 1"],
        {},
        "den=(1.0, 1e+300, 1.0) at dt=0.0001 is not finite",
    ),
    "unknown-controller": (["compare", "--controller", "bang-bang"], {}, "'bang-bang'"),
    "port-without-disturbance": (
        ["simulate", "--disturbance-port", "plant-output"], {}, "disturbance_port given",
    ),
    "rules-file-six-lines": (
        ["rules", "--rules-file", "{tmp}/rules.txt"],
        {"rules.txt": "\n".join([RULE_ROW] * 6) + "\n"},
        "bad rules file",
    ),
    "rules-cell-not-a-triple": (
        ["simulate", "--controller", "fuzzy-pid", "--rules-file", "{tmp}/rules.txt"],
        {"rules.txt": "\n".join([RULE_ROW.replace("ZO/ZO/ZO", "ZO/ZO", 1)] + [RULE_ROW] * 6)
         + "\n"},
        "bad rules file",
    ),
    "config-file-too-long": (
        ["simulate", "--config", "{tmp}/long.cfg"],
        {"long.cfg": "#" * 65537},
        "config file exceeds 65536 characters",
    ),
    "rules-file-too-long": (
        ["rules", "--rules-file", "{tmp}/long.txt"],
        {"long.txt": "#" * 65537},
        "rules file exceeds 65536 characters",
    ),
    "config-not-a-regular-file": (
        ["simulate", "--config", "/dev/null", "--output", "{tmp}/never.csv"],
        {},
        "not a regular file",
    ),
    "rules-file-not-a-regular-file": (
        ["rules", "--rules-file", "/dev/null"], {}, "not a regular file",
    ),
    "trajectory-not-a-regular-file": (["metrics", "/dev/null"], {}, "not a regular file"),
    "trajectory-empty": (["metrics", "{tmp}/e.csv"], {"e.csv": ""}, "must start with header"),
    "trajectory-header-only": (
        ["metrics", "{tmp}/h.csv"], {"h.csv": CSV_HEADER + "\n"}, "two data rows",
    ),
    # np.loadtxt would skip the blank line and read two rows. This case
    # comes before the next: where blank lines are read, np.loadtxt warns
    # there of no data, an error in the tests, which would end the reader
    # gate of test_mutants before this case.
    "trajectory-blank-line-between-rows": (
        ["metrics", "{tmp}/g.csv"],
        {"g.csv": CSV_HEADER + "\n0" + ",0" * 7 + "\n\n1" + ",0" * 7 + "\n"},
        "no blank lines",
    ),
    # The reader refuses the first blank line it reads, once np.loadtxt has
    # parsed the lines ahead of it.
    "trajectory-malformed-row-before-blank-line": (
        ["metrics", "{tmp}/n.csv"],
        {"n.csv": CSV_HEADER + "\n0" + ",0" * 7 + "\n1" + ",x" * 7 + "\n\n2" + ",0" * 7 + "\n"},
        "malformed trajectory row",
    ),
    "trajectory-blank-lines-only": (
        ["metrics", "{tmp}/b.csv"], {"b.csv": CSV_HEADER + "\n\n\n"}, "no blank lines",
    ),
    # np.loadtxt parses a line before it draws the next, so the malformed
    # row is reported before the file is found one row short.
    "trajectory-one-malformed-row": (
        ["metrics", "{tmp}/m.csv"],
        {"m.csv": CSV_HEADER + "\n" + ",".join(["x"] * 8) + "\n"},
        "malformed trajectory row",
    ),
    # \v is no line break: the first line holds 15 fields.
    "trajectory-row-split-by-vt": (
        ["metrics", "{tmp}/v.csv"],
        {"v.csv": CSV_HEADER + "\n" + "\v".join(["0" + ",0" * 7, "1" + ",0" * 7]) + "\n"
         + "2" + ",0" * 7 + "\n"},
        "malformed trajectory row",
    ),
    # Rows of one field too few each parse to an array of the wrong width.
    "trajectory-rows-of-seven-fields": (
        ["metrics", "{tmp}/s.csv"],
        {"s.csv": CSV_HEADER + "\n0" + ",0" * 6 + "\n1" + ",0" * 6 + "\n"},
        "trajectory rows must have 8 fields, not 7",
    ),
    # t - t[0] and an interval overflow to inf.
    "trajectory-time-axis-past-float-range": (
        ["metrics", "{tmp}/w.csv"],
        {"w.csv": CSV_HEADER + "\n-1.7e308" + ",0" * 7 + "\n1.7e308" + ",0" * 7 + "\n"},
        "not uniform and increasing",
    ),
    "unwritable-output": (
        ["simulate", "--duration", "0.01", "--output", "{tmp}/missing/run.csv"],
        {},
        "cannot write output file",
    ),
    # --he is not taken for --help, before a subcommand or after one.
    "abbreviated-help": (["--he"], {}, "required: command"),
    "abbreviated-help-of-metrics": (["metrics", "--he"], {}, "required: csv_path"),
    # After a bare --, --output is the path and x.csv an operand too many;
    # joined to --output, the two would read a file named --output=x.csv.
    "value-flag-after-double-dash": (
        ["metrics", "--", "--output", "x.csv"], {}, "unrecognized arguments: x.csv",
    ),
}


@pytest.mark.parametrize("argv, files, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_error_exits_1(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text, "ascii")
    assert run_cli([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_cached_parser_parses_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main parses every argv with one parser per process; help, a parse
    # error and a good argv, in turn and twice over, give the output and
    # exit code that a parser built for each call gives.
    monkeypatch.chdir(tmp_path)
    argvs = [["--help"], ["simulate", "--kp"], ["compare", "--duration", "0.01"]] * 2

    def outcomes():
        got = []
        for argv in argvs:
            code = run_cli(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cached = outcomes()
    assert [code for code, _, _ in cached] == [0, 1, 0] * 2
    assert build_parser() is build_parser()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert outcomes() == cached


def run_python(args, cwd):
    """Run Python in a fresh process that imports this checkout's package."""
    src = Path(sprayflow.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )


# Running the module exits through entry_point, the console script's function.
@pytest.mark.parametrize(
    "argv, code, stream, first_line",
    [
        (["rules"], 0, "stdout", "PB/NB/PS"),
        (["--he"], 1, "stderr", "error: "),
        (["simulate", *OVERFLOW_FLAGS, "--output", "b.csv"], 2, "stderr", "numerical blow-up"),
    ],
    ids=("ok", "config-error", "blow-up"),
)
def test_console_entry_point_runs(tmp_path, argv, code, stream, first_line):
    result = run_python(["-m", "sprayflow.cli", *argv], tmp_path)
    assert result.returncode == code, result.stderr
    assert getattr(result, stream).startswith(first_line)


# Imports the package, builds the shipped scenarios, dumps the rule table
# and exits 1 on a plant of order 17, all without loading numpy; then one
# run, whose columns are numpy arrays, loads it.
_NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
import sprayflow
from sprayflow import cli, presets
scenario = presets.default_scenario(presets.default_fuzzy_controller())
presets.disturbance_scenario()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["rules"]) == 0
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["compare", "--plant-num", "1", "--plant-den", "1" + " 0" * 17])
assert code == 1 and "plant order 17" in err.getvalue(), (code, err.getvalue())
assert "numpy" not in sys.modules
sprayflow.run_closed_loop(scenario)
assert "numpy" in sys.modules
"""


def test_import_scenarios_rules_and_config_errors_load_no_numpy(tmp_path):
    result = run_python(["-c", _NUMPY_FREE_SCRIPT], tmp_path)
    assert result.returncode == 0, result.stderr


# numpy is the one runtime dependency: compare, simulate and metrics load
# no test dependency.
_NO_TEST_DEPENDENCY_SCRIPT = """
import contextlib, io, sys
from sprayflow.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["compare", "--duration", "0.05"]) == 0
    assert main(["simulate", "--duration", "0.05", "--output", "m.csv"]) == 0
    assert main(["metrics", "m.csv"]) == 0
loaded = {"scipy", "hypothesis", "pytest"} & set(sys.modules)
assert not loaded, loaded
"""


def test_subcommands_load_no_test_dependency(tmp_path):
    result = run_python(["-c", _NO_TEST_DEPENDENCY_SCRIPT], tmp_path)
    assert result.returncode == 0, result.stderr
