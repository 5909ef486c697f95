"""Mutant catalogue of the package's arithmetic, in Python and in C.

Each entry of `MUTANTS` is a text edit of one source and the gate that
must kill it: an existing test, run on fresh inputs, must fail an
assertion. The edit's target is of one of two kinds.

- "c", the C library: the edit rewrites `_loop.c` into a file of the
  test's own, which `_native` compiles into a cache directory of the
  test's own. Runs take the mutant C loop, and the CSV writer and reader
  its C paths.
- A function of the package. The edit rewrites its source, which is
  compiled with postponed annotations, as its module is, and run in that
  module's own namespace, where the module's callers look the name up.
  Every other module global bound to the original, such as a test
  module's `from sprayflow.cli import read_trajectory_csv`, is bound to
  the mutant too. One name is added to the namespace for the test,
  `fma`, which an edit may call.

Runs of a function's mutant take the plain Python loop (`harness._loop`
returns `harness._plain_loop`) and the Python CSV writer and reader
(`test_cli.pin_python_csv`), whose code the edits reach. The plain loop
and stepping by hand (`test_harness.hand_stepped`) call the same
`plant.step` and `fuzzy.infer`, so a mutant of those moves both alike:
its gate compares with a reference of `_oracles` or with the C loop
(`test_native.assert_engines_agree`), which no Python edit reaches.
`monkeypatch` restores every name it set, so the original function is
back after the test. The caches of `_native` are cleared before and
after each mutant, so no mutant library outlives its test. A gate takes
the pytest fixtures it needs as its parameters.

Mutants known to be equivalent are listed in `EQUIVALENT` with the
reason; they are not run.
"""
import __future__
import ast
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sprayflow
from sprayflow import _native, cli, fuzzy, harness, plant
from sprayflow.plant import MAX_ORDER

import test_bits
import test_cli
import test_fuzzy
import test_harness
import test_native
import test_plant


def quarter_lattice():
    """`test_fuzzy::TestBitwiseReference::test_quarter_lattice`, all its tables."""
    for table in test_fuzzy.QUARTER_LATTICE_TABLES.values():
        test_fuzzy.TestBitwiseReference().test_quarter_lattice(table)


def cell_interiors():
    """`test_fuzzy::TestBitwiseReference::test_cell_interiors`, all its tables."""
    for table in test_fuzzy.TABLES.values():
        test_fuzzy.TestBitwiseReference().test_cell_interiors(table)


def hand_stepping(*ids):
    """A gate of the named cases of `test_harness::TestRunClosedLoop`'s
    `test_equals_hand_stepping_bitwise`."""
    def gate():
        for case in ids:
            test_harness.TestRunClosedLoop().test_equals_hand_stepping_bitwise(
                test_harness.HAND_CASES[case]
            )
    gate.__doc__ = f"`test_harness::TestRunClosedLoop`'s hand-stepping cases {', '.join(ids)}"
    return gate


two_per_port = hand_stepping("pid-two-per-port", "fuzzy-two-per-port")


def engines_on(*ids):
    """A gate of `test_native.assert_engines_agree` on the named cases of
    `test_harness.HAND_CASES`."""
    def gate():
        for case in ids:
            test_native.assert_engines_agree(test_harness.HAND_CASES[case])
    gate.__doc__ = f"the C loop and the plain loop on the hand-stepping cases {', '.join(ids)}"
    return gate


def compiled_step():
    """`test_plant::TestCompiledStepBitwise`: random steps of every order, then RK4 steps."""
    gate = test_plant.TestCompiledStepBitwise()
    for n in (1, 2, 3, 4, MAX_ORDER):
        gate.test_random_steps(n)
    gate.test_rk4_steps()


def order_16_map():
    """`test_plant::TestRk4Zoh::test_order_16_map_bits`"""
    test_plant.TestRk4Zoh().test_order_16_map_bits()


def reader_cases(tmp_path, monkeypatch):
    """`test_cli::TestMetricsCommand`'s `test_row_bound`, `test_row_length_bound`
    and `test_time_axis_tolerance`, then the cases of
    `test_config_error_exits_1` that read a trajectory file, each read by
    `read_trajectory_csv`."""
    monkeypatch.setattr(cli, "MAX_STEPS", test_cli.LOW_MAX_STEPS)
    test_cli.check_row_bound(tmp_path)
    test_cli.check_row_length(tmp_path)
    for t, accepted in test_cli.TIME_AXES.values():
        test_cli.check_time_axis(tmp_path, t, accepted)
    for argv, files, message in test_cli.CONFIG_ERRORS.values():
        if argv[0] == "metrics" and files:
            (name, text), = files.items()
            path = tmp_path / name
            path.write_text(text, "ascii")
            got = ""
            try:
                cli.read_trajectory_csv(str(path))
            except cli.ConfigError as exc:
                got = str(exc)
            assert message in got, name


def unended_last_line(tmp_path):
    """`test_cli::TestTrajectoryCsvIO::test_line_endings_read_the_same[lf-unended]`"""
    test_cli.TestTrajectoryCsvIO().test_line_endings_read_the_same(tmp_path, b"\n", b"")


def writer_cases(tmp_path):
    """`test_cli::TestTrajectoryCsvIO::test_writer_bytes_equal_per_value_format`"""
    test_cli.TestTrajectoryCsvIO().test_writer_bytes_equal_per_value_format(tmp_path)


def value_cases(tmp_path, capsys, monkeypatch):
    """`test_cli::TestCompare::test_negative_values_in_exponent_notation`,
    `test_cli::TestMetricsCommand::test_operand_after_double_dash` and the
    case "value-flag-after-double-dash" of `test_config_error_exits_1`."""
    test_cli.TestCompare().test_negative_values_in_exponent_notation(capsys)
    test_cli.TestMetricsCommand().test_operand_after_double_dash(tmp_path, capsys, monkeypatch)
    argv, files, message = test_cli.CONFIG_ERRORS["value-flag-after-double-dash"]
    test_cli.test_config_error_exits_1(tmp_path, capsys, argv, files, message)


# The groups of runs of the bit manifest, cheapest first, since a group's
# digest is compared once all its runs are done. Without the CSV files and
# the sweep, which take about 1 s per mutant through the plain loop.
RUN_GROUPS = ("blow-ups", "integer-gains", "plant-orders", "disturbances", "presets")


def engines():
    """`test_bits::test_group_keeps_its_bits` on the groups of runs but the
    sweep, through the engine that `harness._loop` picks, then
    `test_native::test_engines_give_the_same_bytes`, every group."""
    for group in RUN_GROUPS:
        test_bits.test_group_keeps_its_bits(group)
    for group in test_native.SCENARIOS:
        test_native.test_engines_give_the_same_bytes(group)


def c_writer_cases(tmp_path):
    """`test_cli::TestTrajectoryCsvIO::test_writer_bytes_equal_per_value_format`
    and `test_cli::test_c_formatter_refuses_what_the_arithmetic_does_not_cover`"""
    writer_cases(tmp_path)
    test_cli.check_formatter_refusals()


def edge_fields(tmp_path, monkeypatch):
    """`test_cli::test_edge_fields_take_their_paths`"""
    test_cli.check_edge_fields(tmp_path, monkeypatch)


def sub(old, new):
    """An edit that replaces the text old by new."""
    return lambda source: source.replace(old, new)


def fma(x, y, z):
    """x * y + z with one rounding, emulated exactly through Fraction."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


READ, LINES = cli.read_trajectory_csv, cli._data_lines

# The in-place mutant of `plant.step`: each next state entry written over
# the state, where the following rows read it.
_NEXT_STATE = "    x = [dot(row, xu) for row in rows]\n"
_IN_PLACE = "    for i, row in enumerate(rows):\n        xu[i] = dot(row, xu)\n    x = xu[:-1]\n"

# name: (target, edit, gate); the target is "c" or a function.
MUTANTS = {
    # The plain loop, `harness._plain_loop`. The order of addition fixes the
    # bits once both disturbances of a port act (see _TWO_PER_PORT).
    "input-disturbances-reversed": (
        harness._plain_loop, sub("in u_dists:", "in reversed(u_dists):"), two_per_port
    ),
    "output-disturbances-reversed": (
        harness._plain_loop, sub("in y_dists:", "in reversed(y_dists):"), two_per_port
    ),
    # The twin of c-input-disturbance-one-step-late.
    "input-disturbance-one-step-late": (harness._plain_loop, sub("k >= us", "k > us"), engines),
    # The plant step, `plant.dot` and `plant.step`, which stepping by hand
    # and the plain loop share: each mutant once against
    # `_oracles.advance`, and once as the loop's against the C loop. A
    # sum from -0.0 is a sum without the leading 0.0, which turns a sum
    # of -0.0 terms into 0.0.
    "step-without-leading-zero": (plant.dot, sub("acc = 0.0", "acc = -0.0"), compiled_step),
    "step-state-updated-in-place": (plant.step, sub(_NEXT_STATE, _IN_PLACE), compiled_step),
    "loop-step-without-leading-zero": (
        plant.dot, sub("acc = 0.0", "acc = -0.0"), engines_on("pid-negative-gain-at-rest")
    ),
    "loop-state-updated-in-place": (
        plant.step, sub(_NEXT_STATE, _IN_PLACE), engines_on("pid-order-3", "fuzzy-order-3")
    ),
    # The twin of c-dot-right-to-left.
    "dot-right-to-left": (
        plant.dot, sub("in zip(a, x, strict=True)", "in reversed(list(zip(a, x, strict=True)))"),
        engines,
    ),
    # The inference, `fuzzy.infer`: the degrees of one input's two labels
    # exchanged, and a label clipped at the smallest strength of the rules
    # that name it, not the largest. test_cell_interiors fires every rule,
    # so no label is left at a zero height.
    "e-small-inverted": (fuzzy.infer, sub("= 1.0 - w, w,", "= w, 1.0 - w,"), quarter_lattice),
    "ec-small-inverted": (fuzzy.infer, sub("1.0 - v, v\n", "v, 1.0 - v\n"), quarter_lattice),
    "label-clipped-at-smallest-strength": (
        fuzzy.infer,
        sub("if strength > heights[label]:", "if not heights[label] or strength < heights[label]:"),
        cell_interiors,
    ),
    # The centroid, `fuzzy.centroid`: its sum-table indices off by one, and
    # the twin of c-overlap-clipped-at-larger-height.
    "P-index-minus-one": (
        fuzzy.centroid, sub("int(_N - _N * h)]", "int(_N - _N * h) - 1]"), quarter_lattice
    ),
    "R-index-plus-one": (fuzzy.centroid, sub("int(_N * g)]", "int(_N * g) + 1]"), quarter_lattice),
    "overlap-clipped-at-larger-height": (
        fuzzy.centroid, sub("prev if prev < h", "prev if prev > h"), engines
    ),
    # The plant's RK4 map: the second product of an entry of term . hA
    # fused with the sum of the first, as a compiler that contracts to FMA
    # would compute it.
    "map-dot-fused-multiply-add": (
        plant.rk4_zoh,
        sub(
            "0.0 + row[j - 1] * dt + row[-1] * last[j]",
            "fma(row[-1], last[j], 0.0 + row[j - 1] * dt)",
        ),
        order_16_map,
    ),
    # The trajectory reader: `cli.read_trajectory_csv` and the line reads
    # and checks of `cli._data_lines`.
    "interval-tolerance-3e-9": (READ, sub("tol = 2e-9 +", "tol = 3e-9 +"), reader_cases),
    "interval-tolerance-6-ulp": (READ, sub(" 4.0 * np.spacing", " 6.0 * np.spacing"), reader_cases),
    "interval-tolerance-minus-4-ulp": (READ, sub("2e-9 + 4.0", "2e-9 - 4.0"), reader_cases),
    "interval-strictly-inside-tolerance": (READ, sub("<= tol", "< tol"), reader_cases),
    "dt-from-sum-of-ends": (READ, sub("t[-1] - t[0]", "t[-1] + t[0]"), reader_cases),
    "dt-zero-accepted": (READ, sub("dt > 0", "dt >= 0"), reader_cases),
    "two-rows-refused": (LINES, sub("n < 2", "n < 3"), reader_cases),
    "count-starts-at-1": (LINES, sub("n = 0\n", "n = 1\n"), reader_cases),
    "blank-check-inverted": (LINES, sub("if not line:", "if line:"), reader_cases),
    # A blank line as it reads in binary mode, CR before the LF split off:
    # the file is read as text, which ends every line in LF, so no blank
    # line is caught.
    "blank-line-as-crlf": (LINES, sub("if not line:", 'if line == "\\r":'), reader_cases),
    "row-bound-minus-one": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS"), reader_cases),
    "row-bound-plus-half": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS + 1.5"), reader_cases),
    "row-bound-plus-one": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS + 2"), reader_cases),
    "row-bound-refused": (LINES, sub("n > most", "n >= most"), reader_cases),
    "longest-row-refused": (LINES, sub("> _MAX_ROW_CHARS", ">= _MAX_ROW_CHARS"), reader_cases),
    "row-length-bound-plus-one": (
        LINES, sub("> _MAX_ROW_CHARS", "> _MAX_ROW_CHARS + 1"), reader_cases
    ),
    # A read of one character less splits the longest row the writer
    # writes from its LF, which then reads as a blank line.
    "readline-limit-one-less": (
        LINES, sub("readline(_MAX_ROW_CHARS + 1)", "readline(_MAX_ROW_CHARS)"), reader_cases
    ),
    "last-line-without-end-dropped": (
        LINES,
        sub("while line := fh.readline(_MAX_ROW_CHARS + 1):",
            'while (line := fh.readline(_MAX_ROW_CHARS + 1)).endswith("\\n"):'),
        unended_last_line,
    ),
    # The CSV writer's Python path, `cli._csv_rows`: -0.0 must print unsigned.
    "fallback-keeps-minus-zero": (
        cli._csv_rows, sub("ravel() + 0.0", "ravel() - 0.0"), writer_cases
    ),
    # The command line's value rule, `cli._attach_values`.
    "single-dash-token-left-apart": (
        cli._attach_values, sub('startswith("--")', 'startswith("-")'), value_cases
    ),
    "only-long-options-attached": (cli._attach_values, sub(" not token.", " token."), value_cases),
    "double-dash-not-checked": (
        cli._attach_values, sub('token == "--"', "token is None"), value_cases
    ),
    "double-dash-dropped": (cli._attach_values, sub("argv[i:]", "argv[i + 1:]"), value_cases),
    # The C loop, `_loop.c`: a compiler that contracts to FMA, a reordered
    # sum, a disturbance one step late, the overlap clipped at the larger
    # height, and a float where a double belongs.
    "c-dot-fused-multiply-add": (
        "c", sub("acc += a[j] * x[j];", "acc = fma(a[j], x[j], acc);"), engines
    ),
    "c-dot-right-to-left": (
        "c", sub("for (int64_t j = 0; j < n; j++)", "for (int64_t j = n - 1; j >= 0; j--)"), engines
    ),
    "c-input-disturbance-one-step-late": ("c", sub("k >= us[n]", "k > us[n]"), engines),
    "c-overlap-clipped-at-larger-height": (
        "c", sub("prev < h ? prev : h", "prev > h ? prev : h"), engines
    ),
    "c-rate-single-precision": ("c", sub("double rate =", "float rate ="), engines),
    # The CSV formatter and parser of `_loop.c`. rint rounds ties to even;
    # a rounding of half away from zero as trunc(x + 0.5 * sign) also moves
    # x = 0.5 - 2**-54, which x + 0.5 rounds up to 1.0. (round() in place of
    # rint moves only ties, which both refuse.)
    "c-half-away-from-zero": (
        "c", sub("double n = rint(x);", "double n = trunc(x + copysign(0.5, x));"), c_writer_cases
    ),
    "c-bound-at-2-to-the-52": (
        "c", sub("fabs(x) < 0x1p52", "fabs(x) <= 0x1p52"), c_writer_cases
    ),
    "c-minus-zero-signed": ("c", sub("if (v < 0.0)", "if (v <= 0.0)"), c_writer_cases),
    "c-parser-bound-above-2-to-the-53": (
        "c", sub("n >= EXACT_LIMIT", "n > EXACT_LIMIT"), edge_fields
    ),
    "c-parser-sign-dropped": ("c", sub("negative ? -v : v", "v"), edge_fields),
}

# Equivalent mutants, by name: the reason. Not run, and not counted.
EQUIVALENT = {
    # locate: the clamps `s < 0.0` and `s > 6.0` as `s <= 0.0` and `s >= 6.0`.
    "locate-clamps-at-the-edges": (
        "at s = 0.0 and s = 6.0 both branches leave s as it is, and s is never -0.0"
    ),
    # dot: the loop as `sum(p * q for p, q in zip(a, x))`.
    "step-by-builtin-sum": (
        "before CPython 3.12, sum() of floats adds left to right from the int 0, and "
        "0 + -0.0 is 0.0, so it gives the bits of the leading 0.0; from 3.12 on it is "
        "compensated and not equivalent"
    ),
    # map: each entry of term . hA as `0.0 + row[-1] * last[j] + row[j - 1] * dt`.
    "map-products-swapped": (
        "the addition of two floats is commutative, and adding either product to "
        "the leading 0.0 first gives the same sum"
    ),
    # map: each entry of term . hA without its leading `0.0 + `.
    "map-entry-without-leading-zero": (
        "it changes only the sign of an entry that is zero, and a zero's sign never "
        "reaches Phi or Gamma, whose sums start at +0.0 or 1.0"
    ),
    # quantize: the clamp `x < UNIVERSE_MIN` as `x <= UNIVERSE_MIN`.
    "quantize-clamps-at-minimum": "at x = -6.0 both branches return -6.0, with the same bits",
    # quantize: the clamp `x > UNIVERSE_MAX` as `x >= UNIVERSE_MAX`.
    "quantize-clamps-at-maximum": "at x = 6.0 both branches return 6.0, with the same bits",
}


def install(target, edit, monkeypatch, tmp_path):
    """Install the edit of a target; return, per source it rewrote so
    far, whether the edit changed it."""
    edited = []
    if target == "c":
        source = _native.SOURCE.read_text("ascii")
        mutant = edit(source)
        edited.append(mutant != source)
        path = tmp_path / "c-mutant" / _native.SOURCE.name
        path.parent.mkdir()
        path.write_text(mutant, "ascii")
        monkeypatch.setattr(_native, "SOURCE", path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(path.parent))
        return edited
    monkeypatch.setattr(harness, "_loop", lambda: harness._plain_loop)
    test_cli.pin_python_csv(monkeypatch)
    source = inspect.getsource(target)
    mutant = edit(source)
    edited.append(mutant != source)
    name, namespace = target.__name__, vars(sys.modules[target.__module__])
    monkeypatch.setitem(namespace, name, target)
    monkeypatch.setitem(namespace, "fma", fma)
    flags = __future__.annotations.compiler_flag
    exec(compile(mutant, f"<mutant of {name}>", "exec", flags, dont_inherit=True), namespace)
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is target:
            monkeypatch.setattr(module, name, namespace[name])
    return edited


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, monkeypatch, request, tmp_path):
    target, edit, gate = MUTANTS[name]
    caches = test_native.NATIVE_CACHES
    for cache in caches:
        cache.cache_clear()
    try:
        edited = install(target, edit, monkeypatch, tmp_path)
        fixtures = map(request.getfixturevalue, inspect.signature(gate).parameters)
        try:
            gate(*fixtures)
        except AssertionError:
            killed = True
        else:
            killed = False
    finally:
        for cache in caches:
            cache.cache_clear()
    assert any(edited), f"{name} edits no source of {getattr(target, '__name__', target)}"
    assert killed, f"{name} survives {gate.__doc__}"


def test_package_calls_no_exec_eval_or_compile():
    # Every function of the package is written out in its source, where
    # the mutants above can reach it.
    calls = []
    package = Path(sprayflow.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = func.attr if func.value.id == "builtins" else None
            else:
                name = getattr(func, "id", None)
            if name in ("exec", "eval", "compile"):
                calls.append((path.relative_to(package).as_posix(), name))
    assert calls == []
