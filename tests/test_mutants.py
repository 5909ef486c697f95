"""Mutant catalogue of the generated code and of the plant's RK4 map.

The loop, the plant step, the inference and the rule kernels are written
as source text and compiled at one point, `sprayflow._codegen.define`.
Each mutant here is a text edit of the source that one of those builders
emits, made by a source-editing `exec` set on `_codegen`. It must be
killed by the fast gate that guards that builder: the gate, an existing
test run on fresh inputs, must fail an assertion. Every rule table a gate
uses is built for the mutant, and the caches of `harness._loop` and
`fuzzy._inference` are cleared before and after it, so no mutant kernel,
loop or inference outlives its test.

The plant's RK4 map is plain Python, not generated code. Each mutant of
`MAP_MUTANTS` is a text edit of the source of `plant.rk4_zoh`, executed
in a copy of the module's namespace; the function it defines replaces
`rk4_zoh` in `test_plant` while the gate runs, and must be killed by it
in the same way. The trajectory reader, `cli.read_trajectory_csv`, the
line checks of `cli._data_lines` and the line reads of
`cli._line_batches`, is plain Python too, and its mutants in
`READER_MUTANTS` are made and run the same way against `test_cli`, as are the mutants of the CSV writer's `cli._csv_rows` in
`WRITER_MUTANTS` and those of the command line's value rule,
`cli._attach_values`, in `VALUE_MUTANTS`. The clip-height table
`fuzzy._RULE_HEIGHTS` is built at import, so each mutant of
`fuzzy._rule_heights` in `HEIGHT_MUTANTS` rebuilds it while its gate runs.

Mutants known to be equivalent are listed in `EQUIVALENT` with the
reason; they are not run. Out of scope: mutants of `_compile_kernel`'s
logic that are no single edit of its output (a label clipped at the
smallest instead of the largest index of its rules, an overlap at the
larger instead of the smaller of two indices).
"""
import ast
import inspect
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sprayflow
from sprayflow import _codegen, cli, fuzzy, harness, plant
from sprayflow.adaptive import FuzzyPidController
from sprayflow.fuzzy import RuleTable
from sprayflow.plant import MAX_ORDER

import test_cli
import test_fuzzy
import test_harness
import test_plant


def fresh(table):
    """A copy of a rule table with none of its kernels built."""
    return RuleTable(cells=table.cells, suspect=table.suspect)


def quarter_lattice():
    """`test_fuzzy::TestBitwiseReference::test_quarter_lattice`, all its tables."""
    for table in test_fuzzy.QUARTER_LATTICE_TABLES.values():
        test_fuzzy.TestBitwiseReference().test_quarter_lattice(fresh(table))


def fine_lattice():
    """`test_fuzzy::TestBitwiseReference::test_fine_lattice`, all its tables."""
    for table in test_fuzzy.TABLES.values():
        test_fuzzy.TestBitwiseReference().test_fine_lattice(fresh(table))


def hand_stepping(*ids):
    """A gate of the named cases of `test_harness::TestRunClosedLoop`'s
    `test_equals_hand_stepping_bitwise`."""
    def gate():
        for case in ids:
            scenario = test_harness.HAND_CASES[case]
            controller = scenario.controller
            if isinstance(controller, FuzzyPidController):
                controller = replace(controller, table=fresh(controller.table))
            test_harness.TestRunClosedLoop().test_equals_hand_stepping_bitwise(
                replace(scenario, controller=controller)
            )
    gate.__doc__ = f"`test_harness::TestRunClosedLoop`'s hand-stepping cases {', '.join(ids)}"
    return gate


two_per_port = hand_stepping("pid-two-per-port", "fuzzy-two-per-port")


def compiled_step():
    """`test_plant::TestCompiledStepBitwise`: random steps of every order, then RK4 steps."""
    gate = test_plant.TestCompiledStepBitwise()
    for n in (1, 2, 3, 4, MAX_ORDER):
        gate.test_random_steps(n)
    gate.test_rk4_steps()


def swap(a, b):
    """An edit that exchanges the texts a and b."""
    return lambda source: source.replace(a, "\0").replace(b, a).replace("\0", b)


def in_moments(edit):
    """An edit applied to the moment sums of a kernel only, not to its masses.

    A kernel returns one line `(moment) / mass,` per output, and no moment
    holds the text ") / ".
    """
    def apply(source):
        lines = []
        for line in source.splitlines():
            if ") / " in line:
                moment, mass = line.rsplit(") / ", 1)
                line = f"{edit(moment)}) / {mass}"
            lines.append(line)
        return "\n".join(lines)
    return apply


def drop_in_place_state(source):
    """Write each next state entry straight into x{i}, not via n{i}."""
    source = re.sub(r"\n *x\d+ = n\d+(?=\n)", "", source)
    return re.sub(r"\bn(\d+) = ", r"x\1 = ", source)


# name: (builder, edit, gate). builder is the name of the function whose
# source the edit rewrites: "loop" (`harness._loop`), "factory"
# (`plant.compile_step`), "infer" (`fuzzy._inference`) or "kernel"
# (`fuzzy._compile_kernel`).
MUTANTS = {
    # The order of addition fixes the bits once both act (see _TWO_PER_PORT).
    "input-disturbances-reversed": (
        "loop", swap("if k >= us0: u += um0", "if k >= us1: u += um1"), two_per_port
    ),
    "output-disturbances-reversed": (
        "loop", swap("if k >= ys0: y += ym0", "if k >= ys1: y += ym1"), two_per_port
    ),
    # Sum-table indices off by one.
    "P-index-minus-one": (
        "kernel", lambda s: re.sub(r"P\[(floor\([^]]*\))\]", r"P[\1 - 1]", s), quarter_lattice
    ),
    # On the quarter lattice every clip height is a multiple of 1/200, where
    # the ramp point at the clip sums the same as a plateau point.
    "F-index-minus-one": (
        "kernel", lambda s: re.sub(r"F\[(floor\([^]]*\))\]", r"F[\1 - 1]", s), fine_lattice
    ),
    "R-index-plus-one": (
        "kernel", lambda s: re.sub(r"R\[(floor\([^]]*\))\]", r"R[\1 + 1]", s), quarter_lattice
    ),
    # Only the midpoints -1.0 and 1.0 fold exactly.
    "midpoint-3.0-folded-as-1.0": (
        "kernel", lambda s: s.replace(" - 3.0 * overlap_", " - overlap_"), quarter_lattice
    ),
    "midpoint-minus-3.0-folded-as-minus-1.0": (
        "kernel", lambda s: s.replace(" - -3.0 * overlap_", " + overlap_"), quarter_lattice
    ),
    "fold-of-1.0-sign-swapped": (
        "kernel",
        in_moments(lambda m: m.replace(" - overlap_", " + overlap_")),
        quarter_lattice,
    ),
    "fold-of-minus-1.0-sign-swapped": (
        "kernel",
        in_moments(lambda m: m.replace(" + overlap_", " - overlap_")),
        quarter_lattice,
    ),
    # The leading 0.0 turns a sum of -0.0 terms into 0.0.
    "step-without-leading-zero": (
        "factory", lambda s: s.replace(" = 0.0 + ", " = "), compiled_step
    ),
    "step-state-updated-in-place": ("factory", drop_in_place_state, compiled_step),
    "loop-step-without-leading-zero": (
        "loop",
        lambda s: s.replace(" = 0.0 + ", " = "),
        hand_stepping("pid-negative-gain-at-rest"),
    ),
    "loop-state-updated-in-place": (
        "loop", drop_in_place_state, hand_stepping("pid-order-3", "fuzzy-order-3")
    ),
}


def fma(x, y, z):
    """x * y + z with one rounding, emulated exactly through Fraction."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


def order_16_map():
    """`test_plant::TestRk4Zoh::test_order_16_map_bits`"""
    test_plant.TestRk4Zoh().test_order_16_map_bits()


# name: (edit of the source of `plant.rk4_zoh`, gate).
MAP_MUTANTS = {
    # The second product of an entry of term . hA fused with the sum of
    # the first, as a compiler that contracts to FMA would compute it.
    "map-dot-fused-multiply-add": (
        lambda s: s.replace(
            "0.0 + row[j - 1] * dt + row[-1] * last[j]",
            "fma(row[-1], last[j], 0.0 + row[j - 1] * dt)",
        ),
        order_16_map,
    ),
}


def reader_cases(directory):
    """`test_cli::TestMetricsCommand`'s `test_row_bound`, `test_row_length_bound`
    and `test_time_axis_tolerance`, then the cases of
    `test_config_error_exits_1` that read a trajectory file, each read by
    `read_trajectory_csv`.

    The caller lowers `cli.MAX_STEPS` to `test_cli.LOW_MAX_STEPS`.
    """
    test_cli.check_row_bound(directory)
    test_cli.check_row_length(directory)
    for t, accepted in test_cli.TIME_AXES.values():
        test_cli.check_time_axis(directory, t, accepted)
    for argv, files, message in test_cli.CONFIG_ERRORS.values():
        if argv[0] == "metrics" and files:
            (name, text), = files.items()
            path = directory / name
            path.write_text(text, "ascii")
            got = ""
            try:
                test_cli.read_trajectory_csv(str(path))
            except cli.ConfigError as exc:
                got = str(exc)
            assert message in got, name


READ, LINES, BATCHES = cli.read_trajectory_csv, cli._data_lines, cli._line_batches

# name: (READ, LINES or BATCHES, edit of its source), killed by reader_cases.
READER_MUTANTS = {
    "interval-tolerance-3e-9": (READ, lambda s: s.replace("tol = 2e-9 +", "tol = 3e-9 +")),
    "interval-tolerance-6-ulp": (
        READ, lambda s: s.replace(" 4.0 * np.spacing", " 6.0 * np.spacing")
    ),
    "interval-tolerance-minus-4-ulp": (READ, lambda s: s.replace("2e-9 + 4.0", "2e-9 - 4.0")),
    "interval-strictly-inside-tolerance": (READ, lambda s: s.replace("<= tol", "< tol")),
    "dt-from-sum-of-ends": (READ, lambda s: s.replace("t[-1] - t[0]", "t[-1] + t[0]")),
    "dt-zero-accepted": (READ, lambda s: s.replace("dt > 0", "dt >= 0")),
    "two-rows-refused": (LINES, lambda s: s.replace("n < 2", "n < 3")),
    "count-starts-at-1": (LINES, lambda s: s.replace("n = 0\n", "n = 1\n")),
    "batches-counted-not-lines": (LINES, lambda s: s.replace("n += len(lines)", "n += 1")),
    "blank-check-inverted": (LINES, lambda s: s.replace('"" in lines', '"" not in lines')),
    "blank-line-refused-before-the-lines-ahead": (
        LINES, lambda s: s.replace('yield from lines[: lines.index("")]', "pass")
    ),
    "blank-line-refused-after-one-line-less": (
        LINES, lambda s: s.replace('lines.index("")]', 'lines.index("") - 1]')
    ),
    # A blank line as it reads in binary mode, CR before the LF split off:
    # the file is read as text, which ends every line in LF, so no blank
    # line is caught.
    "blank-line-as-crlf": (LINES, lambda s: s.replace('"" in lines', '"\\r" in lines')),
    "row-bound-minus-one": (LINES, lambda s: s.replace("MAX_STEPS + 1", "MAX_STEPS")),
    "row-bound-plus-half": (LINES, lambda s: s.replace("MAX_STEPS + 1", "MAX_STEPS + 1.5")),
    "row-bound-plus-one": (LINES, lambda s: s.replace("MAX_STEPS + 1", "MAX_STEPS + 2")),
    "row-bound-refused": (LINES, lambda s: s.replace("n > most", "n >= most")),
    "longest-row-refused": (
        BATCHES, lambda s: s.replace("> _MAX_ROW_CHARS", ">= _MAX_ROW_CHARS")
    ),
    "row-length-bound-plus-one": (
        BATCHES, lambda s: s.replace("> _MAX_ROW_CHARS", "> _MAX_ROW_CHARS + 1")
    ),
}


def writer_cases(directory):
    """`test_cli::TestTrajectoryCsvIO::test_writer_bytes_equal_per_value_format`"""
    test_cli.TestTrajectoryCsvIO().test_writer_bytes_equal_per_value_format(directory)


# name: edit of the source of `cli._csv_rows`, killed by writer_cases. The
# first three widen what the integer arithmetic formats, and a chunk of
# values it covers but one of _FMT9_VALUES kills each.
WRITER_MUTANTS = {
    "bound-3-to-the-52": lambda s: s.replace("< 2.0**52", "< 3.0**52"),
    "tie-distance-0.75": lambda s: s.replace("!= 0.5", "!= 0.75"),
    "tie-distance-from-sum": lambda s: s.replace("np.abs(x - n)", "np.abs(x + n)"),
    # Only a chunk of ties takes the arithmetic, which the row of ties kills.
    "ties-only-exact": lambda s: s.replace("!= 0.5", "== 0.5"),
    "sign-byte-divided": lambda s: s.replace('(values < 0) * ord("-")', '(values < 0) / ord("-")'),
    "minus-zero-signed": lambda s: s.replace("(values < 0)", "(values <= 0)"),
    "fallback-keeps-minus-zero": lambda s: s.replace("values + 0.0", "values - 0.0"),
}

# Equivalent mutants, by name: the reason. Not run, and not counted.
EQUIVALENT = {
    # infer and loop: the ladder's cuts `if s < k:` as `if s <= k:`.
    "ladder-cuts-s-le-k": (
        "s == k then locates at label k - 1 with degree 1.0 for label k, the same "
        "memberships; the rules of row k - 1 fire at 0.0, whose terms change no bit"
    ),
    # factory and loop: each `0.0 + a + b` as `sum((a, b))`.
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
    # writer: the bound `np.abs(x) < 2.0**52` as `np.abs(x) < 2.0**53`.
    "writer-bound-2-to-the-53": (
        "floats in [2**52, 2**53) are the integers, so there x = n and x is the "
        "exact product rounded to an integer, ties to even, as _fmt9 rounds it; "
        "the whole part stays below 10**7"
    ),
    # writer: the same bound as `np.abs(x) <= 2.0**52`.
    "writer-bound-at-2-to-the-52": (
        "an exact product whose float is 2**52 lies in [2**52 - 0.25, 2**52 + 0.5], "
        "which rounds to the integer 2**52, ties to even"
    ),
    # writer: the slot width `whole_digits + 12` as `whole_digits + 13`.
    "writer-slot-one-byte-wider": (
        "the extra byte, before the sign, stays NUL and is dropped with the others"
    ),
    # quantize: the clamp `x < UNIVERSE_MIN` as `x <= UNIVERSE_MIN`.
    "quantize-clamps-at-minimum": "at x = -6.0 both branches return -6.0, with the same bits",
    # quantize: the clamp `x > UNIVERSE_MAX` as `x >= UNIVERSE_MAX`.
    "quantize-clamps-at-maximum": "at x = 6.0 both branches return 6.0, with the same bits",
}


@pytest.fixture
def mutate(monkeypatch):
    """Compile every source of one builder with an edit; report if any changed."""
    edited = []

    def install(builder, edit):
        def mutating_exec(source, namespace):
            if source.startswith(f"def {builder}("):
                mutant = edit(source)
                edited.append(mutant != source)
                source = mutant
            exec(source, namespace)

        monkeypatch.setattr(_codegen, "exec", mutating_exec, raising=False)
        return edited

    harness._loop.cache_clear()
    fuzzy._inference.cache_clear()
    yield install
    harness._loop.cache_clear()
    fuzzy._inference.cache_clear()


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name, mutate):
    builder, edit, gate = MUTANTS[name]
    edited = mutate(builder, edit)
    try:
        gate()
    except AssertionError:
        killed = True
    else:
        killed = False
    assert any(edited), f"{name} edits no source of {builder}"
    assert killed, f"{name} survives {gate.__doc__}"


def define_mutant(name, func, edit, **names):
    """The function that an edit of func's source defines in a copy of its module's namespace."""
    source = inspect.getsource(func)
    mutant = edit(source)
    assert mutant != source, f"{name} edits no source of {func.__module__}.{func.__name__}"
    namespace = {**vars(inspect.getmodule(func)), **names}
    exec(mutant, namespace)
    return namespace[func.__name__]


@pytest.mark.parametrize("name", MAP_MUTANTS)
def test_map_mutant_is_killed(name, monkeypatch):
    edit, gate = MAP_MUTANTS[name]
    monkeypatch.setattr(test_plant, "rk4_zoh", define_mutant(name, plant.rk4_zoh, edit, fma=fma))
    with pytest.raises(AssertionError):
        gate()


@pytest.mark.parametrize("name", READER_MUTANTS)
def test_reader_mutant_is_killed(name, monkeypatch, tmp_path):
    func, edit = READER_MUTANTS[name]
    # define_mutant copies the namespace of cli, so the row bound is lowered first.
    monkeypatch.setattr(cli, "MAX_STEPS", test_cli.LOW_MAX_STEPS)
    monkeypatch.setattr(cli, func.__name__, define_mutant(name, func, edit))
    monkeypatch.setattr(test_cli, "read_trajectory_csv", cli.read_trajectory_csv)
    with pytest.raises(AssertionError):
        reader_cases(tmp_path)


@pytest.mark.parametrize("name", WRITER_MUTANTS)
def test_writer_mutant_is_killed(name, monkeypatch, tmp_path):
    # The mutant's source is compiled here, without the postponed
    # annotations of its module, so its `np.ndarray` annotation needs np.
    mutant = define_mutant(name, cli._csv_rows, WRITER_MUTANTS[name], np=np)
    monkeypatch.setattr(cli, "_csv_rows", mutant)
    with pytest.raises(AssertionError):
        writer_cases(tmp_path)


def value_cases(tmp_path, capsys, monkeypatch):
    """`test_cli::TestCompare::test_negative_values_in_exponent_notation`,
    `test_cli::TestMetricsCommand::test_operand_after_double_dash` and the
    case "value-flag-after-double-dash" of `test_config_error_exits_1`."""
    test_cli.TestCompare().test_negative_values_in_exponent_notation(capsys)
    test_cli.TestMetricsCommand().test_operand_after_double_dash(tmp_path, capsys, monkeypatch)
    argv, files, message = test_cli.CONFIG_ERRORS["value-flag-after-double-dash"]
    test_cli.test_config_error_exits_1(tmp_path, capsys, argv, files, message)


# name: edit of the source of `cli._attach_values`, killed by value_cases.
VALUE_MUTANTS = {
    "single-dash-token-left-apart": lambda s: s.replace('startswith("--")', 'startswith("-")'),
    "only-long-options-attached": lambda s: s.replace(" not token.", " token."),
    "double-dash-not-checked": lambda s: s.replace('token == "--"', "token is None"),
    "double-dash-dropped": lambda s: s.replace("argv[i:]", "argv[i + 1:]"),
}


@pytest.mark.parametrize("name", VALUE_MUTANTS)
def test_value_mutant_is_killed(name, monkeypatch, capsys, tmp_path):
    mutant = define_mutant(name, cli._attach_values, VALUE_MUTANTS[name])
    monkeypatch.setattr(cli, "_attach_values", mutant)
    with pytest.raises(AssertionError):
        value_cases(tmp_path, capsys, monkeypatch)


# name: edit of the source of `fuzzy._rule_heights`, killed by
# `test_fuzzy::test_rule_heights_index_each_fired_rules_strength`.
HEIGHT_MUTANTS = {
    # A fifth height, which no kernel reads: only the table shows it.
    "five-rules": lambda s: s.replace("range(4)", "range(5)"),
    "e-small-inverted": lambda s: s.replace("(n >> 1) != e_right", "(n >> 1) == e_right"),
    "ec-small-inverted": lambda s: s.replace("(n & 1) != ec_right", "(n & 1) == ec_right"),
}


@pytest.mark.parametrize("name", HEIGHT_MUTANTS)
def test_height_mutant_is_killed(name, monkeypatch):
    mutant = define_mutant(name, fuzzy._rule_heights, HEIGHT_MUTANTS[name])
    monkeypatch.setattr(fuzzy, "_RULE_HEIGHTS", tuple(map(mutant, range(8))))
    with pytest.raises(AssertionError):
        test_fuzzy.test_rule_heights_index_each_fired_rules_strength()


def test_generated_code_has_one_compile_point():
    # exec, eval and compile are called in _codegen.define only, so every
    # generated function passes the point where the mutants are made.
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
    assert calls == [("_codegen.py", "exec")]
