"""Mutant catalogue of the generated code and of the hand-written arithmetic.

Each entry of `MUTANTS` is a text edit of one source and the gate that
must kill it: an existing test, run on fresh inputs, must fail an
assertion. The edit's target is of one of three kinds.

- A builder, named by the function it emits: "loop"
  (`harness._python_loop`), "factory" (`plant.compile_step`), "infer"
  (`fuzzy._inference`) or "kernel" (`fuzzy._compile_kernel`). Generated
  code is compiled at one point, `sprayflow._codegen.define`, so the edit
  rewrites each source of that builder through an `exec` set on
  `_codegen`.
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

Runs of every other target take the Python loop (`harness._loop` is
pinned to `harness._python_loop`) and the Python CSV writer and reader
(`test_cli.pin_python_csv`), whose code the edits reach. `monkeypatch`
restores every name it set, so the original function is back after the
test. Every rule table a gate uses is built for the mutant, and the
caches of `harness._python_loop`, `fuzzy._inference` and `_native` are
cleared before and after it, so no mutant kernel, loop, inference or
library outlives its test. A gate takes the pytest fixtures it needs as
its parameters.

Mutants known to be equivalent are listed in `EQUIVALENT` with the
reason; they are not run.
"""
import __future__
import ast
import inspect
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import sprayflow
from sprayflow import _codegen, _native, cli, fuzzy, harness, plant
from sprayflow.adaptive import FuzzyPidController
from sprayflow.fuzzy import RuleTable
from sprayflow.plant import MAX_ORDER

import test_cli
import test_fuzzy
import test_harness
import test_native
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


def cell_interiors():
    """`test_fuzzy::TestBitwiseReference::test_cell_interiors`, all its tables."""
    for table in test_fuzzy.TABLES.values():
        test_fuzzy.TestBitwiseReference().test_cell_interiors(fresh(table))


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


def order_16_map():
    """`test_plant::TestRk4Zoh::test_order_16_map_bits`"""
    test_plant.TestRk4Zoh().test_order_16_map_bits()


def rule_heights():
    """`test_fuzzy::test_rule_heights_index_each_fired_rules_strength`"""
    test_fuzzy.test_rule_heights_index_each_fired_rules_strength()


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


def engines():
    """`test_native::test_engines_give_the_same_bytes`, every group."""
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


def fma(x, y, z):
    """x * y + z with one rounding, emulated exactly through Fraction."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


READ, LINES, BATCHES = cli.read_trajectory_csv, cli._data_lines, cli._line_batches

# name: (target, edit, gate); the target is a builder's name or a function.
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
        "kernel", sub(" - 3.0 * overlap_", " - overlap_"), quarter_lattice
    ),
    "midpoint-minus-3.0-folded-as-minus-1.0": (
        "kernel", sub(" - -3.0 * overlap_", " + overlap_"), quarter_lattice
    ),
    "fold-of-1.0-sign-swapped": (
        "kernel", in_moments(sub(" - overlap_", " + overlap_")), quarter_lattice
    ),
    "fold-of-minus-1.0-sign-swapped": (
        "kernel", in_moments(sub(" + overlap_", " - overlap_")), quarter_lattice
    ),
    # The firing plans that `fuzzy._compile_kernel` works out. A label
    # clipped at the smallest index of its rules may clip every label of
    # an output at a zero height: test_cell_interiors fires every rule.
    "label-clipped-at-smallest-index": (
        fuzzy._compile_kernel, sub("max(k, clips.get", "min(k, clips.get"), cell_interiors
    ),
    "overlap-clipped-at-larger-index": (
        fuzzy._compile_kernel,
        sub("g = min(clips[label - 1], k)", "g = max(clips[label - 1], k)"),
        quarter_lattice,
    ),
    # The leading 0.0 turns a sum of -0.0 terms into 0.0.
    "step-without-leading-zero": ("factory", sub(" = 0.0 + ", " = "), compiled_step),
    "step-state-updated-in-place": ("factory", drop_in_place_state, compiled_step),
    "loop-step-without-leading-zero": (
        "loop", sub(" = 0.0 + ", " = "), hand_stepping("pid-negative-gain-at-rest")
    ),
    "loop-state-updated-in-place": (
        "loop", drop_in_place_state, hand_stepping("pid-order-3", "fuzzy-order-3")
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
    # The trajectory reader: `cli.read_trajectory_csv`, the line checks of
    # `cli._data_lines` and the line reads of `cli._line_batches`.
    "interval-tolerance-3e-9": (READ, sub("tol = 2e-9 +", "tol = 3e-9 +"), reader_cases),
    "interval-tolerance-6-ulp": (READ, sub(" 4.0 * np.spacing", " 6.0 * np.spacing"), reader_cases),
    "interval-tolerance-minus-4-ulp": (READ, sub("2e-9 + 4.0", "2e-9 - 4.0"), reader_cases),
    "interval-strictly-inside-tolerance": (READ, sub("<= tol", "< tol"), reader_cases),
    "dt-from-sum-of-ends": (READ, sub("t[-1] - t[0]", "t[-1] + t[0]"), reader_cases),
    "dt-zero-accepted": (READ, sub("dt > 0", "dt >= 0"), reader_cases),
    "two-rows-refused": (LINES, sub("n < 2", "n < 3"), reader_cases),
    "count-starts-at-1": (LINES, sub("n = 0\n", "n = 1\n"), reader_cases),
    "batches-counted-not-lines": (LINES, sub("n += len(lines)", "n += 1"), reader_cases),
    "blank-check-inverted": (LINES, sub('"" in lines', '"" not in lines'), reader_cases),
    "blank-line-refused-before-the-lines-ahead": (
        LINES, sub('yield from lines[: lines.index("")]', "pass"), reader_cases
    ),
    "blank-line-refused-after-one-line-less": (
        LINES, sub('lines.index("")]', 'lines.index("") - 1]'), reader_cases
    ),
    # A blank line as it reads in binary mode, CR before the LF split off:
    # the file is read as text, which ends every line in LF, so no blank
    # line is caught.
    "blank-line-as-crlf": (LINES, sub('"" in lines', '"\\r" in lines'), reader_cases),
    "row-bound-minus-one": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS"), reader_cases),
    "row-bound-plus-half": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS + 1.5"), reader_cases),
    "row-bound-plus-one": (LINES, sub("MAX_STEPS + 1", "MAX_STEPS + 2"), reader_cases),
    "row-bound-refused": (LINES, sub("n > most", "n >= most"), reader_cases),
    "longest-row-refused": (BATCHES, sub("> _MAX_ROW_CHARS", ">= _MAX_ROW_CHARS"), reader_cases),
    "row-length-bound-plus-one": (
        BATCHES, sub("> _MAX_ROW_CHARS", "> _MAX_ROW_CHARS + 1"), reader_cases
    ),
    "last-line-without-end-dropped": (BATCHES, sub("yield [tail]", "pass"), unended_last_line),
    # The CSV writer, `cli._csv_rows`. The first three widen what the
    # integer arithmetic formats, and a chunk of values it covers but one
    # of _FMT9_VALUES kills each.
    "bound-3-to-the-52": (cli._csv_rows, sub("< 2.0**52", "< 3.0**52"), writer_cases),
    "tie-distance-0.75": (cli._csv_rows, sub("!= 0.5", "!= 0.75"), writer_cases),
    "tie-distance-from-sum": (cli._csv_rows, sub("np.abs(x - n)", "np.abs(x + n)"), writer_cases),
    # Only a chunk of ties takes the arithmetic, which the row of ties kills.
    "ties-only-exact": (cli._csv_rows, sub("!= 0.5", "== 0.5"), writer_cases),
    "sign-byte-divided": (
        cli._csv_rows, sub('(values < 0) * ord("-")', '(values < 0) / ord("-")'), writer_cases
    ),
    "minus-zero-signed": (cli._csv_rows, sub("(values < 0)", "(values <= 0)"), writer_cases),
    "fallback-keeps-minus-zero": (cli._csv_rows, sub("values + 0.0", "values - 0.0"), writer_cases),
    # The command line's value rule, `cli._attach_values`.
    "single-dash-token-left-apart": (
        cli._attach_values, sub('startswith("--")', 'startswith("-")'), value_cases
    ),
    "only-long-options-attached": (cli._attach_values, sub(" not token.", " token."), value_cases),
    "double-dash-not-checked": (
        cli._attach_values, sub('token == "--"', "token is None"), value_cases
    ),
    "double-dash-dropped": (cli._attach_values, sub("argv[i:]", "argv[i + 1:]"), value_cases),
    # The clip-height rows of `fuzzy._rule_heights`. A fifth height, which
    # no kernel reads: only the table shows it.
    "five-rules": (fuzzy._rule_heights, sub("range(4)", "range(5)"), rule_heights),
    "e-small-inverted": (
        fuzzy._rule_heights, sub("(n >> 1) != e_right", "(n >> 1) == e_right"), rule_heights
    ),
    "ec-small-inverted": (
        fuzzy._rule_heights, sub("(n & 1) != ec_right", "(n & 1) == ec_right"), rule_heights
    ),
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
    monkeypatch.setattr(harness, "_loop", harness._python_loop)
    test_cli.pin_python_csv(monkeypatch)
    if isinstance(target, str):
        def mutating_exec(source, namespace):
            if source.startswith(f"def {target}("):
                mutant = edit(source)
                edited.append(mutant != source)
                source = mutant
            exec(source, namespace)

        monkeypatch.setattr(_codegen, "exec", mutating_exec, raising=False)
        return edited
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
    caches = (harness._python_loop, fuzzy._inference, *test_native.NATIVE_CACHES)
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
