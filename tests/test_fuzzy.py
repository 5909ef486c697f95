import copy
import inspect
import itertools
import json
import math
import pickle
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayflow import _codegen, fuzzy, harness, presets
from sprayflow.fuzzy import (
    DEFAULT_RULE_TABLE,
    Label,
    RuleTable,
    ScalingFactors,
    infer_deltas,
    quantize,
)

from _oracles import (
    GOLDEN_RULE_ROWS_BY_EC,
    GOLDEN_SUSPECT_CELLS,
    _locate,
    brute_force_deltas,
    reference_deltas,
    rewritten_suspects_table,
    tri,
)

SUSPECT_CELLS = {(Label[e], Label[ec]) for e, ec in GOLDEN_SUSPECT_CELLS}

CENTROID_TOL = 0.02
PB_SHOULDER_CENTROID = 16.0 / 3.0

# The closed-form centroid reproduces the discrete centroid on the grid of
# step 0.01; against that grid it may differ by rounding only.
GRID_STEP = 0.01
CLOSED_FORM_TOL = 1e-12
# Quarter points of the universe: label centers (segment boundaries, +-6
# saturation), segment midpoints and quarters, so firing strengths and clip
# heights of exactly 0, 0.25, 0.5, 0.75 and 1; and -0.0, the other sign of
# the center 0.0.
QUARTER_LATTICE = [-6.0 + 0.25 * k for k in range(49)] + [-0.0]
# Steps of 1/32 on [-6, 6], so firing strengths on multiples of 1/64, and
# every 23rd of its points: 23 is prime to 64, so those points still take
# 17 different degrees.
FINE_LATTICE = [-6.0 + k / 32 for k in range(385)]
FINE_SPARSE = FINE_LATTICE[::23]


def neighbours(x):
    """x and the doubles next to it, those that lie in [-6, 6]."""
    return [v for v in (math.nextafter(x, -7.0), x, math.nextafter(x, 7.0)) if -6.0 <= v <= 6.0]


# Universe values on the edges that inference branches or indexes on, each
# with the doubles next to it: s = (x + 6) / 2 on every integer, where the
# located label changes (+-6 included), and a degree near k / 200 for
# k = 0 .. 200, spread over the six labels, where floor(N * h) and
# floor(N - N * h) step for a clip height h and its complement (0.5 is
# k = 100); then -0.0. Every 41st of them partners each one.
EDGE_VALUES = sorted(
    {v for k in range(7) for v in neighbours(2.0 * k - 6.0)}
    | {v for k in range(201) for v in neighbours((k % 6 + k / 200) * 2.0 - 6.0)}
) + [-0.0]
EDGE_PARTNERS = EDGE_VALUES[::41]


def random_table(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 7, size=(7, 7, 3))
    return RuleTable(
        cells=tuple(tuple(tuple(Label(int(k)) for k in cell) for cell in row) for row in labels)
    )


# Output label NS, ZO or PS by (e + 2 ec + output) mod 3, so the four rules
# of every anchor cell name all three for every output: each kernel adds
# ZO's center 0.0 and the overlaps at the midpoints -1.0 and 1.0, the
# terms `fuzzy._compile_kernel` folds.
ZERO_NEIGHBOURS_TABLE = RuleTable(
    cells=tuple(
        tuple(tuple(Label(2 + (e + 2 * ec + out) % 3) for out in range(3)) for ec in range(7))
        for e in range(7)
    )
)

TABLES = {
    "default": DEFAULT_RULE_TABLE,
    "suspects-rewritten": rewritten_suspects_table(),
    "random": random_table(20240601),
    "zero-neighbours": ZERO_NEIGHBOURS_TABLE,
}
# The quarter lattice reaches every kernel of a table, so it checks every
# kernel of eight more random tables too.
QUARTER_LATTICE_TABLES = TABLES | {f"random-{seed}": random_table(seed) for seed in range(8)}


def assert_equals_grid_centroid(e_scaled, ec_scaled):
    got = infer_deltas(e_scaled, ec_scaled)
    want = brute_force_deltas(e_scaled, ec_scaled, DEFAULT_RULE_TABLE.cells, GRID_STEP)
    for g, w in zip(got, want):
        assert abs(g - w) <= CLOSED_FORM_TOL, (e_scaled, ec_scaled, got, want)


class TestQuantize:
    def test_product_with_error_factor(self):
        assert quantize(0.9, 5.0) == pytest.approx(4.5)

    def test_zero_maps_to_center(self):
        assert quantize(0.0, 0.8) == 0.0

    def test_clamps_at_universe_edges(self):
        assert quantize(2.0, 5.0) == 6.0
        assert quantize(-2.0, 5.0) == -6.0

    @pytest.mark.parametrize(
        "crisp, want", [(-0.0, -0.0), (0.0, 0.0), (1e308, 6.0), (-1e308, -6.0)]
    )
    def test_sign_of_zero_and_overflow(self, crisp, want):
        # -0.0 keeps its sign; 1e308 * 5.0 overflows to inf and clamps.
        got = quantize(crisp, 5.0)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError):
            quantize(bad, 5.0)

    @given(
        crisp=st.floats(allow_nan=False, allow_infinity=False, width=64),
        factor=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_lands_in_universe(self, crisp, factor):
        assert -6.0 <= quantize(crisp, factor) <= 6.0


def degrees(x):
    """Membership degrees of x over all seven labels, by `_oracles._locate`."""
    i, w = _locate(x)
    out = np.zeros(7)
    out[i] = 1.0 - w
    out[i + 1] = w
    return out


class TestFuzzify:
    """Fuzzification by the index arithmetic of `_oracles._locate`.
    Inference runs the `fuzzy._locate_lines` ladder instead, which gives
    the bits of `quantize` followed by that arithmetic (see
    `fuzzy.inference_lines`)."""

    def test_one_hot_at_every_center(self):
        for label in Label:
            expected = np.zeros(7)
            expected[label] = 1.0
            assert np.array_equal(degrees(label.center), expected)

    def test_halfway_between_outer_sets(self):
        assert _locate(-5.0) == (0, 0.5)

    def test_quarter_split(self):
        assert _locate(-4.5) == (0, 0.75)

    @pytest.mark.parametrize("x", [-6.001, 6.001, math.nan, 100.0])
    def test_rejects_out_of_range(self, x):
        # _locate trusts its caller; infer_deltas is where the range is checked.
        with pytest.raises(ValueError):
            infer_deltas(x, 0.0)
        with pytest.raises(ValueError):
            infer_deltas(0.0, x)

    def test_partition_of_unity_on_dense_grid(self):
        grid = np.linspace(-6.0, 6.0, 12001)
        for x in grid:
            got = degrees(float(x))
            assert abs(got.sum() - 1.0) <= 1e-9
            want = [float(tri(x, label.center)) for label in Label]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), x

    @given(x=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=300, deadline=None)
    def test_degree_bounds_and_support(self, x):
        i, w = _locate(x)
        assert 0 <= i <= 5 and 0.0 <= w <= 1.0
        got = degrees(x)
        assert np.count_nonzero(got) <= 2
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


DEFAULT_CELLS = DEFAULT_RULE_TABLE.cells


def built(entry):
    """Whether a `kernels` entry is a built kernel, not a first-use entry.

    A kernel is a generated function named kernel (`fuzzy._compile_kernel`).
    """
    return inspect.isfunction(entry) and entry.__name__ == "kernel"


def with_first_cell(cell):
    """The default cells with cell (NB, NB) replaced."""
    return ((cell,) + DEFAULT_CELLS[0][1:],) + DEFAULT_CELLS[1:]


class TestRuleTable:
    def test_matches_golden_transcription(self):
        for ec_idx, row in enumerate(GOLDEN_RULE_ROWS_BY_EC):
            for e_idx, cell in enumerate(row):
                expected = tuple(Label[name] for name in cell.split(","))
                assert DEFAULT_RULE_TABLE.cells[e_idx][ec_idx] == expected

    def test_suspect_cells_flagged(self):
        assert DEFAULT_RULE_TABLE.suspect == frozenset(SUSPECT_CELLS)

    def test_construction_computes_no_plan(self, monkeypatch):
        calls = []
        original = fuzzy._compile_kernel

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fuzzy, "_compile_kernel", counting)
        table = RuleTable.parse(DEFAULT_RULE_TABLE.dump())
        assert calls == [] and not any(map(built, table.kernels))
        # The first inference builds one kernel, in one call, and stores it
        # at its anchor cell and pattern.
        infer_deltas(0.3, -2.7, table)
        assert len(calls) == 1
        index = kernel_index(0.3, -2.7)
        assert [n for n, entry in enumerate(table.kernels) if built(entry)] == [index]
        # A second inference at the same anchor cell and pattern builds
        # nothing, and gives the reference bits.
        assert kernel_index(0.32, -2.72) == index
        for e, ec in ((0.3, -2.7), (0.32, -2.72)):
            assert packed(infer_deltas(e, ec, table)) == packed(
                reference_deltas(e, ec, table.cells)
            )
        assert len(calls) == 1

    def test_dump_parse_round_trip(self):
        text = DEFAULT_RULE_TABLE.dump()
        again = RuleTable.parse(text)
        assert again == DEFAULT_RULE_TABLE
        assert again.dump() == text

    def test_parse_accepts_zero_alias(self):
        text = DEFAULT_RULE_TABLE.dump().replace("ZO", "0")
        assert RuleTable.parse(text).cells == DEFAULT_RULE_TABLE.cells

    def test_parse_rejects_wrong_shape(self):
        lines = DEFAULT_RULE_TABLE.dump().splitlines()
        with pytest.raises(ValueError):
            RuleTable.parse("\n".join(lines[:6]))
        with pytest.raises(ValueError):
            RuleTable.parse("\n".join(lines) + "\n" + lines[0])
        broken = lines[:]
        broken[0] = broken[0] + ",PB/NB/PS"
        with pytest.raises(ValueError):
            RuleTable.parse("\n".join(broken))

    def test_parse_rejects_bad_labels(self):
        lines = DEFAULT_RULE_TABLE.dump().splitlines()
        lines[0] = lines[0].replace("PB/NB/PS", "PB/XX/PS", 1)
        with pytest.raises(ValueError):
            RuleTable.parse("\n".join(lines))

    @pytest.mark.parametrize(
        "cells, suspect, message",
        [
            (DEFAULT_CELLS[:6], frozenset(), "must be 7x7"),
            ((DEFAULT_CELLS[0][:6],) + DEFAULT_CELLS[1:], frozenset(), "must be 7x7"),
            (with_first_cell((Label.ZO, Label.ZO)), frozenset(), "invalid rule cell"),
            (with_first_cell((Label.ZO, Label.ZO, "ZO")), frozenset(), "invalid rule cell"),
            (DEFAULT_CELLS, frozenset({(Label.NB, 3)}), "invalid suspect cell key"),
        ],
        ids=("six-rows", "six-columns", "pair-cell", "non-label-cell", "non-label-suspect"),
    )
    def test_rejects_invalid_construction(self, cells, suspect, message):
        with pytest.raises(ValueError, match=message):
            RuleTable(cells=cells, suspect=suspect)

    @staticmethod
    def assert_copy_after_inference_keeps_the_bits(duplicate):
        table = RuleTable.parse(DEFAULT_RULE_TABLE.dump())
        points = [(1.3, -2.2), (0.3, -2.7), (-4.9, 5.5)]
        infer_deltas(*points[0], table)
        again = duplicate(table)
        assert again == table and again.suspect
        for e, ec in points:
            want = packed(reference_deltas(e, ec, table.cells))
            assert packed(infer_deltas(e, ec, again)) == want, (e, ec)
            assert packed(infer_deltas(e, ec, table)) == want, (e, ec)

    def test_pickles_after_inference(self):
        self.assert_copy_after_inference_keeps_the_bits(lambda t: pickle.loads(pickle.dumps(t)))

    def test_deep_copies_after_inference(self):
        self.assert_copy_after_inference_keeps_the_bits(copy.deepcopy)

    def test_load_reads_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(DEFAULT_RULE_TABLE.dump(), encoding="ascii")
        assert RuleTable.parse(path.read_text("ascii")) == DEFAULT_RULE_TABLE


class TestInference:
    def test_center_rest_cell(self):
        # Only the (ZO, ZO) rule fires; its consequents are (ZO, ZO, NS).
        dp, di, dd = infer_deltas(0.0, 0.0)
        assert abs(dp) <= 1e-9
        assert abs(di) <= 1e-9
        assert dd == pytest.approx(-2.0, abs=CENTROID_TOL)

    def test_corner_cell_shoulder_centroids(self):
        # Single rule (NB, NB) -> (PB, NB, PS) at full strength; the outer
        # consequents defuzzify to the shoulder centroid, not the center.
        dp, di, dd = infer_deltas(-6.0, -6.0)
        assert dp == pytest.approx(PB_SHOULDER_CENTROID, abs=CENTROID_TOL)
        assert di == pytest.approx(-PB_SHOULDER_CENTROID, abs=CENTROID_TOL)
        assert dd == pytest.approx(2.0, abs=CENTROID_TOL)

    def test_two_rule_interpolation(self):
        # At (-5, -6) the (NB, NB) and (NM, NB) rules fire at strength 0.5;
        # both name PB/NB/PS, so each channel is one set clipped at 0.5 whose
        # exact centroid is 47/9 (trapezoid over [4, 6]).
        dp, di, dd = infer_deltas(-5.0, -6.0)
        assert dp == pytest.approx(47.0 / 9.0, abs=CENTROID_TOL)
        assert di == pytest.approx(-47.0 / 9.0, abs=CENTROID_TOL)
        assert dd == pytest.approx(2.0, abs=CENTROID_TOL)

    @pytest.mark.parametrize(
        "pair", [(0.0, 0.0), (-6.0, -6.0), (-5.0, -6.0), (1.7, -0.3), (4.2, 2.9)]
    )
    def test_agrees_with_brute_force_oracle(self, pair):
        expected = brute_force_deltas(*pair, DEFAULT_RULE_TABLE.cells)
        result = infer_deltas(*pair)
        for got, want in zip(result, expected):
            assert got == pytest.approx(want, abs=CENTROID_TOL)

    def test_lookup_consistency_at_all_label_centers(self):
        # At exact center pairs a single rule fires at strength 1, so each
        # output equals the centroid of one full consequent set: the label
        # center for inner labels, the shoulder centroid for NB and PB.
        for e_label in Label:
            for ec_label in Label:
                result = infer_deltas(e_label.center, ec_label.center)
                oracle = brute_force_deltas(
                    e_label.center, ec_label.center, DEFAULT_RULE_TABLE.cells
                )
                triple = DEFAULT_RULE_TABLE.cells[e_label][ec_label]
                for got, want, out_label in zip(result, oracle, triple):
                    assert got == pytest.approx(want, abs=CENTROID_TOL)
                    if out_label is Label.NB:
                        expected = -PB_SHOULDER_CENTROID
                    elif out_label is Label.PB:
                        expected = PB_SHOULDER_CENTROID
                    else:
                        expected = out_label.center
                    assert got == pytest.approx(expected, abs=CENTROID_TOL)

    def test_closed_form_equals_grid_centroid_on_quarter_lattice(self):
        # Covers all 49 label-center pairs among the 49 x 49 lattice pairs.
        for e in QUARTER_LATTICE:
            for ec in QUARTER_LATTICE:
                assert_equals_grid_centroid(e, ec)

    @given(
        e=st.one_of(st.floats(min_value=-6.0, max_value=6.0), st.sampled_from(QUARTER_LATTICE)),
        ec=st.one_of(st.floats(min_value=-6.0, max_value=6.0), st.sampled_from(QUARTER_LATTICE)),
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_grid_centroid(self, e, ec):
        assert_equals_grid_centroid(e, ec)

    def test_outputs_stay_in_universe(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e, ec = rng.uniform(-6.0, 6.0, size=2)
            for value in infer_deltas(float(e), float(ec)):
                assert -6.0 <= value <= 6.0

    def test_deterministic(self):
        a = infer_deltas(1.234, -3.456)
        b = infer_deltas(1.234, -3.456)
        assert a == b

    def test_rejects_out_of_universe_inputs(self):
        with pytest.raises(ValueError):
            infer_deltas(6.5, 0.0)
        with pytest.raises(ValueError):
            infer_deltas(0.0, -7.0)


def packed(deltas):
    """The bytes of three doubles, so that -0.0 and 0.0 differ."""
    return struct.pack("3d", *deltas)


every_table = pytest.mark.parametrize("table", TABLES.values(), ids=TABLES.keys())


class TestBitwiseReference:
    """Firing plans and per-height terms reproduce the closed-form
    inference they replaced exactly, not to a tolerance."""

    @pytest.mark.parametrize(
        "table", QUARTER_LATTICE_TABLES.values(), ids=QUARTER_LATTICE_TABLES.keys()
    )
    def test_quarter_lattice(self, table):
        for e in QUARTER_LATTICE:
            for ec in QUARTER_LATTICE:
                got = packed(infer_deltas(e, ec, table))
                assert got == packed(reference_deltas(e, ec, table.cells)), (e, ec)
        # Every kernel was built, so every kernel was checked.
        assert all(map(built, table.kernels))

    @every_table
    def test_fine_lattice(self, table):
        for fine in FINE_LATTICE:
            for sparse in FINE_SPARSE:
                for e, ec in ((fine, sparse), (sparse, fine)):
                    got = packed(infer_deltas(e, ec, table))
                    assert got == packed(reference_deltas(e, ec, table.cells)), (e, ec)

    @every_table
    def test_branch_and_table_edges(self, table):
        for edge in EDGE_VALUES:
            for partner in EDGE_PARTNERS:
                for e, ec in ((edge, partner), (partner, edge)):
                    got = packed(infer_deltas(e, ec, table))
                    assert got == packed(reference_deltas(e, ec, table.cells)), (e, ec)

    @every_table
    @given(e=st.floats(min_value=-6.0, max_value=6.0), ec=st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=300, deadline=None)
    def test_random_points(self, table, e, ec):
        got = packed(infer_deltas(e, ec, table))
        assert got == packed(reference_deltas(e, ec, table.cells))


# Imports the package, then runs the default fuzzy step, and reports the
# kernels of the default table that are built (as `built` tells) after the
# import and after the run, the loops and inference functions built by the
# import, and the run's dt and logged error column.
KERNELS_SCRIPT = """
import inspect
import json
import sprayflow
from sprayflow import fuzzy, harness, presets
from sprayflow.fuzzy import DEFAULT_RULE_TABLE as table
def built():
    return [n for n, entry in enumerate(table.kernels) if inspect.isfunction(entry)
            and entry.__name__ == "kernel"]
after_import = built()
loops_after_import = harness._loop.cache_info().currsize
inference_after_import = fuzzy._inference.cache_info().currsize
scenario = presets.default_scenario(presets.default_fuzzy_controller())
traj = sprayflow.run_closed_loop(scenario)
after_run = built()
print(json.dumps({
    "after_import": after_import, "loops_after_import": loops_after_import,
    "inference_after_import": inference_after_import, "dt": scenario.dt,
    "e": traj.e.tolist(), "after_run": after_run,
}))
"""


def kernel_index(e, ec):
    """Anchor cell and ordering pattern of a pair of universe values."""
    i, w = _locate(e)
    j, v = _locate(ec)
    pattern = 4 * (w > 1.0 - w) + 2 * (v > 1.0 - v) + (min(w, 1.0 - w) < min(v, 1.0 - v))
    return 8 * (6 * i + j) + pattern


def test_rule_heights_index_each_fired_rules_strength():
    # Rule n pairs e's label i + (n >> 1) with ec's label j + (n & 1) and
    # fires at the smaller of their degrees: one of lo and hi, the two
    # smaller degrees in order, or big, the smaller of the two larger ones.
    patterns = {}
    for w, v in itertools.product((0.125, 0.25, 0.75, 0.875), repeat=2):
        e, ec = (1.0 - w, w), (1.0 - v, v)
        if min(e) == min(ec):
            continue
        pattern = 4 * (w > 1.0 - w) + 2 * (v > 1.0 - v) + (min(e) < min(ec))
        heights = (*sorted((min(e), min(ec))), min(max(e), max(ec)))
        got = tuple(heights.index(min(e[n >> 1], ec[n & 1])) for n in range(4))
        assert patterns.setdefault(pattern, got) == got
    assert fuzzy._RULE_HEIGHTS == tuple(patterns[pattern] for pattern in range(8))


def test_kernels_are_built_on_first_use_per_table():
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", KERNELS_SCRIPT],
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(result.stdout)
    # Nothing is built at import: no kernel, loop or inference function.
    assert report["after_import"] == []
    assert report["loops_after_import"] == 0
    assert report["inference_after_import"] == 0
    # Step k infers from row k-1's error and its backward difference,
    # zero on the first step; the last row feeds no step.
    e, dt, factors = report["e"], report["dt"], presets.DEFAULT_FACTORS
    rates = [0.0] + [(e[k] - e[k - 1]) / dt for k in range(1, len(e) - 1)]
    touched = {
        kernel_index(quantize(x, factors.ke), quantize(rate, factors.kec))
        for x, rate in zip(e, rates)
    }
    assert report["after_run"] == sorted(touched)
    assert len(touched) == 36
    # Another table builds its own kernels and gives the reference bits,
    # also where the default table's kernels exist; those stay out of its
    # equality and of dump/parse.
    infer_deltas(0.3, -2.7)
    table = rewritten_suspects_table()
    for e in QUARTER_LATTICE:
        for ec in QUARTER_LATTICE:
            got = packed(infer_deltas(e, ec, table))
            assert got == packed(reference_deltas(e, ec, table.cells)), (e, ec)
    assert all(map(built, table.kernels))
    assert not any(a is b for a, b in zip(table.kernels, DEFAULT_RULE_TABLE.kernels))
    assert RuleTable.parse(table.dump()) == table
    assert table != DEFAULT_RULE_TABLE


def test_generated_inference_makes_one_kernel_call(monkeypatch):
    # The sources of the fuzzy-PID loop and of the inference, compiled
    # afresh past their caches: each calls one kernel entry, once per step
    # of the loop, and tests no entry.
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(_codegen, "exec", recording_exec, raising=False)
    harness._loop.__wrapped__(2, True, 0, 0)
    fuzzy._inference.__wrapped__()
    loop, infer = sources
    call = "dp, di, dd = kernels[index](lo, hi, big)"
    assert loop.count("kernels[") == 1 and infer.count("kernels[") == 1
    assert f"\n        {call}\n" in loop and f"\n    {call}\n" in infer
    for source in (loop, infer):
        assert "None" not in source and "build" not in source


def test_concurrent_first_use_gives_the_reference_bits():
    # Threads race on the first-use entries of a fresh table; each builds
    # an equal kernel, and whichever an entry keeps, every result is the
    # reference's.
    table = rewritten_suspects_table()
    points = [(e, ec) for e in QUARTER_LATTICE[::2] for ec in QUARTER_LATTICE]
    want = [packed(reference_deltas(e, ec, table.cells)) for e, ec in points]
    results = [None] * 4

    def work(n):
        results[n] = [packed(infer_deltas(e, ec, table)) for e, ec in points]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * 4


class TestScaling:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ke": 0.0},
            {"ke": -1.0},
            {"kec": 0.0},
            {"kup": -0.1},
            {"kui": math.nan},
            {"kud": -1e-9},
            {"ke": math.nan},
        ],
    )
    def test_factor_validation(self, kwargs):
        valid = dict(ke=5.0, kec=0.8, kup=0.45, kui=0.45, kud=0.45)
        ScalingFactors(**valid)
        with pytest.raises(ValueError):
            ScalingFactors(**{**valid, **kwargs})
