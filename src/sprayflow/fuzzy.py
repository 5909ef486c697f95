"""Fuzzy gain-correction engine.

Maps a control error and its rate of change onto a quantized universe,
fires a 7x7 rule table, and defuzzifies the result into crisp PID gain
corrections. Inference is Mamdani-style: rule firing strength by min,
consequent clipping by min, aggregation by max, and defuzzification by
the discrete centroid over the 1201-point grid of step 0.01 on [-6, 6].

The inputs are located by index arithmetic (at most two adjacent labels
are active), so at most four rules fire. The centroid is computed in
closed form rather than on the grid: adjacent output triangles overlap
only in pairs, so the aggregate is the sum of the clipped triangles less,
on each segment between two centers, the pointwise minimum of the two
neighbours, min(h_k, h_k+1, t, 1 - t). Each of these sampled shapes is a
constant run plus an arithmetic ramp, whose sum and first moment over the
grid points are finite series with closed forms.

Three observations keep that work small. First, the four rules that can
fire are fixed by the anchor cell (i, j) of the two located labels.
Second, every closed-form term (a clipped triangle's mass, its edge
moment, the tent overlap clipped at g) depends only on the clip height,
and every clip height (and every g, the smaller of two) is one of the
four firing strengths. Third, those four strengths take only three
values: lo and hi, the smaller and the larger of the two inputs' smaller
degrees, and big, the smaller of their larger degrees. A smaller degree
is at most 0.5 and a larger one at least 0.5, so lo <= hi <= big, the
rule pairing the two larger degrees fires at big, the one pairing the
two smaller at lo, and each of the two others at its input's smaller
degree. Which rule gets which value is fixed by three comparisons, the
ordering pattern: which label of e has the larger degree, which label of
ec has, and whether e's smaller degree lies below ec's. So an anchor
cell, pattern and output fix a firing plan: the labels those rules name,
in ascending order, each with the index of its clip height among (lo,
hi, big), the largest of its rules' indices, and, when its left
neighbour is named too, the index of the lower of their two heights,
which clips their overlap. On first use, `RuleTable.build_kernel`
passes the four rules of an anchor cell, with their clip-height indices
under the pattern, to `_compile_kernel`, which works out the three plans
and builds them into one kernel(lo, hi, big) of straight-line code: it
computes the terms of each height its labels use, and each output adds
those of its labels in ascending label order. Ties give equal
floats, and equal heights give equal terms; a zero height gives +0.0
terms, which change no bit of the sums, and labels that no rule names
add nothing. So each output performs the same floating-point operations on
the same operands, in the same order, as a centroid that walks all seven
labels of a clip-height list, less a few that are exact (ZO's moment term
+0.0 and products by +-1.0), and the result is bit-identical to it.

The values here are immutable after construction, and all operations
are pure functions, safe to call concurrently. The one mutable part is
a rule table's list of kernels, which `RuleTable.build_kernel` fills
lazily, one entry per first use; two threads that race to fill an entry
build equal kernels, and either one serves.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import IntEnum

UNIVERSE_MIN = -6.0
UNIVERSE_MAX = 6.0
LABEL_SPACING = 2.0
# Defuzzification grid intervals per label spacing (grid step 0.01).
GRID_INTERVALS = 200
_STEP = LABEL_SPACING / GRID_INTERVALS


class Label(IntEnum):
    """The seven linguistic labels, negative-big through positive-big."""

    NB = 0
    NM = 1
    NS = 2
    ZO = 3
    PS = 4
    PM = 5
    PB = 6

    @property
    def center(self) -> float:
        """Center of this label's triangular set, in universe units."""
        return UNIVERSE_MIN + LABEL_SPACING * self.value


Triple = tuple[Label, Label, Label]
# The firing plans of one anchor cell and pattern, built by `_compile_kernel`
# into a function of the clip heights (lo, hi, big) that returns
# (dKp, dKi, dKd).
Kernel = Callable[[float, float, float], tuple[float, float, float]]
# Indices of the three clip heights; big is always positive.
_LO, _HI, _BIG = 0, 1, 2


def quantize(crisp: float, factor: float) -> float:
    """Scale a physical error (or error rate) into the universe.

    The product crisp * factor is clamped to [-6, 6]; non-finite inputs
    are rejected so NaN cannot enter the inference pipeline. The factor
    is not checked here: it comes from ScalingFactors, which validates it.
    """
    if not math.isfinite(crisp):
        raise ValueError(f"crisp input must be finite, got {crisp!r}")
    x = crisp * factor
    if x < UNIVERSE_MIN:
        return UNIVERSE_MIN
    if x > UNIVERSE_MAX:
        return UNIVERSE_MAX
    return x


def locate(x: float) -> tuple[int, float]:
    """Active labels of a universe value x in [-6, 6], by index arithmetic.

    Returns (i, w): label i has degree 1 - w and label i + 1 degree w;
    every other label has degree 0.
    """
    s = (x - UNIVERSE_MIN) / LABEL_SPACING
    i = min(int(s), 5)
    return i, s - i


@dataclass(frozen=True)
class RuleTable:
    """49 gain-correction rules indexed by (error label, error-rate label).

    cells[e][ec] holds the (dKp, dKi, dKd) consequent labels. Cells whose
    source transcription is questionable are listed in `suspect`; they
    participate in inference like any other cell but are flagged when the
    table is dumped.
    """

    cells: tuple[tuple[Triple, ...], ...]
    suspect: frozenset[tuple[Label, Label]] = frozenset()
    # Per anchor cell (i, j) and ordering pattern, at index
    # 8 * (6 * i + j) + pattern, the kernel that `build_kernel` builds on
    # first use; None until then.
    kernels: list[Kernel | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.cells) != 7 or any(len(row) != 7 for row in self.cells):
            raise ValueError("rule table must be 7x7")
        for row in self.cells:
            for triple in row:
                if len(triple) != 3 or not all(isinstance(v, Label) for v in triple):
                    raise ValueError(f"invalid rule cell {triple!r}")
        for e, ec in self.suspect:
            if not (isinstance(e, Label) and isinstance(ec, Label)):
                raise ValueError(f"invalid suspect cell key ({e!r}, {ec!r})")
        object.__setattr__(self, "kernels", [None] * (6 * 6 * 8))

    def build_kernel(self, index: int) -> Kernel:
        """Build, keep and return the kernel at index 8 * (6 * i + j) + pattern.

        It runs the (dKp, dKi, dKd) firing plans of the rules (i, j),
        (i, j + 1), (i + 1, j), (i + 1, j + 1), numbered 0 to 3 in that
        order, under the ordering pattern, which fixes each rule's clip
        height (`_rule_heights`); `_compile_kernel` builds it.
        """
        i, j = divmod(index // 8, 6)
        cells = self.cells
        fired = (cells[i][j], cells[i][j + 1], cells[i + 1][j], cells[i + 1][j + 1])
        kernel = self.kernels[index] = _compile_kernel(fired, _RULE_HEIGHTS[index % 8])
        return kernel

    def __reduce__(self):
        # Pickled as its constructor arguments: built kernels are generated
        # functions, and the copy builds its own.
        return type(self), (self.cells, self.suspect)

    def dump(self) -> str:
        """Serialize in the override-file format.

        One line per error-rate label (NB through PB), seven comma-separated
        P/I/D triples per line in error-label order, suspect cells marked
        with a trailing '?'.
        """
        lines = []
        for ec in Label:
            entries = []
            for e in Label:
                p, i, d = self.cells[e][ec]
                cell = f"{p.name}/{i.name}/{d.name}"
                if (e, ec) in self.suspect:
                    cell += "?"
                entries.append(cell)
            lines.append(",".join(entries))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RuleTable":
        """Parse the override-file format produced by dump().

        Rows are error-rate labels NB through PB, columns error labels NB
        through PB. '0' is accepted as an alias for ZO; a trailing '?'
        marks a cell as suspect.
        """
        rows = [line.strip() for line in text.splitlines()]
        rows = [line for line in rows if line and not line.startswith("#")]
        if len(rows) != 7:
            raise ValueError(f"rule table needs 7 data lines, got {len(rows)}")
        by_ec: list[list[Triple]] = []
        suspect: set[tuple[Label, Label]] = set()
        for ec_idx, line in enumerate(rows):
            entries = [entry.strip() for entry in line.split(",")]
            if len(entries) != 7:
                raise ValueError(f"line {ec_idx + 1}: expected 7 cells, got {len(entries)}")
            row: list[Triple] = []
            for e_idx, entry in enumerate(entries):
                if entry.endswith("?"):
                    suspect.add((Label(e_idx), Label(ec_idx)))
                    entry = entry[:-1].strip()
                parts = entry.split("/")
                if len(parts) != 3:
                    raise ValueError(f"cell {entry!r} is not a P/I/D triple")
                row.append(tuple(_parse_label(part) for part in parts))
            by_ec.append(row)
        # Transpose: storage is cells[e][ec], the file is row-per-ec.
        cells = tuple(tuple(by_ec[ec][e] for ec in range(7)) for e in range(7))
        return cls(cells=cells, suspect=frozenset(suspect))


def _rule_heights(pattern: int) -> tuple[int, ...]:
    """Clip-height index (_LO, _HI or _BIG) of each of the four fired rules.

    pattern is 4 * (e's label i + 1 has the larger degree) + 2 * (ec's
    label j + 1 has) + (e's smaller degree lies below ec's), as
    `infer_deltas` computes it. Rule n pairs e's label i + (n >> 1) with
    ec's label j + (n & 1).
    """
    e_right, ec_right, e_below = pattern >> 2, (pattern >> 1) & 1, pattern & 1
    heights = []
    for n in range(4):
        e_small = (n >> 1) != e_right
        ec_small = (n & 1) != ec_right
        if e_small and ec_small:
            heights.append(_LO)
        elif e_small:
            heights.append(_LO if e_below else _HI)
        elif ec_small:
            heights.append(_HI if e_below else _LO)
        else:
            heights.append(_BIG)
    return tuple(heights)


_RULE_HEIGHTS = tuple(_rule_heights(pattern) for pattern in range(8))


def _parse_label(token: str) -> Label:
    token = token.strip().upper()
    if token == "0":
        return Label.ZO
    try:
        return Label[token]
    except KeyError:
        raise ValueError(f"unknown linguistic label {token!r}") from None


# Golden transcription of the shipped rule base. Rows are error-rate labels
# NB..PB, columns error labels NB..PB. Two cells are flagged '?': the source
# prints a bare "B" for (E=NM, EC=NS), encoded here as NB, and an anomalous
# middle element for (E=NS, EC=PM), encoded as printed.
_DEFAULT_TABLE_TEXT = """\
PB/NB/PS,PB/NB/PS,PM/NB/ZO,PM/NM/ZO,PS/NM/ZO,PS/ZO/PB,ZO/ZO/PB
PB/NB/NS,PB/NB/NS,PM/NM/NS,PM/NM/NS,PS/NS/ZO,ZO/ZO/NS,ZO/ZO/PM
PM/NM/NB,PM/NM/NB?,PM/NS/NM,PS/NS/NS,ZO/ZO/ZO,NS/PS/PS,NM/PS/PM
PM/NM/NB,PS/NS/NM,PS/NS/NM,ZO/ZO/NS,NS/PS/ZO,NM/PS/PS,NM/PM/PM
PS/NS/NB,PS/NS/NM,ZO/ZO/NS,NS/PS/NS,NS/PS/ZO,NM/PM/PS,NM/PM/PS
ZO/ZO/NM,PS/NS/NM,PS/PS/NS?,NM/PM/NS,NM/PM/ZO,NM/PB/PS,NB/PB/PS
ZO/ZO/PS,NS/ZO/ZO,NS/PS/ZO,NM/PM/ZO,NM/PB/ZO,NB/PB/PB,NB/PB/PB
"""

DEFAULT_RULE_TABLE = RuleTable.parse(_DEFAULT_TABLE_TEXT)


@dataclass(frozen=True)
class ScalingFactors:
    """Quantization factors for the inputs and scale factors for the outputs.

    ke and kec map error and error rate into the universe; kup, kui and kud
    map defuzzified universe values into engineering gain deltas. All five
    are required; the shipped ones are `presets.DEFAULT_FACTORS`. This is
    the one place the factors are validated; `quantize` relies on it.
    """

    ke: float
    kec: float
    kup: float
    kui: float
    kud: float

    def __post_init__(self) -> None:
        for name in ("ke", "kec"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        for name in ("kup", "kui", "kud"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be non-negative and finite, got {v!r}")


def infer_deltas(
    e_scaled: float, ec_scaled: float, table: RuleTable = DEFAULT_RULE_TABLE
) -> tuple[float, float, float]:
    """Crisp (dKp, dKi, dKd) universe values for scaled error and error rate.

    Both inputs must already lie in [-6, 6]. Fires the (at most four)
    rules of the two active labels per input; each output label is clipped
    at the largest strength of the rules that name it. The partition of
    unity guarantees at least one rule fires, so the centroid always
    exists, and every result lies in [-6, 6]. The table's kernel for the
    anchor cell and ordering pattern does the arithmetic; the first call
    that needs it builds it. After the range check, the lines of
    `_inference_body` do the work, as they do in the closed loop
    (`inference_lines`).
    """
    for x in (e_scaled, ec_scaled):
        if not (UNIVERSE_MIN <= x <= UNIVERSE_MAX):
            raise ValueError(f"universe value out of range [-6, 6]: {x!r}")
    return _inference()(e_scaled, ec_scaled, table.kernels, table.build_kernel)


@functools.cache
def _inference() -> Callable[[float, float, list, Callable], tuple[float, float, float]]:
    """The lines of `_inference_body` as a function infer(qe, qec, kernels, build_kernel)."""
    lines = [
        "def infer(qe, qec, kernels, build_kernel):",
        *(f"    {line}" for line in _inference_body("qe", "qec")),
        "    return dp, di, dd",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["infer"]


def _locate_lines(
    x: str, label: str, stride: int, bit: int, first: int = 0, stop: int = 6
) -> list[str]:
    """Lines that locate s, clamped to [0, 6], among the labels first .. stop - 1.

    They bisect with float comparisons, so that label k < stop - 1 covers
    k <= s < k + 1 and the last one the rest, s == 6.0 included. Each cut
    is the one nearest the center, so the labels NS and ZO, on either
    side of a zero error, take two comparisons and the others three. The
    branch of label 0 first raises an s below 0.0 to 0.0, and the branch
    of label 5 lowers an s above 6.0 to 6.0. The branch of label k then
    sets `label` to the int stride * k, its share of the kernel index,
    plus bit when label k + 1 has the larger degree, and {x}_small and
    {x}_big to the smaller and the larger of the degrees w = s - k, of
    label k + 1, and 1.0 - w, of label k, with k as a float constant. It
    splits at s > k + 0.5, which holds exactly when w > 1.0 - w: w is
    exact, as s lies in [k, k + 1], and so is 1.0 - w for w > 0.5, where
    it is below 0.5, while for w <= 0.5 it rounds to at least 0.5.
    """
    if stop - first == 1:
        k = float(first)
        lines = []
        if first == 0:
            lines += ["if s < 0.0:", "    s = 0.0"]
        if stop == 6:
            lines += ["if s > 6.0:", "    s = 6.0"]
        return lines + [
            f"if s > {k + 0.5!r}:",
            f"    {label} = {stride * first + bit}",
            f"    {x}_big = s - {k!r}",
            f"    {x}_small = 1.0 - {x}_big",
            "else:",
            f"    {label} = {stride * first}",
            f"    {x}_small = s - {k!r}",
            f"    {x}_big = 1.0 - {x}_small",
        ]
    mid = min(max(int(Label.ZO), first + 1), stop - 1)
    return [
        f"if s < {float(mid)!r}:",
        *(f"    {line}" for line in _locate_lines(x, label, stride, bit, first, mid)),
        "else:",
        *(f"    {line}" for line in _locate_lines(x, label, stride, bit, mid, stop)),
    ]


def _inference_body(qe: str, qec: str) -> list[str]:
    """Inference on the universe values qe and qec as straight-line code.

    qe and qec are expressions, each finite or an infinity. The lines
    locate both values, at the labels a of qe and b of qec, compute the
    clip heights lo, hi and big, and set dp, di and dd from the kernel at
    index 8 * (6 * a + b) + pattern of the locals kernels and
    build_kernel, a rule table's `kernels` list and `build_kernel` method,
    building it on first use. They check nothing. Each value x is located
    as `quantize` and `locate` do, with the same bits: s = (x + 6.0) * 0.5
    equals (x - -6.0) / 2.0, because halving is exact, and a ladder of
    comparisons on s (`_locate_lines`) clamps s to [0, 6] and picks the
    label k. The clamp gives the bits of quantize's clamp of x to [-6, 6]:
    (-6.0 + 6.0) * 0.5 and (6.0 + 6.0) * 0.5 are 0.0 and 6.0, and x + 6.0
    is below 0.0 exactly when x < -6.0 and above 12.0 only when x > 6.0
    (it rounds to 12.0 for x = 6 + 2**-50, which gives 6.0 too). x is never
    nan, and x + 6.0 is never -0.0, so neither is s. The ladder sets the
    ordering pattern's bits 4 and 2 into the locals i and j, which hold
    48 * a and 8 * b plus their bit, and the smaller and larger degrees
    of each input, e_small and e_big, ec_small and ec_big. Bit 1, e's
    smaller degree below ec's, picks lo and hi, and big is the smaller of
    the larger degrees.
    """
    shift, scale = repr(-UNIVERSE_MIN), repr(1.0 / LABEL_SPACING)
    lines = []
    for x, name, label, stride, bit in ((qe, "e", "i", 48, 4), (qec, "ec", "j", 8, 2)):
        lines.append(f"s = ({x} + {shift}) * {scale}")
        lines += _locate_lines(name, label, stride, bit)
    lines += """\
if e_small < ec_small:
    lo, hi, index = e_small, ec_small, i + j + 1
else:
    lo, hi, index = ec_small, e_small, i + j
big = e_big if e_big < ec_big else ec_big
kernel = kernels[index]
if kernel is None:
    kernel = build_kernel(index)
dp, di, dd = kernel(lo, hi, big)""".splitlines()
    return lines


def inference_lines() -> tuple[list[str], list[str]]:
    """`quantize` and `infer_deltas` as straight-line code, as (setup, lines).

    The setup reads ke, kec, kernels and build_kernel from the locals
    factors, a `ScalingFactors`, and table, a `RuleTable`. The lines set
    dp, di and dd from the locals e and rate, the error and its rate: e
    finite and rate not nan. They run the lines that `infer_deltas` runs
    after its range check (`_inference_body`) on e * ke and rate * kec,
    whose ladders clamp as `quantize` does, so for finite inputs they give
    the same bits; they check nothing. An infinite rate locates at an
    edge of the universe, where `quantize` would reject it; the closed
    loop then stops (see `harness._loop`). Only the kernel, built on first
    use, remains a call.
    """
    setup = [
        "ke = factors.ke",
        "kec = factors.kec",
        "kernels = table.kernels",
        "build_kernel = table.build_kernel",
    ]
    return setup, _inference_body("e * ke", "rate * kec")


# Closed-form sums over the grid, for one label spacing of N = GRID_INTERVALS
# points. A clipped triangle of height h, seen from its center, sits on the
# plateau h at offsets m = 0 .. p-1 and on the ramp 1 - m/N at m = p .. N-1,
# where p = min(floor(N (1 - h)) + 1, N); the q = N - p ramp values are j/N
# for j = 1 .. q. Indexed by q (ramp) or p (plateau):
_N = GRID_INTERVALS
_HALF = GRID_INTERVALS // 2
# sum of j/N over j = 1 .. q
_RAMP_SUM = tuple((q * (q + 1) // 2) / _N for q in range(_N + 1))
# sum of m * (1 - m/N) over the ramp offsets m = N-q .. N-1
_RAMP_MOMENT = tuple(
    q * (q + 1) // 2 - (q * (q + 1) * (2 * q + 1) // 6) / _N for q in range(_N + 1)
)
# sum of m over the plateau offsets m = 0 .. p-1
_PLATEAU_MOMENT = tuple(p * (p - 1) // 2 for p in range(_N + 1))
# Overlap of two neighbours: the tent min(t, 1 - t), t = m/N for m = 1 .. N-1,
# clipped at g. Its r = min(floor(N g), N/2 - 1) lowest points on each side
# lie under the clip; this is their sum, both sides.
_TENT_SUM = tuple(2.0 * (r * (r + 1) // 2) / _N for r in range(_HALF))
# What a kernel reads (see `_compile_kernel`), indexed directly by the
# floors it computes, which lie in 0 .. N for a height h in [0, 1]:
# _P_SUMS[q] holds the sums of p = min(q + 1, N) for q = floor(N - N h),
# _FULL_SUMS[q] its first two doubled, and _R_SUMS[r] the overlap sums of
# min(r, N/2 - 1) for r = floor(N h), so that no kernel adds 1 or clamps.
# Their integers, at most 19,900, are stored as the equal floats: CPython
# runs float-by-float arithmetic faster than int-by-float, with the same
# result.
_P_SUMS = tuple(
    (float(p), _RAMP_SUM[_N - p], float(_PLATEAU_MOMENT[p]), _RAMP_MOMENT[_N - p])
    for p in (min(q + 1, _N) for q in range(_N + 1))
)
_FULL_SUMS = tuple((2.0 * p_float, 2.0 * ramp_sum) for p_float, ramp_sum, _, _ in _P_SUMS)
_R_SUMS = tuple(
    (_TENT_SUM[r], float(2 * (_HALF - 1 - r)))
    for r in (min(r, _HALF - 1) for r in range(_N + 1))
)


def _compile_kernel(fired: tuple[Triple, ...], heights: tuple[int, ...]) -> Kernel:
    """The firing plans of four fired rules as a function kernel(lo, hi, big).

    fired[n] is the (dKp, dKi, dKd) consequent triple of rule n, and
    heights[n] the index of its clip height among (lo, hi, big), a row of
    `_RULE_HEIGHTS`. Each output's plan is worked out here: the labels
    the rules name, in ascending order, each clipped at the largest index
    among the rules that name it, and, when its left neighbour (label - 1)
    is named too, their overlap clipped at the lower of the two labels'
    indices. A label's center, its midpoint center - 1.0 to the left
    neighbour, where their overlap's moment sits, and, for the edge labels
    NB and PB, the grid step towards the inside (+-0.01) come from `Label`.

    kernel returns the crisp (dKp, dKi, dKd) for the three clip heights.
    Its body is straight-line code. For each height it uses it computes
    the grid sums its labels need, with the table reads below:

        a height of an edge label:
            p_float, ramp_sum, plateau_moment, ramp_moment = P[floor(N - N * h)]
            side = p_float * h + ramp_sum        full = side + side - h
            side_moment = h * plateau_moment + ramp_moment
        any other height:
            p2, ramp2 = F[floor(N - N * h)]      full = p2 * h + ramp2 - h
        a height that clips an overlap:
            tent_sum, flat_points = R[floor(N * h)]
            overlap = tent_sum + flat_points * h + (h if h < 0.5 else 0.5)

    side is the mass of a triangle clipped at h on one side of its center,
    center point included; full the mass of both sides, which share the
    center point; side_moment the first moment of one side about the
    center, in grid steps; overlap the mass of the tent min(t, 1 - t)
    between two neighbours clipped at g = h. F holds p_float and ramp_sum
    doubled, and p2 * h + ramp2 gives the bits of side + side, because
    doubling a float is exact and commutes with rounding unless the
    subnormal range is involved. It is not: a clip height, a degree
    w = s - k or 1 - w, is 0 or at least 2**-53 (s is a multiple of
    2**-51, and 1 - w for w < 1 is at least 1 less the largest double
    below 1), so p_float * h, with p_float >= 1, and side are 0 or
    normal. Each output is then one quotient moment / mass. Label by
    label in ascending order, mass takes full and moment center * full
    (an edge label takes side and center * side + step * side_moment
    instead), then mass subtracts overlap and moment midpoint * overlap
    when its left neighbour is named. moment starts at 0.0, as in a
    centroid that walks all seven labels: its first term is -0.0 for a
    zero height and a negative center. mass starts at its first term
    instead: a mass term is +0.0 or positive, never -0.0, so 0.0 + it has
    its bits. A zero height gives zero terms, and neither sum is ever
    -0.0, so such a label changes no bit. Each distinct mass is computed
    once. N, p_float, plateau_moment and flat_points are floats equal to
    integers, so every operation gives the bits of its integer form.
    floor is math.floor; its arguments lie in [0, N], where it gives
    int()'s result, only faster.

    Three terms are folded, exactly. ZO's center is 0.0, and 0.0 * full
    is +0.0 for the finite full >= 0, which changes no bit of a moment
    sum that is never -0.0, so ZO adds no moment term. ZO's and PS's
    midpoints are -1.0 and 1.0, where the product midpoint * overlap is
    -overlap and overlap exactly, and a - -b is a + b in IEEE arithmetic,
    so those terms are + overlap and - overlap.

    N = 200.0 and every center, midpoint and step are written into the
    source as literals, whose repr round-trips each float. They come
    from the `Label` geometry only (the centers 0, +-2, +-4 and +-6, the
    odd midpoints and the steps +-0.01), so nothing of a rule table but
    its choice of labels reaches the code. floor and the sum tables P, F
    and R are globals of the kernel's namespace.
    """
    clip_names = ("lo", "hi", "big")
    n = repr(float(_N))
    needs: list[set[str]] = [set(), set(), set()]
    outputs = []
    for out in range(3):
        clips: dict[Label, int] = {}
        for rule, k in zip(fired, heights):
            clips[rule[out]] = max(k, clips.get(rule[out], k))
        mass, moment = "", "0.0"
        for label in sorted(clips):
            k = clips[label]
            h, center = clip_names[k], label.center
            if label in (Label.NB, Label.PB):
                # Cut at the universe edge: only the inner side remains.
                step = _STEP if label is Label.NB else -_STEP
                needs[k].add("side_moment")
                mass += f" + side_{h}"
                moment += f" + ({center!r} * side_{h} + {step!r} * side_moment_{h})"
            else:
                needs[k].add("full")
                mass += f" + full_{h}"
                if center:
                    moment += f" + {center!r} * full_{h}"
            if label - 1 in clips:
                g = min(clips[label - 1], k)
                needs[g].add("overlap")
                overlap = f"overlap_{clip_names[g]}"
                midpoint = center - 0.5 * LABEL_SPACING
                mass += f" - {overlap}"
                moment += {1.0: f" - {overlap}", -1.0: f" + {overlap}"}.get(
                    midpoint, f" - {midpoint!r} * {overlap}"
                )
        # A mass term is never -0.0, so the first needs no leading "0.0 +".
        outputs.append((moment, mass.removeprefix(" + ")))
    body = []
    for h, need in zip(clip_names, needs):
        if "side_moment" in need:
            body += [
                f"p_float_{h}, ramp_sum_{h}, plateau_moment_{h}, ramp_moment_{h}"
                f" = P[floor({n} - {n} * {h})]",
                f"side_{h} = p_float_{h} * {h} + ramp_sum_{h}",
                f"side_moment_{h} = {h} * plateau_moment_{h} + ramp_moment_{h}",
            ]
            if "full" in need:
                body.append(f"full_{h} = side_{h} + side_{h} - {h}")
        elif "full" in need:
            body += [
                f"p2_{h}, ramp2_{h} = F[floor({n} - {n} * {h})]",
                f"full_{h} = p2_{h} * {h} + ramp2_{h} - {h}",
            ]
        if "overlap" in need:
            body += [
                f"tent_sum_{h}, flat_points_{h} = R[floor({n} * {h})]",
                f"overlap_{h} = tent_sum_{h} + flat_points_{h} * {h}"
                f" + ({h} if {h} < 0.5 else 0.5)",
            ]
    # A mass that several outputs share is computed once, into a local.
    masses = [mass for _, mass in outputs]
    names: dict[str, str] = {}
    for mass in masses:
        if masses.count(mass) > 1 and mass not in names:
            names[mass] = f"mass{len(names)}"
            body.append(f"{names[mass]} = {mass}")
    quotients = [f"({moment}) / {names.get(mass, f'({mass})')}" for moment, mass in outputs]
    lines = [
        "def kernel(lo, hi, big):",
        *(f"    {line}" for line in body),
        "    return (",
        *(f"        {quotient}," for quotient in quotients),
        "    )",
    ]
    namespace = {"floor": math.floor, "P": _P_SUMS, "F": _FULL_SUMS, "R": _R_SUMS}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]
