"""Fuzzy gain-correction engine.

Maps a control error and its rate of change onto a quantized universe,
fires a 7x7 rule table, and defuzzifies the result into crisp PID gain
corrections. Inference is Mamdani-style: rule firing strength by min,
consequent clipping by min, aggregation by max, and defuzzification by
the discrete centroid over the 1201-point grid of step 0.01 on [-6, 6].

`locate` finds the two adjacent labels that hold an input's degrees, so
at most four rules fire. `infer` clips each output label at the largest
strength of the rules that name it, seven heights per output, and
`centroid` computes the centroid of their aggregate in closed form
rather than on the grid: adjacent output triangles overlap only in
pairs, so the aggregate is the sum of the clipped triangles less, on
each segment between two centers, the pointwise minimum of the two
neighbours, min(h_k, h_k+1, t, 1 - t). Each of these sampled shapes is a
constant run plus an arithmetic ramp, whose sum and first moment over
the grid points are finite series with closed forms (`_P_SUMS`,
`_R_SUMS`). The closed loop calls `infer` as `infer_deltas` does, and
the C loop (`_loop.c`) performs the operations of these three functions
in the same order, so every path gives the same bits.

The values here are immutable after construction, and all operations
are pure functions, safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    exists, and every result lies in [-6, 6]. After the range check,
    `infer` does the work, as it does in the closed loop.
    """
    for x in (e_scaled, ec_scaled):
        if not (UNIVERSE_MIN <= x <= UNIVERSE_MAX):
            raise ValueError(f"universe value out of range [-6, 6]: {x!r}")
    return infer(e_scaled, ec_scaled, table.cells)


def locate(x: float) -> tuple[int, float]:
    """The label k of a universe value x, and the degree w of label k + 1.

    Label k has degree 1.0 - w, and every other label 0. x is finite or
    an infinity: s = (x + 6.0) * 0.5 is clamped to [0, 6], k is
    min(int(s), 5) and w = s - k. (x + 6.0) * 0.5 equals (x - -6.0) / 2.0,
    because halving is exact, and the clamp of s gives the bits of
    `quantize`'s clamp of x to [-6, 6]: x + 6.0 is below 0.0 exactly when
    x < -6.0 and above 12.0 only when x > 6.0 (it rounds to 12.0 for
    x = 6 + 2**-50, which gives 6.0 too). So locate(x * factor) is
    locate(quantize(x, factor)) for a finite x, and an infinity locates
    at an edge of the universe. x is never nan, and x + 6.0 is never
    -0.0, so neither is s.
    """
    s = (x + 6.0) * 0.5
    if s < 0.0:
        s = 0.0
    if s > 6.0:
        s = 6.0
    k = int(s)
    if k > 5:
        k = 5
    return k, s - k


def infer(
    qe: float, qec: float, cells: tuple[tuple[Triple, ...], ...]
) -> tuple[float, float, float]:
    """Crisp (dKp, dKi, dKd) of the universe values qe and qec, each finite or an infinity.

    cells is a rule table's cells. Both inputs are located (`locate`), at
    labels i and j; the rule of e's label i + m and ec's label j + n fires
    at the smaller of their degrees, and each output's seven clip heights
    start at 0.0 and take the largest strength of the rules that name
    their label. It checks nothing.
    """
    i, w = locate(qe)
    j, v = locate(qec)
    a, b, c, d = 1.0 - w, w, 1.0 - v, v
    clips = ([0.0] * 7, [0.0] * 7, [0.0] * 7)
    for e, ec, strength in (
        (i, j, a if a < c else c),
        (i, j + 1, a if a < d else d),
        (i + 1, j, b if b < c else c),
        (i + 1, j + 1, b if b < d else d),
    ):
        for heights, label in zip(clips, cells[e][ec]):
            if strength > heights[label]:
                heights[label] = strength
    return centroid(clips[0]), centroid(clips[1]), centroid(clips[2])


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
# What `centroid` reads, here and in the C loop, indexed directly by the
# floors it computes, which lie in 0 .. N for a height h in [0, 1]:
# _P_SUMS[q] holds the sums of p = min(q + 1, N) for q = floor(N - N h),
# and _R_SUMS[r] the overlap sums of min(r, N/2 - 1) for r = floor(N h),
# so that centroid neither adds 1 nor clamps. Their integers, at most
# 19,900, are stored as the equal floats.
_P_SUMS = tuple(
    (float(p), _RAMP_SUM[_N - p], float(_PLATEAU_MOMENT[p]), _RAMP_MOMENT[_N - p])
    for p in (min(q + 1, _N) for q in range(_N + 1))
)
_R_SUMS = tuple(
    (_TENT_SUM[r], float(2 * (_HALF - 1 - r)))
    for r in (min(r, _HALF - 1) for r in range(_N + 1))
)


def centroid(heights: list[float]) -> float:
    """The discrete centroid of one output's aggregate from its seven clip heights.

    At least one height is positive. Label by label in ascending order,
    a label clipped at h > 0 adds its mass and its moment about 0, from
    the row of `_P_SUMS` for floor(N - N h); an edge label, NB or PB, is
    cut at the universe edge, so only its inner side counts. When its left
    neighbour is clipped too, the overlap of the two, clipped at g, the
    lower of their heights, is subtracted, from the row of `_R_SUMS` for
    floor(N g); its moment sits at their midpoint, center - 1.0.
    """
    mass = moment = prev = 0.0
    for k, h in enumerate(heights):
        if h > 0.0:
            p_float, ramp_sum, plateau_moment, ramp_moment = _P_SUMS[int(_N - _N * h)]
            side = p_float * h + ramp_sum
            center = -6.0 + 2.0 * k
            if k == 0 or k == 6:
                side_moment = h * plateau_moment + ramp_moment
                mass += side
                moment += center * side + (_STEP if k == 0 else -_STEP) * side_moment
            else:
                # Both sides share the center point.
                full = side + side - h
                mass += full
                moment += center * full
            if prev > 0.0:
                g = prev if prev < h else h
                tent_sum, flat_points = _R_SUMS[int(_N * g)]
                overlap = tent_sum + flat_points * g + (g if g < 0.5 else 0.5)
                mass -= overlap
                moment -= (center - 1.0) * overlap
        prev = h
    return moment / mass
