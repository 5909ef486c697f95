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

Everything here is immutable after construction; all operations are pure
functions and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

UNIVERSE_MIN = -6.0
UNIVERSE_MAX = 6.0
LABEL_SPACING = 2.0
# Defuzzification grid intervals per label spacing (grid step 0.01).
GRID_INTERVALS = 200


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
    return min(max(crisp * factor, UNIVERSE_MIN), UNIVERSE_MAX)


def locate(x: float) -> tuple[int, float]:
    """Active labels of a universe value x in [-6, 6], by index arithmetic.

    Returns (i, w): label i has degree 1 - w and label i + 1 degree w;
    every other label has degree 0.
    """
    s = (x - UNIVERSE_MIN) / LABEL_SPACING
    i = min(int(s), 5)
    return i, s - i


def fuzzify(x: float) -> np.ndarray:
    """Membership degrees of a universe value over all seven labels.

    Returns a length-7 vector ordered like Label. The family is a
    partition of unity on [-6, 6], so the degrees sum to 1 and at most
    two of them are nonzero. Values outside the universe are rejected;
    quantize first.
    """
    if not (UNIVERSE_MIN <= x <= UNIVERSE_MAX):
        raise ValueError(f"universe value out of range [-6, 6]: {x!r}")
    i, w = locate(x)
    degrees = np.zeros(7)
    degrees[i] = 1.0 - w
    degrees[i + 1] = w
    return degrees


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
    # Per cell 7 * e + ec, the consequents as indices into the flat 3 x 7
    # clip-height list that `infer_deltas` fills: (p, 7 + i, 14 + d).
    consequent_index: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

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
        index = tuple(
            (int(p), 7 + int(i), 14 + int(d)) for row in self.cells for p, i, d in row
        )
        object.__setattr__(self, "consequent_index", index)

    def lookup(self, e_label: Label, ec_label: Label) -> Triple:
        """The (dKp, dKi, dKd) consequent for one rule; pure lookup."""
        return self.cells[e_label][ec_label]

    def is_suspect(self, e_label: Label, ec_label: Label) -> bool:
        return (e_label, ec_label) in self.suspect

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
                if self.is_suspect(e, ec):
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

    @classmethod
    def load(cls, path) -> "RuleTable":
        with open(path, "r", encoding="ascii") as fh:
            return cls.parse(fh.read())


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
    exists, and every result lies in [-6, 6].
    """
    for x in (e_scaled, ec_scaled):
        if not (UNIVERSE_MIN <= x <= UNIVERSE_MAX):
            raise ValueError(f"universe value out of range [-6, 6]: {x!r}")
    consequent_index = table.consequent_index
    i, w = locate(e_scaled)
    j, v = locate(ec_scaled)
    a, b = 1.0 - w, w
    c, d = 1.0 - v, v
    cell = 7 * i + j
    heights = [0.0] * 21
    for rule, strength in (
        (cell, a if a < c else c),
        (cell + 1, a if a < d else d),
        (cell + 7, b if b < c else c),
        (cell + 8, b if b < d else d),
    ):
        if strength > 0.0:
            for k in consequent_index[rule]:
                if strength > heights[k]:
                    heights[k] = strength
    return _centroid(heights[0:7]), _centroid(heights[7:14]), _centroid(heights[14:21])


# Closed-form sums over the grid, for one label spacing of N = GRID_INTERVALS
# points. A clipped triangle of height h, seen from its center, sits on the
# plateau h at offsets m = 0 .. p-1 and on the ramp 1 - m/N at m = p .. N-1,
# where p = min(floor(N (1 - h)) + 1, N); the q = N - p ramp values are j/N
# for j = 1 .. q. Indexed by q (ramp) or p (plateau):
_N = GRID_INTERVALS
_HALF = GRID_INTERVALS // 2
_STEP = LABEL_SPACING / GRID_INTERVALS
_CENTERS = tuple(UNIVERSE_MIN + LABEL_SPACING * k for k in range(7))
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


def _centroid(heights: list[float]) -> float:
    """Discrete centroid of the max-aggregate of seven clipped triangles.

    Equal, up to rounding, to sum(x * agg(x)) / sum(agg(x)) over the grid
    x = -6 + m * 0.01, m = 0 .. 1200: the clipped triangles are summed in
    closed form and, for each pair of nonzero neighbours, their pointwise
    minimum min(h_k, h_k+1, t, 1 - t) is subtracted.
    """
    mass = 0.0
    moment = 0.0
    prev = 0.0
    for k, h in enumerate(heights):
        if h > 0.0:
            p = int(_N - _N * h) + 1
            if p > _N:
                p = _N
            side = p * h + _RAMP_SUM[_N - p]
            if k == 0 or k == 6:
                # Cut at the universe edge: only the inner side remains.
                side_moment = h * _PLATEAU_MOMENT[p] + _RAMP_MOMENT[_N - p]
                mass += side
                moment += _CENTERS[k] * side + (_STEP if k == 0 else -_STEP) * side_moment
            else:
                full = side + side - h  # both sides share the center point
                mass += full
                moment += _CENTERS[k] * full
            if prev > 0.0:
                g = prev if prev < h else h
                r = int(_N * g)
                if r > _HALF - 1:
                    r = _HALF - 1
                overlap = _TENT_SUM[r] + 2 * (_HALF - 1 - r) * g + (g if g < 0.5 else 0.5)
                mass -= overlap
                moment -= (_CENTERS[k] - 0.5 * LABEL_SPACING) * overlap
        prev = h
    return moment / mass
