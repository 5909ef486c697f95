"""Independent reference computations backing the derived test values.

Everything here is deliberately written from first principles (explicit
49-rule loops, textbook formulas, matrix exponentials) so it shares no
code path with the package under test, or keeps an earlier version of
the package's code verbatim as a bitwise reference (`reference_deltas`,
`advance`, `dense_rk4_map`). The one exception is
`rewritten_suspects_table`, a test input rather than a reference: the
package's own table with its two suspect cells rewritten.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import scipy.linalg

from sprayflow.fuzzy import DEFAULT_RULE_TABLE, Label, RuleTable
from sprayflow.plant import TransferFunction, tf_to_ss

LABELS = ("NB", "NM", "NS", "ZO", "PS", "PM", "PB")
CENTERS = {name: -6.0 + 2.0 * i for i, name in enumerate(LABELS)}

# Golden transcription of the shipped rule base: rows EC = NB..PB, columns
# E = NB..PB, each cell the (dKp, dKi, dKd) consequent labels. The two
# suspect cells are (E=NM, EC=NS), whose source prints a bare "B" (encoded
# NB), and (E=NS, EC=PM), whose middle element is anomalous versus its
# neighbours (encoded as printed).
GOLDEN_RULE_ROWS_BY_EC = [
    ["PB,NB,PS", "PB,NB,PS", "PM,NB,ZO", "PM,NM,ZO", "PS,NM,ZO", "PS,ZO,PB", "ZO,ZO,PB"],
    ["PB,NB,NS", "PB,NB,NS", "PM,NM,NS", "PM,NM,NS", "PS,NS,ZO", "ZO,ZO,NS", "ZO,ZO,PM"],
    ["PM,NM,NB", "PM,NM,NB", "PM,NS,NM", "PS,NS,NS", "ZO,ZO,ZO", "NS,PS,PS", "NM,PS,PM"],
    ["PM,NM,NB", "PS,NS,NM", "PS,NS,NM", "ZO,ZO,NS", "NS,PS,ZO", "NM,PS,PS", "NM,PM,PM"],
    ["PS,NS,NB", "PS,NS,NM", "ZO,ZO,NS", "NS,PS,NS", "NS,PS,ZO", "NM,PM,PS", "NM,PM,PS"],
    ["ZO,ZO,NM", "PS,NS,NM", "PS,PS,NS", "NM,PM,NS", "NM,PM,ZO", "NM,PB,PS", "NB,PB,PS"],
    ["ZO,ZO,PS", "NS,ZO,ZO", "NS,PS,ZO", "NM,PM,ZO", "NM,PB,ZO", "NB,PB,PB", "NB,PB,PB"],
]

GOLDEN_SUSPECT_CELLS = {("NM", "NS"), ("NS", "PM")}


def rewritten_suspects_table():
    """The default rule table with (NM, NS) dKd NB -> PB and (NS, PM) dKi PS -> NS."""
    cells = [list(row) for row in DEFAULT_RULE_TABLE.cells]
    p, i, _ = cells[Label.NM][Label.NS]
    cells[Label.NM][Label.NS] = (p, i, Label.PB)
    p, _, d = cells[Label.NS][Label.PM]
    cells[Label.NS][Label.PM] = (p, Label.NS, d)
    return RuleTable(cells=tuple(tuple(row) for row in cells))


def tri(x, center):
    """Triangular membership with feet 2 units from the center.

    On the clamped grid [-6, 6] the outer sets need no shoulder handling
    because their outer feet lie outside the grid.
    """
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float) - center) / 2.0)


def brute_force_deltas(e_scaled, ec_scaled, cells, grid_step=0.001):
    """Aggregate-and-centroid over all 49 rules on a fine grid.

    cells[e][ec] must yield a triple of objects whose .name is one of
    LABELS (the package's Label enum qualifies).
    """
    n = int(round(12.0 / grid_step)) + 1
    grid = np.linspace(-6.0, 6.0, n)
    aggregates = [np.zeros(n) for _ in range(3)]
    for ie, e_name in enumerate(LABELS):
        mu_e = float(tri(e_scaled, CENTERS[e_name]))
        for iec, ec_name in enumerate(LABELS):
            mu_ec = float(tri(ec_scaled, CENTERS[ec_name]))
            strength = min(mu_e, mu_ec)
            if strength == 0.0:
                continue
            triple = cells[ie][iec]
            for channel in range(3):
                clipped = np.minimum(strength, tri(grid, CENTERS[triple[channel].name]))
                aggregates[channel] = np.maximum(aggregates[channel], clipped)
    return tuple(float(np.sum(grid * agg) / np.sum(agg)) for agg in aggregates)


# The closed-form inference as it stood before firing plans, kept verbatim as
# the bitwise reference for `fuzzy.infer_deltas`: index fuzzification, at
# most four fired rules, a 21-entry clip-height list and one closed-form
# centroid per output over all seven labels.
_N = 200
_HALF = _N // 2
_STEP = 2.0 / _N
_CENTERS = tuple(-6.0 + 2.0 * k for k in range(7))
_RAMP_SUM = tuple((q * (q + 1) // 2) / _N for q in range(_N + 1))
_RAMP_MOMENT = tuple(
    q * (q + 1) // 2 - (q * (q + 1) * (2 * q + 1) // 6) / _N for q in range(_N + 1)
)
_PLATEAU_MOMENT = tuple(p * (p - 1) // 2 for p in range(_N + 1))
_TENT_SUM = tuple(2.0 * (r * (r + 1) // 2) / _N for r in range(_HALF))


def _locate(x):
    s = (x + 6.0) / 2.0
    i = min(int(s), 5)
    return i, s - i


def reference_deltas(e_scaled, ec_scaled, cells):
    """Crisp (dKp, dKi, dKd) of the inference that firing plans replaced.

    cells[e][ec] must yield (dKp, dKi, dKd) label indices (the package's
    Label enum qualifies); both inputs must lie in [-6, 6].
    """
    i, w = _locate(e_scaled)
    j, v = _locate(ec_scaled)
    a, b = 1.0 - w, w
    c, d = 1.0 - v, v
    heights = [0.0] * 21
    for (ie, iec), strength in (
        ((i, j), a if a < c else c),
        ((i, j + 1), a if a < d else d),
        ((i + 1, j), b if b < c else c),
        ((i + 1, j + 1), b if b < d else d),
    ):
        if strength > 0.0:
            p, ii, dd = cells[ie][iec]
            for k in (int(p), 7 + int(ii), 14 + int(dd)):
                if strength > heights[k]:
                    heights[k] = strength
    return _centroid(heights[0:7]), _centroid(heights[7:14]), _centroid(heights[14:21])


def _centroid(heights):
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
                moment -= (_CENTERS[k] - 0.5 * 2.0) * overlap
        prev = h
    return moment / mass


# The plant step as it stood before it was built as straight-line code,
# kept verbatim as the bitwise reference for `plant.step`.
def advance(
    rows: tuple[tuple[float, ...], ...], c: tuple[float, ...], x: list[float], u: float
) -> tuple[list[float], float]:
    """Next state and output of one precomputed RK4 step (see rk4_zoh).

    Plain arithmetic, with no finiteness check. y = sum(c[i] * x[i]) is not
    finite whenever some x[i] is not, even where c[i] = 0 (0 * inf is
    nan), so checking y covers the state; a non-finite u makes every
    x[i] non-finite.

    Each dot product is accumulated left to right, one rounding per step,
    so its bits do not depend on the interpreter: from CPython 3.12 on the
    builtin sum() of floats is compensated. No path whose bits are pinned
    may use sum, math.fsum, math.sumprod or a numpy reduction.
    """
    x_next = []
    for row in rows:
        acc = 0.0
        # zip stops at the end of x, before Gamma[i] = row[-1].
        for a, v in zip(row, x):
            acc += a * v
        x_next.append(acc + row[-1] * u)
    y = 0.0
    for a, v in zip(c, x_next):
        y += a * v
    return x_next, y


# The RK4 map as it stood before it was computed from the companion
# structure of hA, kept verbatim as the bitwise reference for
# `plant.rk4_zoh`: dense n x n products, every dot product a `_dot`.
def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """The dot product of u and v, accumulated left to right from 0.0.

    One rounding per term, as in `plant.dot`, so the bits do not depend
    on the interpreter or on a BLAS build.
    """
    acc = 0.0
    for p, q in zip(u, v):
        acc += p * q
    return acc


def dense_rk4_map(
    plant: TransferFunction, dt: float
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """One RK4 step of the plant under zero-order hold, as plain floats.

    Returns (rows, c) for `plant.step`. Row i holds (Phi[i, 0], ...,
    Phi[i, n-1], Gamma[i]), so the next state is
    x+[i] = sum(row[j] * (x + [u])[j]), and c is the output row of the
    canonical realization (see tf_to_ss); the state has len(rows) entries.
    Expanding the four RK4 stages of x' = Ax + Bu with u held gives
    exactly these series in hA: term = (term . hA) / k, Phi = I + the
    terms for k = 1 .. 4, and Gamma = dt * ((I + the terms for k < 4, each
    divided by k + 1) . b). Every matrix and vector product is a `_dot`
    per entry.

    Raises ValueError when an entry of the step is not finite: finite
    coefficients can overflow in the normalization by den[0] or in the
    series, and such a step would blow up before the first sample.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    dt = float(dt)
    a, b, c = tf_to_ss(plant)
    n = len(c)
    ha_columns = list(zip(*([dt * v for v in row] for row in a)))
    identity = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    term = phi = gamma_series = identity
    for k in range(1, 5):
        # (hA)^k / k!
        term = [[_dot(row, column) / k for column in ha_columns] for row in term]
        phi = [[p + t for p, t in zip(p_row, t_row)] for p_row, t_row in zip(phi, term)]
        if k < 4:
            # (hA)^k / (k+1)!
            gamma_series = [
                [g + t / (k + 1) for g, t in zip(g_row, t_row)]
                for g_row, t_row in zip(gamma_series, term)
            ]
    rows = tuple((*p_row, dt * _dot(g_row, b)) for p_row, g_row in zip(phi, gamma_series))
    if not all(math.isfinite(v) for row in rows + (c,) for v in row):
        raise ValueError(
            f"the RK4 step of the plant num={plant.num!r}, den={plant.den!r} "
            f"at dt={dt!r} is not finite"
        )
    return rows, c


def apply_disturbances(u_nominal, y_nominal, disturbances, t):
    """Add every active disturbance to its port; activation is inclusive."""
    u_eff = u_nominal
    y_eff = y_nominal
    for dist in disturbances:
        if t >= dist.time:
            if dist.port == "plant-input":
                u_eff += dist.magnitude
            else:
                y_eff += dist.magnitude
    return u_eff, y_eff


def exact_zoh_discretization(a, b, dt):
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    a = np.asarray(a)
    n = a.shape[0]
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.asarray(a) * dt
    m[:n, n] = np.asarray(b) * dt
    em = scipy.linalg.expm(m)
    return em[:n, :n], em[:n, n]


def second_order_overshoot_pct(zeta):
    """Percent overshoot of an underdamped second-order step response."""
    return 100.0 * math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))


def second_order_peak_time(wn, zeta):
    """Time of the first output peak of the same response."""
    return math.pi / (wn * math.sqrt(1.0 - zeta * zeta))


def p_gain_for_damping(zeta, plant_gain=43956.0, plant_lag=0.0037):
    """Proportional gain that closes the pipeline loop at a given damping ratio.

    The closed-loop characteristic is lag*s^2 + s + plant_gain*kp, so
    zeta = (1/lag) / (2*sqrt(plant_gain*kp/lag)).
    """
    return 1.0 / (4.0 * plant_lag * zeta * zeta * plant_gain)
