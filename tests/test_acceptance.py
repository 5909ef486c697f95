"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
with the measured values (run pytest with -s to see them as they pass).
The regression pins in criteria 6 and 7 were recorded from the shipped
default tuning and guard against behavioural drift.
"""
import math

import numpy as np

import sprayflow as sf
from sprayflow import presets
from sprayflow.cli import main as cli_main
from sprayflow.fuzzy import DEFAULT_RULE_TABLE, Label, infer_deltas
from sprayflow.harness import (
    PidConfig,
    SimScenario,
    compare_controllers,
    compute_metrics,
    peak_deviation,
    run_closed_loop,
)
from sprayflow.pid import PidGains
from sprayflow.plant import PIPELINE_TF, compile_step, rk4_zoh, tf_to_ss

from _oracles import (
    GOLDEN_RULE_ROWS_BY_EC,
    GOLDEN_SUSPECT_CELLS,
    brute_force_deltas,
    exact_zoh_discretization,
    p_gain_for_damping,
    second_order_overshoot_pct,
    second_order_peak_time,
)
from test_fuzzy import degrees

TRAJECTORY_COLUMNS = ("t", "r", "e", "u", "y", "kp", "ki", "kd")

# Regression pins recorded from the shipped default tuning.
PINNED_PID_OVERSHOOT = 11.0901
PINNED_FUZZY_OVERSHOOT = 8.6777
PINNED_PID_PEAK_DEVIATION = 0.219776
PINNED_FUZZY_PEAK_DEVIATION = 0.208775


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _synthetic(y_values):
    y = np.asarray(y_values, dtype=float)
    n = len(y)
    zeros = np.zeros(n)
    r = np.full(n, y[-1])
    t = np.arange(n, dtype=float)
    return sf.Trajectory(np.stack([t, r, r - y, zeros, y, zeros, zeros, zeros]))


def test_criterion_01_metric_formula_reproduction():
    first = compute_metrics(_synthetic([0.0, 5.538, 5.0, 5.0, 5.0, 5.0]))
    second = compute_metrics(_synthetic([0.0, 16.076, 15.0, 15.0, 15.0, 15.0]))
    err1 = abs(first.overshoot_pct - 10.76)
    err2 = abs(second.overshoot_pct - 7.17)
    _verdict(
        1,
        "metric-formula reproduction",
        err1 <= 0.005 and err2 <= 0.005,
        f"overshoots {first.overshoot_pct:.4f}% / {second.overshoot_pct:.4f}% "
        f"vs 10.76 / 7.17, errors {err1:.4f} / {err2:.4f}",
    )


def test_criterion_02_rule_table_fidelity():
    mismatches = []
    for ec_idx, row in enumerate(GOLDEN_RULE_ROWS_BY_EC):
        for e_idx, cell in enumerate(row):
            expected = tuple(Label[name] for name in cell.split(","))
            got = DEFAULT_RULE_TABLE.cells[e_idx][ec_idx]
            if got != expected:
                mismatches.append((Label(e_idx).name, Label(ec_idx).name))
    suspect = {(e.name, ec.name) for e, ec in DEFAULT_RULE_TABLE.suspect}
    ok = not mismatches and suspect == GOLDEN_SUSPECT_CELLS
    _verdict(
        2,
        "rule-table fidelity",
        ok,
        f"49 cells checked, mismatches={mismatches}, suspect={sorted(suspect)}",
    )


def test_criterion_03_partition_of_unity():
    worst = 0.0
    for x in np.linspace(-6.0, 6.0, 12001):
        worst = max(worst, abs(degrees(float(x)).sum() - 1.0))
    _verdict(3, "partition of unity", worst <= 1e-9, f"worst |sum-1| = {worst:.3e}")


def test_criterion_04_centroid_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        e_scaled, ec_scaled = rng.uniform(-6.0, 6.0, size=2)
        got = infer_deltas(float(e_scaled), float(ec_scaled))
        want = brute_force_deltas(float(e_scaled), float(ec_scaled), DEFAULT_RULE_TABLE.cells)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    _verdict(4, "centroid oracle agreement", worst <= 0.02, f"worst |diff| = {worst:.5f}")


def test_criterion_05_second_order_oracle():
    zeta = 0.5
    kp = p_gain_for_damping(zeta)
    wn = math.sqrt(43956.0 * kp / 0.0037)
    scenario = SimScenario(
        setpoint=5.0, duration=0.3, dt=1e-5,
        controller=PidConfig(gains=PidGains(kp, 0.0, 0.0)),
    )
    metrics = compute_metrics(run_closed_loop(scenario))
    os_pred = second_order_overshoot_pct(zeta)
    tp_pred = second_order_peak_time(wn, zeta)
    os_err = abs(metrics.overshoot_pct - os_pred)
    tp_err = abs(metrics.peak_time - tp_pred) / tp_pred
    _verdict(
        5,
        "analytic second-order oracle",
        os_err <= 1.0 and tp_err <= 0.02,
        f"zeta={zeta}: overshoot {metrics.overshoot_pct:.3f}% vs {os_pred:.3f}% "
        f"(err {os_err:.3f} pp), peak {metrics.peak_time:.6f}s vs {tp_pred:.6f}s "
        f"(rel err {tp_err:.4f})",
    )


def test_criterion_06_directional_overshoot_claim():
    result = compare_controllers(
        presets.default_scenario(),
        presets.default_pid_config(),
        presets.default_fuzzy_controller(),
    )
    os_pid = result.pid_metrics.overshoot_pct
    os_fuzzy = result.fuzzy_metrics.overshoot_pct
    ok = (
        os_fuzzy < os_pid
        and abs(os_pid - PINNED_PID_OVERSHOOT) <= 0.1
        and abs(os_fuzzy - PINNED_FUZZY_OVERSHOOT) <= 0.1
    )
    _verdict(
        6,
        "fuzzy overshoot below PID overshoot",
        ok,
        f"PID {os_pid:.4f}% (pin {PINNED_PID_OVERSHOOT}), "
        f"fuzzy {os_fuzzy:.4f}% (pin {PINNED_FUZZY_OVERSHOOT})",
    )


def test_criterion_07_disturbance_rejection():
    scenario = presets.disturbance_scenario()
    result = compare_controllers(
        scenario, presets.default_pid_config(), presets.default_fuzzy_controller()
    )
    t0 = presets.DISTURBANCE_TIME
    dev_pid = peak_deviation(result.pid_trajectory, t0)
    dev_fuzzy = peak_deviation(result.fuzzy_trajectory, t0)
    band = 0.02 * presets.DEFAULT_SETPOINT

    def reenters(traj):
        tail = traj.y[traj.t >= scenario.duration - 0.5]
        return bool(np.all(np.abs(tail - presets.DEFAULT_SETPOINT) <= band))

    ok = (
        reenters(result.pid_trajectory)
        and reenters(result.fuzzy_trajectory)
        and dev_fuzzy <= dev_pid
        and abs(dev_pid - PINNED_PID_PEAK_DEVIATION) <= 1e-4
        and abs(dev_fuzzy - PINNED_FUZZY_PEAK_DEVIATION) <= 1e-4
    )
    _verdict(
        7,
        "disturbance rejection",
        ok,
        f"peak deviation PID {dev_pid:.6f} (pin {PINNED_PID_PEAK_DEVIATION}), "
        f"fuzzy {dev_fuzzy:.6f} (pin {PINNED_FUZZY_PEAK_DEVIATION}), "
        f"re-entry pid={reenters(result.pid_trajectory)} fuzzy={reenters(result.fuzzy_trajectory)}",
    )


def test_criterion_08_degenerate_equivalence():
    gains = presets.DEFAULT_BASE_GAINS
    zero_factors = sf.ScalingFactors(ke=5.0, kec=0.8, kup=0.0, kui=0.0, kud=0.0)
    scenario = SimScenario(
        setpoint=5.0, duration=60.0, dt=2e-3, controller=PidConfig(gains=gains)
    )
    result = compare_controllers(
        scenario,
        PidConfig(gains=gains),
        sf.FuzzyPidController(base=gains, factors=zero_factors),
    )
    identical = all(
        np.array_equal(
            getattr(result.pid_trajectory, column), getattr(result.fuzzy_trajectory, column)
        )
        for column in TRAJECTORY_COLUMNS
    )
    _verdict(
        8,
        "degenerate equivalence over 60 s",
        identical and not result.pid_trajectory.blown_up,
        f"{len(result.pid_trajectory)} rows bit-identical={identical}",
    )


def test_criterion_09_rk4_vs_exact_discretization():
    a, b, c_exact = map(np.asarray, tf_to_ss(PIPELINE_TF))
    dt = 1e-4
    steps = 10000
    phi, gamma = exact_zoh_discretization(a, b, dt)
    rows, c = rk4_zoh(PIPELINE_TF, dt)
    step = compile_step(rows, c)
    x = (0.0,) * len(rows)
    x_exact = np.zeros(len(rows))
    max_err = 0.0
    max_ref = 0.0
    for k in range(steps):
        u = math.sin(2.0 * math.pi * 5.0 * k * dt)
        x, y = step(x, u)
        x_exact = phi @ x_exact + gamma * u
        y_exact = float(c_exact @ x_exact)
        max_err = max(max_err, abs(y - y_exact))
        max_ref = max(max_ref, abs(y_exact))
    rel = max_err / max_ref
    _verdict(9, "RK4 vs exact discretization", rel <= 1e-6, f"relative error = {rel:.3e}")


def test_criterion_10_csv_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "--controller", "fuzzy-pid"]
    code_a = cli_main(args + ["--output", str(out_a)])
    code_b = cli_main(args + ["--output", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    _verdict(
        10,
        "byte-exact CSV determinism",
        code_a == 0 and code_b == 0 and identical,
        f"{out_a.stat().st_size} bytes, identical={identical}",
    )
