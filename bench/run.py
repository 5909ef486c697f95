#!/usr/bin/env python3
"""Benchmark of the sprayflow closed-loop simulator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. Every workload is a closed loop with
one caller: a scenario starts only when the previous one has finished,
in this one process, with no threads.

--trace 0 measures the end-to-end metrics with tracing off; their
timings are corrected for the host's speed drift (see reference_work).
--trace 1
alternates untraced and traced rounds over a fixed set of scenarios and
reports per-entry-point counts and self time (see tracer.py), plus the
tracing overhead. Every scenario's output is checked; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every check passed, and
2 without a result when the program cannot be found or imported.

See bench/README.md for why each workload exists and which end-to-end
metric each per-layer metric should move.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference" / "sweep.json"

import sweep
import tracer as tracing

SETUP_PROBES = 15
# Median time of reference_work() on the host the bounds were set on.
REFERENCE_WORK_S = 0.021
SWEEP_TRACE_SCENARIOS = 8
MAX_REPORTED_FAILURES = 5

# Acceptance pins of the shipped tuning, with the acceptance suite's tolerances.
PINNED_FUZZY_OVERSHOOT = 8.6777
PINNED_PID_PEAK_DEVIATION = 0.219776
OVERSHOOT_TOL = 0.1
DEVIATION_TOL = 1e-4

# The CSV stores nine decimals, so every re-read value is off by at most
# 5e-10, and each printed figure is rounded by up to 5e-10 again. A figure
# in output or time units may therefore differ by 1e-9 between simulate
# and metrics; the check allows twice that. The overshoot percentage
# scales a difference of two such values by 100 / |y_final|.
CSV_ROUNDING = 5e-10


class BenchError(Exception):
    """The benchmark cannot run: no program, bad arguments, bad reference."""


def import_sprayflow():
    """Import sprayflow from ./src of this checkout, or raise BenchError."""
    if not (SRC / "sprayflow" / "__init__.py").is_file():
        raise BenchError(f"no sprayflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sprayflow
    import sprayflow.cli

    if SRC.resolve() not in Path(sprayflow.__file__).resolve().parents:
        raise BenchError(f"imported sprayflow from {sprayflow.__file__}, not from {SRC}")
    return sprayflow


def trajectory_digest(traj) -> str:
    h = hashlib.sha256()
    for column in (traj.t, traj.r, traj.e, traj.u, traj.y, traj.kp, traj.ki, traj.kd):
        h.update(column.tobytes())
    return h.hexdigest()


def trajectory_problems(traj, steps: int, label: str) -> list[str]:
    # numpy is imported only where needed, so that the setup probe times
    # its import as part of importing sprayflow.
    import numpy as np

    problems = []
    if traj.blown_up:
        problems.append(f"{label}: numerical blow-up")
    if len(traj) != steps + 1:
        problems.append(f"{label}: {len(traj)} rows, expected {steps + 1}")
    for column in (traj.t, traj.r, traj.e, traj.u, traj.y, traj.kp, traj.ki, traj.kd):
        if not np.all(np.isfinite(column)):
            problems.append(f"{label}: non-finite values")
            break
    return problems


class Workload:
    """A list of scenarios run in a closed loop, and the checks on each."""

    name = ""

    def __init__(self, sf, seed: int, workdir: Path):
        self.sf = sf
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[int, str] = {}

    def units(self) -> list:
        raise NotImplementedError

    def trace_units(self) -> list:
        return self.units()

    def steps(self, unit) -> int:
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def check(self, index: int, unit, result) -> list[str]:
        raise NotImplementedError

    def same_as_before(self, index: int, digest: str) -> list[str]:
        first = self.digests.setdefault(index, digest)
        return [] if first == digest else [f"scenario {index}: output differs from its first run"]

    def describe(self) -> str:
        return ""


class FuzzyStep(Workload):
    """The shipped setpoint step with the fuzzy-PID controller, run + metrics."""

    name = "fuzzy_step"

    def __init__(self, sf, seed, workdir):
        super().__init__(sf, seed, workdir)
        presets = sf.presets
        self.scenario = presets.default_scenario(presets.default_fuzzy_controller())

    def units(self):
        return [self.scenario]

    def steps(self, unit):
        return unit.steps

    def run(self, unit):
        traj = self.sf.harness.run_closed_loop(unit)
        return traj, self.sf.harness.compute_metrics(traj)

    def check(self, index, unit, result):
        traj, metrics = result
        problems = trajectory_problems(traj, unit.steps, "fuzzy-pid")
        overshoot = metrics.overshoot_pct
        if overshoot is None or abs(overshoot - PINNED_FUZZY_OVERSHOOT) > OVERSHOOT_TOL:
            problems.append(f"fuzzy overshoot {overshoot!r}, pin {PINNED_FUZZY_OVERSHOOT}")
        return problems + self.same_as_before(index, trajectory_digest(traj))


def parse_metric_lines(text: str) -> dict[str, str]:
    """The 'label  value' lines printed by sprayflow simulate and metrics."""
    rows = {}
    for line in text.splitlines():
        label, _, value = line.rstrip().rpartition(" ")
        rows[label.strip()] = value
    return rows


class PidDisturbanceCli(Workload):
    """The 2 s input-disturbance scenario with fixed-gain PID, run through
    the command line as a user would: simulate to a CSV, then metrics."""

    name = "pid_disturbance_cli"

    def __init__(self, sf, seed, workdir):
        super().__init__(sf, seed, workdir)
        presets = sf.presets
        self.csv_path = str(workdir / "trajectory.csv")
        self.argv = [
            "simulate",
            "--controller", "pid",
            "--setpoint", repr(presets.DEFAULT_SETPOINT),
            "--duration", repr(presets.DISTURBANCE_DURATION),
            "--dt", repr(presets.DEFAULT_DT),
            "--disturbance-time", repr(presets.DISTURBANCE_TIME),
            "--disturbance-magnitude", repr(presets.DISTURBANCE_MAGNITUDE),
            "--disturbance-port", sf.PLANT_INPUT,
            "--output", self.csv_path,
        ]
        self.n_steps = presets.disturbance_scenario().steps
        self.deviation_checked = False

    def units(self):
        return [self.argv]

    def steps(self, unit):
        return self.n_steps

    def run(self, unit):
        cli = self.sf.cli
        simulate_out, metrics_out = io.StringIO(), io.StringIO()
        with redirect_stdout(simulate_out):
            simulate_rc = cli.main(unit)
        with redirect_stdout(metrics_out):
            metrics_rc = cli.main(["metrics", self.csv_path])
        return simulate_rc, simulate_out.getvalue(), metrics_rc, metrics_out.getvalue()

    def check(self, index, unit, result):
        simulate_rc, simulate_out, metrics_rc, metrics_out = result
        problems = []
        if simulate_rc != 0 or metrics_rc != 0:
            return [f"exit codes simulate={simulate_rc} metrics={metrics_rc}"]
        with open(self.csv_path, "rb") as fh:
            csv_bytes = fh.read()
        problems += self.same_as_before(index, hashlib.sha256(csv_bytes).hexdigest())
        problems += self._compare_reports(simulate_out, metrics_out)
        # Identical bytes on every later pass make one read-back enough.
        if not self.deviation_checked:
            self.deviation_checked = True
            traj = self.sf.cli.read_trajectory_csv(self.csv_path)
            problems += trajectory_problems(traj, self.n_steps, "csv")
            t0 = self.sf.presets.DISTURBANCE_TIME
            deviation = self.sf.harness.peak_deviation(traj, t0)
            if abs(deviation - PINNED_PID_PEAK_DEVIATION) > DEVIATION_TOL:
                problems.append(
                    f"peak deviation {deviation!r}, pin {PINNED_PID_PEAK_DEVIATION}"
                )
        return problems

    @staticmethod
    def _compare_reports(simulate_out: str, metrics_out: str) -> list[str]:
        simulated = parse_metric_lines(simulate_out)
        reread = parse_metric_lines(metrics_out)
        if simulated.keys() != reread.keys() or "final value" not in simulated:
            return [f"metrics report {sorted(reread)} does not match simulate {sorted(simulated)}"]
        y_final = abs(float(simulated["final value"]))
        problems = []
        for label, a in simulated.items():
            b = reread[label]
            if label == "settled" or "undefined" in (a, b):
                if a != b:
                    problems.append(f"{label}: simulate {a}, metrics {b}")
                continue
            tol = 4 * CSV_ROUNDING
            if label == "overshoot %" and y_final > 0:
                tol += 100.0 * 4 * CSV_ROUNDING / y_final
            if abs(float(a) - float(b)) > tol:
                problems.append(f"{label}: simulate {a}, metrics {b}, tolerance {tol:.1e}")
        return problems


class Sweep(Workload):
    """A seeded robustness sweep: PID against fuzzy-PID on many perturbed loops."""

    name = "sweep"

    def __init__(self, sf, seed, workdir):
        super().__init__(sf, seed, workdir)
        self.design = sweep.generate(seed)
        self.design_hash = sweep.design_hash(self.design)
        self.scenarios = [(spec, *sweep.build(spec, sf)) for spec in self.design]
        self.reference = None

    def load_reference(self) -> None:
        """The pinned figures of this seed's design; every design has them."""
        with open(REFERENCE_FILE, encoding="ascii") as fh:
            table = json.load(fh)
        entry = table["designs"].get(str(self.seed % sweep.DESIGNS))
        if entry is None or entry["design_sha256"] != self.design_hash:
            raise BenchError(
                f"{REFERENCE_FILE.name} has no figures for the design of seed {self.seed}"
            )
        self.reference = [dict(zip(table["columns"], row)) for row in entry["scenarios"]]

    def units(self):
        return self.scenarios

    def trace_units(self):
        return self.scenarios[:SWEEP_TRACE_SCENARIOS]

    def steps(self, unit):
        return 2 * unit[1].steps

    def run(self, unit):
        spec, scenario, pid_config, fuzzy = unit
        harness = self.sf.harness
        result = harness.compare_controllers(scenario, pid_config, fuzzy)
        t0 = sweep.deviation_window_start(spec)
        return (
            result,
            harness.peak_deviation(result.pid_trajectory, t0),
            harness.peak_deviation(result.fuzzy_trajectory, t0),
        )

    def check(self, index, unit, result):
        comparison, dev_pid, dev_fuzzy = result
        steps = unit[1].steps
        problems = trajectory_problems(comparison.pid_trajectory, steps, f"scenario {index} pid")
        problems += trajectory_problems(
            comparison.fuzzy_trajectory, steps, f"scenario {index} fuzzy-pid"
        )
        if self.reference is not None:  # None only inside make_reference.py
            got = figures(comparison, dev_pid, dev_fuzzy)
            for key, want in self.reference[index].items():
                tol = OVERSHOOT_TOL if key.startswith("overshoot") else DEVIATION_TOL
                if got[key] is None or abs(got[key] - want) > tol:
                    problems.append(f"scenario {index} {key}: {got[key]!r}, reference {want!r}")
        digest = trajectory_digest(comparison.pid_trajectory)
        digest += trajectory_digest(comparison.fuzzy_trajectory)
        return problems + self.same_as_before(index, digest)

    def describe(self):
        return (
            f"design {self.seed % sweep.DESIGNS}: {len(self.design)} scenarios, "
            f"sha256 {self.design_hash}; checked against {REFERENCE_FILE.name}"
        )


REFERENCE_COLUMNS = ["overshoot_pid", "overshoot_fuzzy", "deviation_pid", "deviation_fuzzy"]


def figures(comparison, dev_pid: float, dev_fuzzy: float) -> dict:
    """The per-scenario figures the sweep reference table pins."""
    return {
        "overshoot_pid": comparison.pid_metrics.overshoot_pct,
        "overshoot_fuzzy": comparison.fuzzy_metrics.overshoot_pct,
        "deviation_pid": dev_pid,
        "deviation_fuzzy": dev_fuzzy,
    }


WORKLOADS = {cls.name: cls for cls in (FuzzyStep, PidDisturbanceCli, Sweep)}


class Tally:
    """Attempted and failed scenarios, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload: Workload, index: int, unit, tracer=None) -> float:
        """Run and check one scenario; return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(unit)
            else:
                with tracer.active():
                    result = workload.run(unit)
        except Exception:
            wall = time.perf_counter() - start
            self.fail([f"scenario {index} raised:\n{traceback.format_exc()}"])
            return wall
        wall = time.perf_counter() - start
        try:
            problems = workload.check(index, unit, result)
        except Exception:
            problems = [f"scenario {index} check raised:\n{traceback.format_exc()}"]
        if problems:
            self.fail(problems)
        return wall

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work() -> float:
    """Time a fixed piece of work that never calls sprayflow; return seconds.

    The shared host this benchmark was tuned on runs up to ±20% faster or
    slower for minutes at a time. Paired one to one with scenarios and
    set-up probes, this work slows down with them, so dividing by it
    removes most of that drift; a change to sprayflow cannot move it. It
    mixes what the simulator's step does: Python calls and float
    arithmetic, 2x2 numpy products and small objects.
    """
    import numpy as np

    start = time.perf_counter()

    def f(x, y):
        return x * 1.0000001 + y, y - x * 1e-9

    x, y = 0.1, 0.2
    for _ in range(40000):
        x, y = f(x, y)
    m = np.array([[0.0, 1.0], [-270.0, 0.0]])
    v, b = np.zeros(2), np.array([0.0, 1.0])
    pairs = []
    for i in range(3000):
        v = v + 1e-6 * (m @ v + b)
        pairs.append(_Pair(float(v[0]), i))
        if len(pairs) > 500:
            pairs.clear()
    return time.perf_counter() - start


def measure_end_to_end(workload: Workload, seconds: float, tally: Tally, setup_once) -> dict:
    """Run scenarios for `seconds`, and SETUP_PROBES set-up probes spread
    evenly over the same span, so that both sample the host's slow and
    fast phases alike. Each scenario and probe is preceded by
    reference_work(), and is recorded with the host's slowdown then."""
    units = workload.units()
    tally.run(workload, 0, units[0])  # warm-up: caches, lazy imports
    setup_once()  # warm-up: file cache
    reference_work()
    scenarios, setups = [], []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            slowdown = reference_work() / REFERENCE_WORK_S
            setups.append((setup_once(), slowdown))
        elif i == 0 or elapsed < seconds:
            index = i % len(units)
            slowdown = reference_work() / REFERENCE_WORK_S
            wall = tally.run(workload, index, units[index])
            scenarios.append((workload.steps(units[index]), wall, slowdown))
            i += 1
        else:
            return {"scenarios": scenarios, "setup": setups}


def measure_traced(workload: Workload, seconds: float, tally: Tally, tracer) -> dict:
    units = workload.trace_units()
    tally.run(workload, 0, units[0])
    untraced_rounds, traced_rounds, round_counts = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_rounds or time.perf_counter() < deadline:
        untraced_rounds.append(sum(tally.run(workload, i, u) for i, u in enumerate(units)))
        before = tracer.counts()
        traced_rounds.append(
            sum(tally.run(workload, i, u, tracer) for i, u in enumerate(units))
        )
        after = tracer.counts()
        round_counts.append(
            {name: tuple(a - b for a, b in zip(after[name], before[name])) for name in after}
        )
    if any(counts != round_counts[0] for counts in round_counts):
        tally.fail(["traced counts differ between rounds of the same scenarios"])
    return {
        "untraced": untraced_rounds,
        "traced": traced_rounds,
        "counts": round_counts[0],
    }


def measure_setup(workload_name: str, seed: int) -> float:
    """Import-and-build time of the workload in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload_name, "--seed", str(seed), "--seconds", "0", "--trace", "0",
        "--setup-probe",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def setup_probe(workload_name: str, seed: int) -> None:
    start = time.perf_counter()
    sf = import_sprayflow()
    workload = WORKLOADS[workload_name](sf, seed, ROOT / ".bench_tmp")
    workload.units()
    print(repr(time.perf_counter() - start))


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for p in (75, 90, 95, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, nearest_rank(ordered, p / 100))
    return best


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def end_to_end_metrics(sample: dict) -> tuple[dict, list[str]]:
    """Timings at the reference host speed: each one divided by the
    host's slowdown measured just before it."""
    scenarios, setups = sample["scenarios"], sample["setup"]
    n = len(scenarios)
    walls = [wall / slowdown for _, wall, slowdown in scenarios]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates = [steps / wall for (steps, _, _), wall in zip(scenarios, walls)]
    metrics = {
        "setup_s": (statistics.median(t / slowdown for t, slowdown in setups), "s"),
        "steps_per_s": (statistics.median(rates), "1/s"),
        "scenario_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    slowdowns = [slowdown for *_, slowdown in scenarios + setups]
    notes = [
        f"setup_s: median of {len(setups)} fresh processes spread over the run",
        f"steps_per_s, scenario_ms_p50: median of {n} scenarios",
        f"host slowdown against {REFERENCE_WORK_S * 1e3:g} ms of reference work: "
        f"median {statistics.median(slowdowns):.4f} over {len(slowdowns)} pairs",
        "uncorrected: setup_s {:.6f} s, steps_per_s {:.3f} 1/s, scenario_ms_p50 {:.3f} ms".format(
            statistics.median(t for t, _ in setups),
            statistics.median(steps / wall for steps, wall, _ in scenarios),
            statistics.median(wall for _, wall, _ in scenarios) * 1e3,
        ),
    ]
    tail = tail_percentile(walls)
    if tail is not None:
        notes.append(f"scenario_ms_p{tail[0]}: {tail[1] * 1e3:.3f} ms (n={n})")
    return metrics, notes


# Per-layer metrics reported from the traced run, by entry point.
LAYER_STATS = {
    "fuzzy.infer_deltas": ("calls", "self_us", "share"),
    "fuzzy.fuzzify": ("calls", "self_us", "share"),
    "fuzzy.quantize": ("calls", "self_us", "saturated_frac"),
    "fuzzy.scale_deltas": ("calls", "self_us"),
    "adaptive.fuzzy_pid_step": ("calls", "self_us", "share", "us_p50", "us_p99"),
    "plant.plant_step": ("calls", "self_us", "share"),
    "plant.apply_disturbances": ("calls", "self_us"),
    "pid.pid_step": ("calls", "self_us", "share"),
    "harness.run_closed_loop": ("calls", "self_us", "share", "blown_up"),
    "plant.tf_to_ss": ("calls", "self_us"),
    "harness.compute_metrics": ("calls", "self_us"),
    "harness.peak_deviation": ("calls", "self_us"),
    "cli.write_trajectory_csv": ("calls", "self_us", "share", "mb_per_s"),
    "cli.read_trajectory_csv": ("calls", "self_us", "share", "rows_per_s"),
    "cli.main": ("calls", "self_us"),
}

STAT_UNITS = {
    "calls": "count",
    "blown_up": "count",
    "self_us": "us",
    "us_p50": "us",
    "us_p99": "us",
    "share": "fraction",
    "saturated_frac": "fraction",
    "mb_per_s": "MB/s",
    "rows_per_s": "rows/s",
}


def per_layer_metrics(sample: dict, tracer) -> tuple[dict, list[str]]:
    traced_wall = sum(sample["traced"])
    counts = sample["counts"]
    metrics = {}
    notes = [
        f"{len(sample['traced'])} traced and untraced rounds of "
        f"{traced_wall / len(sample['traced']):.3f} s traced; calls are per round",
        f"{'entry point':<28}{'calls':>10}{'self_us':>12}{'share':>9}",
    ]
    if tracer.missing:
        notes.append(f"entry points not found (0 calls): {', '.join(tracer.missing)}")
    covered = 0.0
    for name, stat in tracer.stats.items():
        calls, extra = counts[name]
        self_us = stat.self_s / stat.calls * 1e6 if stat.calls else 0.0
        share = stat.self_s / traced_wall
        covered += share
        notes.append(f"{name:<28}{calls:>10}{self_us:>12.3f}{share:>9.4f}")
        values = {
            "calls": calls,
            "self_us": self_us,
            "share": share,
            "saturated_frac": extra / calls if calls else 0.0,
            "blown_up": int(extra),
            "mb_per_s": stat.extra / 1e6 / stat.incl_s if stat.calls else 0.0,
            "rows_per_s": stat.extra / stat.incl_s if stat.calls else 0.0,
        }
        if stat.durations is not None:
            ordered = sorted(stat.durations)
            values["us_p50"] = nearest_rank(ordered, 0.50) * 1e6
            values["us_p99"] = nearest_rank(ordered, 0.99) * 1e6
        for key in LAYER_STATS.get(name, ()):
            metrics[f"{name}.{key}"] = (values[key], STAT_UNITS[key])
    notes.append(f"{'(benchmark and untraced code)':<28}{'':>10}{'':>12}{1 - covered:>9.4f}")
    overhead = statistics.median(sample["traced"]) / statistics.median(sample["untraced"]) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="measuring time; 0 runs the smallest complete measurement",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.seconds >= 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be a non-negative number")
    return args


def main(argv=None) -> int:
    # The simulator is single-threaded and its only BLAS calls are 2x2
    # products, so workloads run with no threads at all. An idle BLAS
    # thread pool would not speed anything up, but starting it when numpy
    # is imported makes setup_s depend on how busy the other cores are.
    # The setup probes inherit this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        sf = import_sprayflow()
        workdir.mkdir(parents=True)
        workload = WORKLOADS[args.workload](sf, args.seed, workdir)
        if isinstance(workload, Sweep):
            workload.load_reference()
        tally = Tally()
        if args.trace:
            tracer = tracing.Tracer(
                keep_durations={name for name, stats in LAYER_STATS.items() if "us_p50" in stats}
            )
            sample = measure_traced(workload, args.seconds, tally, tracer)
            metrics, notes = per_layer_metrics(sample, tracer)
        else:
            sample = measure_end_to_end(
                workload, args.seconds, tally, lambda: measure_setup(args.workload, args.seed)
            )
            metrics, notes = end_to_end_metrics(sample)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"machine: {json.dumps(machine_info())}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if workload.describe():
        print(workload.describe())
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{name:<36}{shown} {unit}")
    for note in notes:
        print(note)
    print(f"failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
