"""Seeded design of the robustness sweep.

Each sweep scenario perturbs the shipped spray-line loop: the pipeline
model 43956 / (0.0037 s^2 + s), the default PID base gains and the fuzzy
input factors, stepping to the default setpoint at dt = 1e-4 s.

The design is a Latin hypercube. Every continuous dimension is cut into
N_SCENARIOS equal strata and each stratum is used exactly once, and the
three disturbance kinds appear equally often. Any seed therefore covers
every range evenly and the per-run totals (steps simulated, share of
disturbed runs) hardly move between seeds; the seed only changes how the
values are paired. That keeps throughput comparable across seeds while
still reaching many different rule cells.

This module uses only the standard library, so a design is the same
whatever numpy version is installed, and building it costs nothing that
the program would not pay itself.
"""
from __future__ import annotations

import hashlib
import json
import random

N_SCENARIOS = 32
# A seed picks design seed % DESIGNS, so that every seed a run is given
# lands on a design whose figures reference/sweep.json pins.
DESIGNS = 32
DT = 1e-4
SETPOINT = 5.0
PLANT_GAIN = 43956.0
PLANT_LAG = 0.0037
BASE_KP, BASE_KI, BASE_KD = 0.0045, 0.05, 5e-6
BASE_KE, BASE_KEC = 5.0, 0.8
INPUT_DISTURBANCE = 1e-3
OUTPUT_DISTURBANCE = 0.05 * SETPOINT

# name, low, high, log-scaled, why the dimension is varied.
DIMENSIONS = (
    ("plant_gain", 0.7 * PLANT_GAIN, 1.3 * PLANT_GAIN, False,
     "+-30% error in the identified pipeline gain: does the fuzzy advantage survive model error"),
    ("plant_lag", 0.7 * PLANT_LAG, 1.3 * PLANT_LAG, False,
     "+-30% error in the 3.7 ms lag, which sets the damping of the loop"),
    ("kp", 0.75 * BASE_KP, 1.25 * BASE_KP, False,
     "base proportional gain: moves overshoot and how far e swings"),
    ("ki", 0.75 * BASE_KI, 1.25 * BASE_KI, False,
     "base integral gain: moves the slow tail and disturbance recovery"),
    ("kd", 0.75 * BASE_KD, 1.25 * BASE_KD, False,
     "base derivative gain: moves damping and the size of ec"),
    ("ke", 0.5 * BASE_KE, 2.0 * BASE_KE, True,
     "error quantization factor: changes which E labels fire and how often e saturates"),
    ("kec", 0.5 * BASE_KEC, 2.0 * BASE_KEC, True,
     "error-rate quantization factor: changes which EC labels fire and how often ec saturates"),
    ("duration", 0.1, 0.3, False,
     "run length: shifts the share of fixed per-scenario cost (tf_to_ss, allocation, metrics)"),
    ("disturbance_at", 0.4, 0.7, False,
     "disturbance onset as a fraction of the duration, after the step has mostly settled"),
    ("disturbance_size", 0.5, 2.0, True,
     "disturbance magnitude relative to the nominal size of its port"),
)

# None: pure setpoint step. Input: load change on the pump command (the
# paper's disturbance test). Output: a sensor offset, which e sees at once.
DISTURBANCE_KINDS = ("none", "plant-input", "plant-output")


def _stratified(rng: random.Random) -> list[float]:
    """N_SCENARIOS points in [0, 1), one in each of N_SCENARIOS equal
    strata, in random order."""
    points = [(i + rng.random()) / N_SCENARIOS for i in range(N_SCENARIOS)]
    rng.shuffle(points)
    return points


def generate(seed: int) -> list[dict]:
    """The sweep's scenario parameters for one seed, as plain dicts."""
    rng = random.Random(seed % DESIGNS)
    columns = {}
    for name, low, high, log_scaled, _why in DIMENSIONS:
        unit = _stratified(rng)
        if log_scaled:
            columns[name] = [low * (high / low) ** v for v in unit]
        else:
            columns[name] = [low + (high - low) * v for v in unit]
    kinds = [DISTURBANCE_KINDS[i % len(DISTURBANCE_KINDS)] for i in range(N_SCENARIOS)]
    rng.shuffle(kinds)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(N_SCENARIOS)]

    design = []
    for i in range(N_SCENARIOS):
        p = {name: columns[name][i] for name, *_ in DIMENSIONS}
        kind = kinds[i]
        spec = {
            "plant_num": [p["plant_gain"]],
            "plant_den": [p["plant_lag"], 1.0, 0.0],
            "kp": p["kp"],
            "ki": p["ki"],
            "kd": p["kd"],
            "ke": p["ke"],
            "kec": p["kec"],
            "duration": p["duration"],
            "dt": DT,
            "setpoint": SETPOINT,
            "disturbance": None,
        }
        if kind != "none":
            nominal = INPUT_DISTURBANCE if kind == "plant-input" else OUTPUT_DISTURBANCE
            spec["disturbance"] = {
                "port": kind,
                "time": p["disturbance_at"] * p["duration"],
                "magnitude": signs[i] * nominal * p["disturbance_size"],
            }
        design.append(spec)
    return design


def design_hash(design: list[dict]) -> str:
    """sha256 of the canonical JSON of a design; floats round-trip exactly."""
    text = json.dumps(design, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def deviation_window_start(spec: dict) -> float:
    """Start of the peak-deviation window: the disturbance onset, or half
    the run (the residual error after the step) when there is none."""
    if spec["disturbance"] is not None:
        return spec["disturbance"]["time"]
    return 0.5 * spec["duration"]


def build(spec: dict, sprayflow):
    """(scenario, pid config, fuzzy controller) for one design entry."""
    gains = sprayflow.PidGains(kp=spec["kp"], ki=spec["ki"], kd=spec["kd"])
    factors = sprayflow.ScalingFactors(
        ke=spec["ke"],
        kec=spec["kec"],
        kup=sprayflow.presets.DEFAULT_FACTORS.kup,
        kui=sprayflow.presets.DEFAULT_FACTORS.kui,
        kud=sprayflow.presets.DEFAULT_FACTORS.kud,
    )
    disturbances = ()
    if spec["disturbance"] is not None:
        d = spec["disturbance"]
        disturbances = (
            sprayflow.Disturbance(time=d["time"], magnitude=d["magnitude"], port=d["port"]),
        )
    pid_config = sprayflow.PidConfig(gains=gains)
    scenario = sprayflow.SimScenario(
        setpoint=spec["setpoint"],
        duration=spec["duration"],
        dt=spec["dt"],
        controller=pid_config,
        plant=sprayflow.TransferFunction(
            num=tuple(spec["plant_num"]), den=tuple(spec["plant_den"])
        ),
        disturbances=disturbances,
    )
    fuzzy = sprayflow.FuzzyPidController(base=gains, factors=factors)
    return scenario, pid_config, fuzzy

