#!/usr/bin/env python3
"""Bit manifest of the simulator: one sha256 per group of runs.

    PYTHONPATH=src python3 tests/bits.py            # check every group
    PYTHONPATH=src python3 tests/bits.py sweep-full # check some groups
    PYTHONPATH=src python3 tests/bits.py --write    # regenerate tests/bits.json

A group's digest covers, for each run in order, its row count, its
blown_up flag and its columns packed as little-endian doubles in
`harness.COLUMNS` order; for the CSV group, the length and bytes of each
file that `sprayflow simulate` writes. A failing group names what
changed. Metrics are left out, so a change to `compute_metrics` moves no
digest. `test_bits.py` checks every group but `sweep-full` (all 32
designs of the benchmark's sweep, about 7 s), which CI checks with this
script. Regenerate only when the simulated bits are meant to change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import sprayflow
from sprayflow import cli, presets
from sprayflow.harness import COLUMNS, PidConfig, SimScenario, compare_controllers
from sprayflow.pid import PidGains
from sprayflow.plant import PIPELINE_TF, PLANT_INPUT, PLANT_OUTPUT, Disturbance, TransferFunction

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "bits.json"

_PID = presets.default_pid_config()
_FUZZY = presets.default_fuzzy_controller()
CONTROLLERS = (_PID, _FUZZY)


def _case(controller, disturbances=(), plant=PIPELINE_TF, setpoint=5.0):
    return SimScenario(
        setpoint=setpoint, duration=0.05, dt=1e-4,
        controller=controller, plant=plant, disturbances=disturbances,
    )


def _presets():
    for scenario in (presets.default_scenario, presets.disturbance_scenario):
        for controller in CONTROLLERS:
            yield scenario(controller)


def _disturbances():
    # n disturbances at seeded times in the run, each on a random port.
    rng = random.Random(12)
    for n in range(41):
        dists = tuple(
            Disturbance(
                time=rng.randrange(500) * 1e-4 if rng.random() < 0.5 else rng.uniform(0.0, 0.049),
                magnitude=rng.uniform(-2e-3, 2e-3) if port == PLANT_INPUT else rng.uniform(-1, 1),
                port=port,
            )
            for port in (rng.choice((PLANT_INPUT, PLANT_OUTPUT)) for _ in range(n))
        )
        yield _case(CONTROLLERS[n % 2], dists)


def _blow_ups():
    overflow = (Disturbance(time=1e-4, magnitude=-1e308, port=PLANT_OUTPUT),)
    rate_overflow = (Disturbance(time=1e-4, magnitude=1.5e308, port=PLANT_OUTPUT),)
    for controller in CONTROLLERS:
        yield _case(controller, overflow, setpoint=1e308)
        yield _case(controller, rate_overflow, setpoint=0.0)
        yield _case(controller, setpoint=1e300)
        yield _case(controller, setpoint=-1e200)


def _plant_orders():
    den_16 = PIPELINE_TF.den
    for _ in range(14):
        den_16 = tuple(
            (den_16[i] if i < len(den_16) else 0.0) + (1e-4 * den_16[i - 1] if i else 0.0)
            for i in range(len(den_16) + 1)
        )
    plants = (
        TransferFunction(num=(100.0,), den=(0.0037, 1.0)),
        TransferFunction(num=(43956.0,), den=(3.7e-6, 0.0047, 1.0, 0.0)),
        TransferFunction(num=(43956.0,), den=den_16),
    )
    dists = (
        Disturbance(time=0.02, magnitude=2e-3, port=PLANT_INPUT),
        Disturbance(time=0.0301, magnitude=-0.3, port=PLANT_OUTPUT),
    )
    for plant in plants:
        for controller in CONTROLLERS:
            yield _case(controller, dists, plant)


def _integer_gains():
    dists = (Disturbance(time=0.02, magnitude=2e-3, port=PLANT_INPUT),)
    for gains in (PidGains(kp=0.0045, ki=0, kd=0), PidGains(kp=0, ki=1, kd=0)):
        yield _case(PidConfig(gains=gains), dists)
        yield _case(replace(_FUZZY, base=gains), dists)


def _csv_files():
    disturbance = [
        "--duration", "2", "--disturbance-time", "0.5", "--disturbance-magnitude", "0.001",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "run.csv")
        for controller in ("pid", "fuzzy-pid"):
            for extra in ([], disturbance):
                argv = ["simulate", "--controller", controller, *extra, "--output", path]
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"sprayflow {' '.join(argv)} failed")
                yield Path(path).read_bytes()


def _sweep_designs(seeds):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import sweep
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for seed in seeds:
        for spec in sweep.generate(seed):
            result = compare_controllers(*sweep.build(spec, sprayflow))
            yield result.pid_trajectory
            yield result.fuzzy_trajectory


def _runs(scenarios):
    for scenario in scenarios:
        yield sprayflow.run_closed_loop(scenario)


GROUPS = {
    "presets": lambda: _runs(_presets()),
    "disturbances": lambda: _runs(_disturbances()),
    "blow-ups": lambda: _runs(_blow_ups()),
    "plant-orders": lambda: _runs(_plant_orders()),
    "integer-gains": lambda: _runs(_integer_gains()),
    "csv": _csv_files,
    "sweep-design-0": lambda: _sweep_designs([0]),
    "sweep-full": lambda: _sweep_designs(range(32)),
}


def digest(group: str) -> str:
    """The sha256 of a group's runs, or of its CSV files."""
    h = hashlib.sha256()
    for item in GROUPS[group]():
        if isinstance(item, bytes):
            h.update(struct.pack("<q", len(item)) + item)
            continue
        h.update(struct.pack("<q?", len(item), item.blown_up))
        for name in COLUMNS:
            h.update(getattr(item, name).astype("<f8").tobytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        text = json.dumps({group: digest(group) for group in GROUPS}, indent=2)
        MANIFEST.write_text(text + "\n", encoding="ascii")
        return 0
    want = json.loads(MANIFEST.read_text("ascii"))
    failed = 0
    for group in argv or GROUPS:
        got = digest(group)
        ok = got == want[group]
        failed += not ok
        print(f"{group}: {'ok' if ok else f'CHANGED {got}, manifest {want[group]}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
