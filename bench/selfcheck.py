#!/usr/bin/env python3
"""Self-check of the benchmark, with no timing thresholds.

    python3 bench/selfcheck.py

Checks that BENCHMARK.json is well formed and agrees with bench/run.py,
then runs every workload at the smallest size (--seconds 0: one warm-up
and one measured scenario, or one untraced and one traced round) with
tracing off and on. Each run must exit 0 and end with a result line of
the right schema whose metric names and units are exactly the ones
BENCHMARK.json declares. Traced runs are made twice, and their counts
must repeat exactly. Last, the benchmark must fail, without a result,
in a directory that holds only BENCHMARK.json and the benchmark.
Exits 0 when everything holds; lists each problem otherwise.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
METRIC_KEYS = {"name", "unit", "better"}
RUN_TIMEOUT = 180


def check_spec(spec: dict, problems: list[str]) -> None:
    if set(spec) != TOP_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
        return
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("names are not unique")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']!r} malformed")
    for m in spec["end_to_end"]:
        if set(m) != METRIC_KEYS | {"bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end entry {m['name']!r} malformed")
    for m in spec["per_layer"]:
        if set(m) != METRIC_KEYS:
            problems.append(f"per_layer entry {m['name']!r} malformed")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric {m['name']!r} has a bad unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is missing")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")


def run_bench(args: list[str], cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result_of(label: str, rc: int, out: str, err: str, problems: list[str]) -> dict | None:
    if rc != 0:
        problems.append(f"{label}: exit code {rc}\n{err}")
        return None
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        problems.append(f"{label}: last line is not JSON")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted={result['attempted']!r}")
    return result


def check_metrics(label: str, result: dict, declared: list[dict], problems: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(
            f"{label}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
        )
    for name, entry in got.items():
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != want.get(name, entry["unit"]):
            problems.append(f"{label}: {name} entry {entry!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")


def check_bare_directory(problems: list[str]) -> None:
    """Without the program next to it, the benchmark must fail and print no result."""
    bare = ROOT / ".bench_tmp" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        rc, out, _ = run_bench(["--workload", "fuzzy_step", "--seed", "0", "--seconds", "1",
                                "--trace", "0"], bare)
        if rc == 0 or '"correct"' in out:
            problems.append(f"bare directory: exit code {rc}, output {out[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    problems: list[str] = []
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec, problems)
    if problems:
        print("\n".join(problems))
        return 1
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "0", "--seconds", "0"]
        label = f"{workload} trace=0"
        result = result_of(label, *run_bench(base + ["--trace", "0"], ROOT), problems)
        if result is not None:
            check_metrics(label, result, spec["end_to_end"], problems)
        counts = []
        for attempt in (1, 2):
            label = f"{workload} trace=1 (run {attempt})"
            result = result_of(label, *run_bench(base + ["--trace", "1"], ROOT), problems)
            if result is not None:
                check_metrics(label, result, spec["per_layer"], problems)
                counts.append({
                    name: entry["value"]
                    for name, entry in result["metrics"].items()
                    if entry["unit"] == "count" or name.endswith("saturated_frac")
                })
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between runs")
        print(f"{workload}: checked", flush=True)
    check_bare_directory(problems)
    if problems:
        print("\n".join(f"PROBLEM: {p}" for p in problems))
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
