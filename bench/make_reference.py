#!/usr/bin/env python3
"""Write bench/reference/sweep.json: the sweep's pinned per-scenario figures.

    python3 bench/make_reference.py

For each of the sweep.DESIGNS designs a seed can pick, it generates the
design, runs each scenario through compare_controllers + peak_deviation,
and stores both controllers' overshoot and peak deviation together with
the design's hash. bench/run.py then checks every sweep scenario against
these figures, with the acceptance tolerances (overshoot +-0.1 points,
deviation +-1e-4). Regenerate only when the simulated behaviour is meant
to change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import sweep


def main() -> int:
    sf = run.import_sprayflow()
    designs = {}
    for seed in range(sweep.DESIGNS):
        workload = run.Sweep(sf, seed, workdir=None)
        rows = []
        for index, unit in enumerate(workload.units()):
            result = workload.run(unit)
            problems = workload.check(index, unit, result)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            figures = run.figures(*result)
            rows.append([round(figures[column], 9) for column in run.REFERENCE_COLUMNS])
        designs[str(seed)] = {"design_sha256": workload.design_hash, "scenarios": rows}
        print(f"design {seed}: {len(rows)} scenarios", file=sys.stderr)
    lines = [f"{json.dumps(seed)}: {json.dumps(entry)}" for seed, entry in designs.items()]
    text = (
        f'{{"columns": {json.dumps(run.REFERENCE_COLUMNS)},\n"designs": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    out = Path(run.REFERENCE_FILE)
    out.parent.mkdir(exist_ok=True)
    out.write_text(text, encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
