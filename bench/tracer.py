"""Call-site tracing of sprayflow's module entry points, from outside.

The tracer replaces module attributes that callers resolve at run time
(`sprayflow.harness.plant_step`, `sprayflow.adaptive.infer_deltas`,
`sprayflow.fuzzy.fuzzify`, ...) with timing wrappers while it is active,
and puts the originals back afterwards. No file of the program changes.

Spans live in memory only. A span's self time is its duration minus the
time covered by its child spans; calls are single-threaded, so children
nest strictly and their covered time is the sum of their durations.

When a later version of the program inlines a call site, or removes an
entry point, nothing breaks: that entry point reports zero calls and its
time shows up in its caller's self time.
"""
from __future__ import annotations

import os
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "sprayflow"

# Entry points, as (defining module, function). The metric prefix is
# "<module>.<function>".
ENTRY_POINTS = (
    ("fuzzy", "quantize"),
    ("fuzzy", "fuzzify"),
    ("fuzzy", "infer_deltas"),
    ("fuzzy", "scale_deltas"),
    ("adaptive", "fuzzy_pid_step"),
    ("pid", "pid_step"),
    ("plant", "tf_to_ss"),
    ("plant", "plant_step"),
    ("plant", "apply_disturbances"),
    ("harness", "run_closed_loop"),
    ("harness", "compute_metrics"),
    ("harness", "peak_deviation"),
    ("cli", "write_trajectory_csv"),
    ("cli", "read_trajectory_csv"),
    ("cli", "main"),
)

UNIVERSE_LIMIT = 6.0


class Stat:
    """Aggregates of one entry point."""

    __slots__ = ("calls", "self_s", "incl_s", "durations", "extra")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        # Inclusive duration of every call, kept only where percentiles are reported.
        self.durations = array("d") if keep_durations else None
        # Counters observed from arguments or results (saturations, bytes, rows).
        self.extra = 0.0


def _observe_quantize(stat: Stat, args, kwargs, result) -> None:
    if abs(result) >= UNIVERSE_LIMIT:
        stat.extra += 1


def _observe_blow_up(stat: Stat, args, kwargs, result) -> None:
    if result.blown_up:
        stat.extra += 1


def _observe_written_bytes(stat: Stat, args, kwargs, result) -> None:
    path = kwargs["path"] if "path" in kwargs else args[1]
    stat.extra += os.path.getsize(path)


def _observe_rows(stat: Stat, args, kwargs, result) -> None:
    stat.extra += len(result)


OBSERVERS = {
    "fuzzy.quantize": _observe_quantize,
    "harness.run_closed_loop": _observe_blow_up,
    "cli.write_trajectory_csv": _observe_written_bytes,
    "cli.read_trajectory_csv": _observe_rows,
}


class Tracer:
    """Wraps the entry points of an imported sprayflow package.

    keep_durations names the entry points whose every call duration is
    kept, for percentiles; the others keep only sums.
    """

    def __init__(self, keep_durations=frozenset()):
        self.stats = {
            f"{module}.{func}": Stat(f"{module}.{func}" in keep_durations)
            for module, func in ENTRY_POINTS
        }
        self.missing = []
        self._stack = []
        # (module object, attribute name, original, wrapper) for every patched site.
        self._sites = []
        for module, func in ENTRY_POINTS:
            name = f"{module}.{func}"
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(self.stats[name], original, OBSERVERS.get(name))
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, attr, original, wrapper))

    def _wrap(self, stat: Stat, fn, observe):
        clock = time.perf_counter
        stack = self._stack
        durations = stat.durations

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat.calls += 1
                stat.incl_s += duration
                stat.self_s += duration - frame[0]
                if durations is not None:
                    durations.append(duration)
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Route every patched call site through its wrapper for the block."""
        for mod, attr, _original, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _wrapper in self._sites:
                setattr(mod, attr, original)
            self._stack.clear()

    def counts(self) -> dict[str, tuple[int, float]]:
        """(calls, observed counter) per entry point, for exact comparison between rounds."""
        return {name: (stat.calls, stat.extra) for name, stat in self.stats.items()}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
