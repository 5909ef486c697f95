"""The C library of the package: `_loop.c`, compiled once per source and cached.

One library serves the closed loop and the trajectory CSV. Each of
`loop()`, `format_rows()` and `parse_rows()` returns a function of the
library, or None where no library can be built or loaded; the library is
built or loaded on the first such call, not at import, and once per
process. The library is `cc` output for FLAGS, which keep every double
operation of the source one IEEE operation in source order
(-ffp-contract=off, no -ffast-math), so its runs have the bits of the
plain Python loop and its CSV the bytes of the Python writer and reader.

It is cached as $XDG_CACHE_HOME/sprayflow/loop-<sha256>.so, by default
under ~/.cache, named by the sha256 of the source, the flags and the
machine type, so a second process loads it without running a compiler,
and an edited source or flag builds a library of its own. The compiler
writes a temporary name that replaces the cached one only when complete.
Where that directory cannot be written, the library is built in a
temporary directory, loaded and deleted, once per process. Only where no
cached library exists and no `cc` is found is there no library; a
compiler that fails warns.

The modules that building and loading need, ctypes and subprocess among
them, are imported on the first call, not with the package.
"""
from __future__ import annotations

import functools
import os
import warnings
from collections.abc import Callable
from itertools import chain
from pathlib import Path

from .fuzzy import _P_SUMS, _R_SUMS
from .plant import MAX_ORDER

SOURCE = Path(__file__).with_name("_loop.c")
# After the source on the command line, so that the linker keeps libm.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared", f"-DMAX_ORDER={MAX_ORDER}", "-lm")


@functools.cache
def loop() -> Callable[..., int] | None:
    """The C loop, with the arguments and result of `harness._plain_loop`, or None.

    It takes the resting gains and the fuzzy-PID controller, or None for
    a fixed-gain PID, as `harness.run_closed_loop` resolves them, and
    passes the factors and the rule labels of the fuzzy one to C. It
    refuses a plant step whose order is not from 1 to MAX_ORDER or whose
    rows are not of its shape. The first call builds or loads the library
    (see the module docstring).
    """
    import ctypes

    lib = _library()
    if lib is None:
        return None
    doubles = ctypes.POINTER(ctypes.c_double)
    run = lib.sprayflow_loop
    run.restype = ctypes.c_int64
    run.argtypes = (
        ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.POINTER(ctypes.c_int64), doubles,
        ctypes.c_int64, ctypes.POINTER(ctypes.c_int64), doubles,
        doubles, doubles, doubles, doubles, doubles,
        ctypes.c_int64, doubles, doubles,
        doubles, doubles, ctypes.c_char_p, doubles, doubles,
    )

    def array(kind, values):
        values = tuple(values)
        return (kind * len(values))(*values)

    p_sums = array(ctypes.c_double, chain.from_iterable(_P_SUMS))
    r_sums = array(ctypes.c_double, chain.from_iterable(_R_SUMS))

    def c_loop(n_rows, dt, r, u_dists, y_dists, u_log, y_log, kp_log, ki_log, kd_log,
               rows, c, base, fuzzy):
        order = len(rows)
        flat = array(ctypes.c_double, chain.from_iterable(rows))
        if not 1 <= order <= MAX_ORDER or len(flat) != order * (order + 1) or len(c) != order:
            raise ValueError(f"not a plant step of an order from 1 to {MAX_ORDER}: {rows!r}, {c!r}")
        # Each log is a writable buffer of n_rows doubles, which from_buffer checks.
        logs = [(ctypes.c_double * n_rows).from_buffer(log)
                for log in (u_log, y_log, kp_log, ki_log, kd_log)]
        factors = cells = None
        if fuzzy:
            f = fuzzy.factors
            factors = array(ctypes.c_double, (f.ke, f.kec, f.kup, f.kui, f.kud))
            # The label of output out of the rule (e, ec) at 3 * (7 * e + ec) + out.
            cells = bytes(label for row in fuzzy.table.cells for triple in row for label in triple)
        return run(
            n_rows, dt, r,
            len(u_dists), array(ctypes.c_int64, (s for s, _ in u_dists)),
            array(ctypes.c_double, (m for _, m in u_dists)),
            len(y_dists), array(ctypes.c_int64, (s for s, _ in y_dists)),
            array(ctypes.c_double, (m for _, m in y_dists)),
            *logs, order, flat, array(ctypes.c_double, c),
            array(ctypes.c_double, (base.kp, base.ki, base.kd)), factors, cells,
            p_sums, r_sums,
        )

    return c_loop


# The most bytes sprayflow_format_rows writes per value: a sign, 7 whole
# digits, the point, 9 fraction digits and a separator.
FIELD_BYTES = 19


@functools.cache
def format_rows() -> Callable[..., int] | None:
    """The C row formatter of the CSV writer, or None.

    format_rows(block, out) writes the CSV rows of a (rows, columns)
    float64 array, which may be a transposed or sliced view, as
    `cli._csv_rows` writes them, to the start of out, a bytearray of at
    least FIELD_BYTES bytes per value, and returns the number of bytes
    written; it returns -1 where a value is one its integer arithmetic
    does not cover (see sprayflow_format_rows in `_loop.c`).
    """
    import ctypes

    lib = _library()
    if lib is None:
        return None
    run = lib.sprayflow_format_rows
    run.restype = ctypes.c_int64
    run.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)

    def c_format_rows(block, out):
        if block.ndim != 2 or block.dtype != "float64" or len(out) < block.size * FIELD_BYTES:
            raise ValueError(f"not a 2-D float64 block of {len(out) // FIELD_BYTES} values "
                             f"at most: {block.dtype} of shape {block.shape}")
        buffer = (ctypes.c_char * len(out)).from_buffer(out)
        return run(block.ctypes.data, *block.shape, *block.strides, buffer)

    return c_format_rows


@functools.cache
def parse_rows() -> Callable[..., tuple[int, int]] | None:
    """The C row parser of the CSV reader, or None.

    parse_rows(text, out, start) reads the whole rows of the bytes text
    that have the form the writer writes (see sprayflow_parse_rows in
    `_loop.c`) into the rows of out from start on, and returns the number
    of rows read and the number of bytes they take; the rows are -1 where
    text has another form or more rows begin than out has from start on.
    out is a C-contiguous writable float64 array of (rows, fields).
    """
    import ctypes

    lib = _library()
    if lib is None:
        return None
    run = lib.sprayflow_parse_rows
    run.restype = ctypes.c_int64
    run.argtypes = (ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                    ctypes.c_int64, ctypes.POINTER(ctypes.c_int64))

    def c_parse_rows(text, out, start):
        if not (out.ndim == 2 and out.dtype == "float64" and out.flags.c_contiguous
                and out.flags.writeable and 0 <= start <= len(out)):
            raise ValueError(f"not a writable float64 row array and a row of it: {start}")
        used = ctypes.c_int64()
        rows = run(text, len(text), out.shape[1], out.ctypes.data + start * out.strides[0],
                   len(out) - start, ctypes.byref(used))
        return rows, used.value

    return c_parse_rows


@functools.cache
def _library():
    """The loaded library: cached, else built (see the module docstring), else None."""
    import ctypes
    import hashlib
    import platform
    import shutil
    import tempfile

    # The machine too, for a cache directory that hosts of two kinds share.
    salt = "\0".join((*FLAGS, platform.machine()))
    key = hashlib.sha256(SOURCE.read_bytes() + salt.encode()).hexdigest()
    name = f"loop-{key}.so"
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    cached = Path(cache, "sprayflow", name)
    if cached.is_file():
        return ctypes.CDLL(str(cached))
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        cached.parent.mkdir(parents=True, exist_ok=True)
        writable = os.access(cached.parent, os.W_OK)
    except OSError:
        writable = False
    if writable:
        return _build(cc, cached)
    with tempfile.TemporaryDirectory() as directory:
        return _build(cc, Path(directory, name))


def _build(cc: str, target: Path):
    """Compile SOURCE to target and load it; None, with a warning, when
    the compiler fails. The compiler writes a temporary file beside
    target, which replaces target only when complete."""
    import ctypes
    import subprocess
    import tempfile

    fd, partial = tempfile.mkstemp(suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        result = subprocess.run(
            [cc, str(SOURCE), "-o", partial, *FLAGS],
            capture_output=True, text=True, timeout=300,
        )
        if result.returncode != 0:
            warnings.warn(
                f"{cc} could not build the C library, so runs take the Python loop "
                f"and the CSV the Python writer and reader:\n"
                f"{result.stderr}",
                RuntimeWarning,
            )
            return None
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return ctypes.CDLL(str(target))
