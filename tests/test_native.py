"""The C library (`_native`, `_loop.c`) against the Python code it stands for.

`harness._loop` picks the engine: the C loop where its library builds or
loads, otherwise `harness._plain_loop`. Both must give the same bytes.
`test_bits` checks every group of the bit manifest through each engine;
this module compares the engines on every plant order, which the
manifest does not cover. The CSV writer and reader take their C paths
from the same library; `test_cli` compares them with the Python paths.
"""
import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import sprayflow
from sprayflow import _native, harness, presets
from sprayflow.plant import MAX_ORDER, PIPELINE_TF, TransferFunction

import bits


def python_run(scenario):
    """`run_closed_loop` of the scenario through the plain Python loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_loop", lambda: harness._plain_loop)
        return sprayflow.run_closed_loop(scenario)


def c_run(scenario):
    """`run_closed_loop` of the scenario through the C loop, which must exist."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_loop", c_loop)
        return sprayflow.run_closed_loop(scenario)


def assert_engines_agree(scenario):
    """The C loop and the plain loop log the same bytes for the scenario.

    A run logs finite rows only, so no logged value is a nan, whose sign
    bit the plain loop does not fix (see CHANGES.md): equal bytes are the
    test.
    """
    c_traj, py_traj = c_run(scenario), python_run(scenario)
    assert np.all(np.isfinite(c_traj.data))
    assert c_traj.blown_up == py_traj.blown_up
    assert c_traj.data.tobytes() == py_traj.data.tobytes(), scenario


def _every_order():
    # A first-order lag, then the pipeline model with 0 to 14 poles of
    # 0.1 ms added: orders 1 to MAX_ORDER.
    plants = [TransferFunction(num=(100.0,), den=(0.0037, 1.0))]
    den = np.array(PIPELINE_TF.den)
    for _ in range(2, MAX_ORDER + 1):
        plants.append(TransferFunction(num=PIPELINE_TF.num, den=tuple(den.tolist())))
        den = np.convolve(den, (1e-4, 1.0))
    for plant in plants:
        for controller in bits.CONTROLLERS:
            yield bits._case(controller, plant=plant)


# Scenarios that no group of the bit manifest holds, which `test_bits`
# checks through each engine.
SCENARIOS = {
    "orders-1-to-16": _every_order,
}


# The functools caches of `_native`: the library and each function of it.
NATIVE_CACHES = (_native._library, _native.loop, _native.format_rows, _native.parse_rows)


def clear_native():
    """Forget the library, so that the next call of `_native` builds or loads it again."""
    for cache in NATIVE_CACHES:
        cache.cache_clear()


def c_loop():
    """The C loop, skipping the test where no library builds."""
    loop = _native.loop()
    if loop is None:
        pytest.skip("no C compiler and no cached library: runs take the Python loop")
    return loop


@pytest.mark.parametrize("group", SCENARIOS)
def test_engines_give_the_same_bytes(group):
    for scenario in SCENARIOS[group]():
        assert_engines_agree(scenario)


def test_c_engine_is_in_use_where_cc_exists():
    # So a library that fails to build cannot leave a machine with a
    # compiler, such as CI's, checking the Python loop and CSV paths alone.
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    assert _native.loop() is not None
    assert harness._loop() is _native.loop()
    assert _native.format_rows() is not None
    assert _native.parse_rows() is not None


def test_without_a_compiler_runs_take_the_python_loop(monkeypatch, tmp_path):
    scenario = presets.disturbance_scenario(presets.default_fuzzy_controller())
    want = sprayflow.run_closed_loop(scenario).data.tobytes()
    monkeypatch.setattr(shutil, "which", lambda name: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    clear_native()
    try:
        assert _native.loop() is _native.format_rows() is _native.parse_rows() is None
        assert harness._loop() is harness._plain_loop
        assert sprayflow.run_closed_loop(scenario).data.tobytes() == want
    finally:
        clear_native()
    assert not any(tmp_path.iterdir())


_NO_COMPILER_SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import bits
from sprayflow import _native, cli
assert _native.loop() is _native.format_rows() is _native.parse_rows() is None
print(bits.digest("csv"))
for controller in ("pid", "fuzzy-pid"):
    argv = ["simulate", "--controller", controller, "--duration", "2",
            "--disturbance-time", "0.5", "--disturbance-magnitude", "0.001"]
    path = f"{sys.argv[2]}/{controller}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--output", path]) == 0
    assert cli.main(["metrics", path]) == 0
"""


def test_host_without_a_compiler_writes_and_reads_the_same_bytes(tmp_path, capsys):
    # A fresh process with no cc on PATH and an empty cache takes the
    # Python loop, writer and reader: `simulate` writes the bytes of the
    # manifest's CSV group, and `metrics` prints what it prints here.
    cache, out, empty = tmp_path / "cache", tmp_path / "out", tmp_path / "bin"
    for directory in (cache, out, empty):
        directory.mkdir()
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-X", "dev", "-c", _NO_COMPILER_SCRIPT, tests, str(out)],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PATH": str(empty), "XDG_CACHE_HOME": str(cache), "PYTHONPATH": src},
    )
    digest, *printed = result.stdout.splitlines(keepends=True)
    assert digest == json.loads(bits.MANIFEST.read_text("ascii"))["csv"] + "\n"
    want = []
    for controller in ("pid", "fuzzy-pid"):
        assert sprayflow.cli.main(["metrics", str(out / f"{controller}.csv")]) == 0
        want.append(capsys.readouterr().out)
    assert "".join(printed) == "".join(want)
    assert not any(cache.iterdir())


def test_unwritable_cache_builds_in_a_temporary_directory(monkeypatch, tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    (tmp_path / "file").write_text("")
    # No directory can be made under a file, whoever runs the test.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    clear_native()
    try:
        scenario = presets.default_scenario(presets.default_fuzzy_controller())
        assert harness._loop() is _native.loop() is not None
        want = python_run(scenario).data.tobytes()
        assert sprayflow.run_closed_loop(scenario).data.tobytes() == want
    finally:
        clear_native()
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


def test_failing_compiler_warns_and_runs_take_the_python_loop(monkeypatch, tmp_path):
    false = shutil.which("false")
    if false is None:
        pytest.skip("no false on PATH")
    monkeypatch.setattr(shutil, "which", lambda name: false)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    clear_native()
    try:
        with pytest.warns(RuntimeWarning, match="could not build the C library"):
            assert _native.loop() is None
    finally:
        clear_native()
    # The compiler's output file is removed with the failure.
    assert not any((tmp_path / "sprayflow").iterdir())


def test_threads_run_the_c_loop_at_once():
    # The C loop holds no state of its own and runs without the
    # interpreter lock, so runs in threads overlap and keep their bits.
    c_loop()
    scenario = presets.disturbance_scenario(presets.default_fuzzy_controller())
    want = python_run(scenario).data.tobytes()
    results = [None] * 4

    def work(n):
        results[n] = [sprayflow.run_closed_loop(scenario).data.tobytes() for _ in range(5)]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want] * 5] * 4


def python(code, **env):
    """Run code in a fresh interpreter with the given environment additions."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, timeout=120, check=True, env={**os.environ, **env},
    )


def test_import_loads_no_ctypes_or_subprocess():
    code = (
        "import sys, sprayflow, sprayflow.cli; "
        "print('ctypes' in sys.modules, 'subprocess' in sys.modules)"
    )
    assert python(code).stdout == "False False\n"


def test_second_process_loads_the_cached_library(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    code = (
        "import sys; from sprayflow import _native; "
        "print(_native.loop() is not None, 'subprocess' in sys.modules)"
    )
    # The first process runs the compiler; the second finds the library
    # and imports no subprocess module, so it runs none.
    assert python(code, XDG_CACHE_HOME=str(tmp_path)).stdout == "True True\n"
    (library,) = (tmp_path / "sprayflow").iterdir()
    assert library.name.startswith("loop-") and library.suffix == ".so"
    built = library.stat().st_mtime_ns
    assert python(code, XDG_CACHE_HOME=str(tmp_path)).stdout == "True False\n"
    assert [path.name for path in (tmp_path / "sprayflow").iterdir()] == [library.name]
    assert library.stat().st_mtime_ns == built



@pytest.mark.parametrize(
    "rows, c",
    [
        (((1.0, 0.0, 1.0),), (1.0,)),
        (((1.0, 1.0),), (1.0, 0.0)),
        (((1.0, 1.0),) * (MAX_ORDER + 1), (1.0,) * (MAX_ORDER + 1)),
        ((), ()),
    ],
    ids=["long-row", "long-output-row", "order-above-bound", "order-0"],
)
def test_c_loop_refuses_a_step_of_another_shape(rows, c):
    # Its state holds MAX_ORDER entries, and it reads order * (order + 1)
    # entries of rows and order of c. The plain loop refuses a step whose
    # rows do not match its state (`plant.dot`); a step of order 0 is a
    # consistent one, which only the C loop's bound refuses.
    logs = [memoryview(np.zeros(3)) for _ in range(5)]
    rest = presets.default_pid_config().gains
    if rows:
        with pytest.raises(ValueError):
            harness._plain_loop(3, 1e-4, 1.0, [], [], *logs, rows, c, rest, None)
    with pytest.raises(ValueError, match="not a plant step"):
        c_loop()(3, 1e-4, 1.0, [], [], *logs, rows, c, rest, None)
