import contextlib
import errno
import io
import itertools
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualbloch import bloch, cli, halting, pictures
from goldens import RUNS, contract_verdict
from helpers import cli_env, run_cli
from matrices import bits

PI = math.pi


def _csv_rows(stdout: bytes):
    lines = stdout.decode().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                k: (v == "true" if v in ("true", "false") else float(v))
                for k, v in zip(header, cells)
            }
        )
    return rows


def _jsonl_rows(stdout: bytes):
    return [json.loads(line) for line in stdout.decode().strip().splitlines()]


_Run = namedtuple("_Run", "args returncode stdout stderr exited")


def _main(*argv) -> _Run:
    """cli.main run on argv in this process, for what main decides: its exit
    code, returned or raised (then exited is true), and what it wrote to
    stdout and stderr, as bytes.  tests/goldens.py checks the process."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = cli.main(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
    return _Run(argv, code, out.getvalue().encode(), err.getvalue().encode(), exited)


def _assert_usage_error(proc: _Run):
    """SystemExit(2) in argparse's shape, reported by the parser of the command run."""
    command = proc.args[0]
    assert proc.exited and proc.returncode == 2
    assert proc.stderr.startswith(f"usage: dualbloch {command}".encode()), proc.stderr
    assert f"dualbloch {command}: error: ".encode() in proc.stderr
    assert b"Traceback" not in proc.stderr


# -------------------------------------------------------------------- package


def test_bare_package_import_loads_no_submodule_and_no_numpy():
    loaded = "[m for m in sys.modules if m.startswith(('numpy', 'dualbloch.'))]"
    code = f"import sys, dualbloch; print({loaded})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


_NUMPY_FREE = """
import contextlib, io, sys
from dualbloch.cli import build_parser, main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, argv
    return out.getvalue()

sweep = ["self-ref-sweep", "--theta-steps", "5", "--delta-steps", "5"]
build_parser().parse_args(sweep)  # the benchmark's set-up line
run(sweep)
run(["trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
     "--input", "1", "0", "0", "--t-start", "0", "--t-end", "3", "--steps", "5"])
print("json" in sys.modules)
run(["halting-demo", "--axis", "0", "1", "0", "--delta", "1", "--system", "0", "0", "1",
     "--picture", "schrodinger"])
print(*(m in sys.modules for m in ("numpy", "dataclasses", "inspect", "json")))
print("PASS" in run(["equiv-check", "--trials", "10", "--seed", "1"]), "numpy" in sys.modules)
"""


def test_only_equiv_check_loads_numpy():
    # The numpy-free commands load neither dataclasses nor, through it,
    # inspect, and only halting-demo loads json.
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\nFalse False False True\nTrue True\n"


_COLD_START = """
import contextlib, io, sys
from dualbloch.cli import main

for argv in (
    ["self-ref-sweep", "--theta-steps", "3", "--delta-steps", "3"],
    ["trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0",
     "--input", "0", "0", "1", "--t-start", "0", "--t-end", "1", "--steps", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(*(m in sys.modules for m in ("threading", "numbers", "signal")))
"""


def test_the_numpy_free_commands_import_no_threading_numbers_or_signal():
    # Under -S, since a site hook may import them first: nothing takes a
    # lock, numbers serves only components that are not floats, and signal
    # only an interrupted run.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START], capture_output=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False False False\n"


# ---------------------------------------------------------------- equiv-check

_BLAS_THREADS = """
import contextlib, io, re, sys
from dualbloch.__main__ import run

sys.argv = ["dualbloch", "equiv-check", "--trials", "1", "--seed", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    assert run() == 0
with open("/proc/self/status") as status:
    print(re.search(r"Threads:\\s+(\\d+)", status.read())[1])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("preset", [None, "3"])
def test_equiv_check_loads_numpy_without_a_blas_thread_pool(preset):
    # OpenBLAS starts its threads as numpy loads, one per core unless an
    # environment variable says otherwise.  The command makes no BLAS call,
    # so the process entry point asks for one thread whatever was set.
    env = cli_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"1\n"


_FREEZE = """
import contextlib, gc, io, sys
from dualbloch import cli
from dualbloch.__main__ import run

argv = ["self-ref-sweep", "--theta-steps", "3", "--delta-steps", "3"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    after_main = gc.get_freeze_count()
    sys.argv = ["dualbloch", *argv]
    assert run() == 0
print(after_main, gc.get_freeze_count() > 0)
"""


def test_only_the_process_entry_point_freezes_the_heap():
    # gc.freeze() after main lets the collections at interpreter exit skip
    # every object alive by then; cli.main, a plain function, freezes nothing.
    proc = subprocess.run([sys.executable, "-c", _FREEZE], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"0 True\n"


def test_main_leaves_the_environment_as_it_found_it():
    before = dict(os.environ)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["equiv-check", "--trials", "1", "--seed", "1"]) == 0
    assert dict(os.environ) == before


def test_equiv_check_passes_and_reports():
    proc = run_cli("equiv-check", "--trials", 1000, "--seed", 42)
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "max deviation" in out
    assert "PASS" in out
    assert "PCG64" in out


def test_equiv_check_without_numpy_says_so_in_one_line():
    code = (
        "import os, sys; sys.modules['numpy'] = None; from dualbloch.cli import main; "
        "before = dict(os.environ); code = main(['equiv-check', '--trials', '1', '--seed', '1']); "
        "assert dict(os.environ) == before; sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: equiv-check needs numpy")
    assert len(proc.stderr.splitlines()) == 1 and b"Traceback" not in proc.stderr


def test_equiv_check_single_trial():
    assert run_cli("equiv-check", "--trials", 1, "--seed", 7).returncode == 0


def test_equiv_check_fails_on_a_nan_deviation(monkeypatch):
    calls, real = itertools.count(), cli._expectation

    def nan_once(e, v):  # the 11th of 40 calls, in trial 6 of 20: later trials are finite
        return math.nan if next(calls) == 10 else real(e, v)

    monkeypatch.setattr(cli, "_expectation", nan_once)
    run = _main("equiv-check", "--trials", 20, "--seed", 1)
    assert (run.returncode, run.exited, run.stderr) == (1, False, b"")
    assert run.stdout == (
        b"max deviation nan over 20 trials (seed 1, rng PCG64): FAIL (threshold 1e-12)\n"
    )


def _counted(monkeypatch, module, name, log):
    real = getattr(module, name)

    def wrapper(*args):
        out = real(*args)
        log.append((name, args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)


def test_equiv_check_builds_one_rotation_per_trial(monkeypatch):
    # R from u's quaternion, with the bits of the general U(2) path on u.
    log = []
    _counted(monkeypatch, bloch, "haar_random_unitary", log)
    _counted(monkeypatch, cli, "_quaternion_rotation", log)
    assert _main("equiv-check", "--trials", 50, "--seed", 3).returncode == 0
    assert [name for name, _, _ in log] == ["haar_random_unitary", "_quaternion_rotation"] * 50
    for (_, _, u), (_, _, r) in zip(log[::2], log[1::2]):
        assert struct.pack("9d", *r) == struct.pack("9d", *bloch._rotation_of(u))


def test_equiv_check_transports_have_the_public_functions_bits(monkeypatch):
    log = []
    _counted(monkeypatch, bloch, "haar_random_unitary", log)
    _counted(monkeypatch, bloch, "random_unit_vector", log)
    _counted(monkeypatch, cli, "_transport", log)
    _counted(monkeypatch, cli, "_expectation", log)
    trials = 10_000
    for seed in (2, 5):
        log.clear()
        assert _main("equiv-check", "--trials", trials, "--seed", seed).returncode == 0
        assert len(log) == 7 * trials
        for i in range(0, len(log), 7):  # per trial: u, e, v, two transports, two expectations
            (_, _, u), (_, _, e), (_, _, v) = log[i : i + 3]
            transports = {args[2]: out for _, args, out in log[i + 3 : i + 5]}
            state, obs = bloch.rotate_state(u, v), bloch.rotate_observable(u, e)
            assert bits(transports[False]) == bits(state)
            assert bits(transports[True]) == bits(obs)
            (_, _, schrodinger), (_, _, heisenberg) = log[i + 5 : i + 7]
            dev = abs(bloch.expectation(e, state) - bloch.expectation(obs, v))
            assert struct.pack("d", abs(schrodinger - heisenberg)) == struct.pack("d", dev)


@pytest.mark.parametrize("seed", [5, 2201])
def test_equiv_check_draws_the_bits_of_a_plain_generator(monkeypatch, seed):
    # The verdict line cannot see a shifted stream: on seed 5, skipping one
    # normal at trial 150 of 200 still prints 3.331e-16.  So each draw is
    # compared with a loop over a plain Generator.
    trials, rng, want = 10_000, np.random.default_rng(seed), []
    for _ in range(trials):
        want.append(bloch.haar_random_unitary(rng).tobytes())
        want += [bits(bloch.random_unit_vector(rng)), bits(bloch.random_unit_vector(rng))]
    log = []
    _counted(monkeypatch, bloch, "haar_random_unitary", log)
    _counted(monkeypatch, bloch, "random_unit_vector", log)
    assert _main("equiv-check", "--trials", trials, "--seed", seed).returncode == 0
    got = [out.tobytes() if name == "haar_random_unitary" else bits(out) for name, _, out in log]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"trial {i // 3}: draw {i % 3} (u, e, v) differs"


# --------------------------------------------------------------- halting-demo


def test_halting_demo_schrodinger_json():
    proc = run_cli(
        "halting-demo",
        "--axis", 0, 1, 0,
        "--delta", PI / 2,
        "--system", 0, 0, 1,
        "--picture", "schrodinger",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["picture"] == "schrodinger"
    np.testing.assert_allclose(doc["system_out"], [1, 0, 0], atol=1e-12)
    assert doc["halt_expectation"] == -1.0
    np.testing.assert_allclose(doc["halt_out"], [0, 0, -1], atol=1e-15)


def test_halting_demo_zero_delta_keeps_system():
    proc = run_cli(
        "halting-demo",
        "--axis", 0, 1, 0,
        "--delta", 0,
        "--system", 0.6, 0, 0.8,
        "--picture", "schrodinger",
    )
    doc = json.loads(proc.stdout)
    np.testing.assert_allclose(doc["system_out"], [0.6, 0, 0.8], atol=1e-15)
    assert doc["halt_expectation"] == -1.0


def test_halting_demo_degrees_flag():
    rad = run_cli(
        "halting-demo", "--axis", 0, 1, 0, "--delta", PI / 2,
        "--system", 0, 0, 1, "--picture", "heisenberg",
    )
    deg = run_cli(
        "halting-demo", "--axis", 0, 1, 0, "--delta", 90, "--degrees",
        "--system", 0, 0, 1, "--picture", "heisenberg",
    )
    a = json.loads(rad.stdout)
    b = json.loads(deg.stdout)
    np.testing.assert_allclose(a["system_basis_out"], b["system_basis_out"], atol=1e-15)
    np.testing.assert_allclose(a["system_basis_out"], [-1, 0, 0], atol=1e-12)


# -------------------------------------------------------------- self-ref-sweep


def test_sweep_corners_are_all_fixed_points():
    proc = run_cli("self-ref-sweep", "--theta-steps", 2, "--delta-steps", 2)
    assert proc.returncode == 0
    rows = _csv_rows(proc.stdout)
    assert len(rows) == 4
    assert [(r["theta"], r["delta"]) for r in rows] == [
        (0.0, 0.0), (0.0, 2 * PI), (PI, 0.0), (PI, 2 * PI),
    ]
    for r in rows:
        assert abs(r["discrepancy_angle"]) < 1e-12
        assert r["fixed_point"] is True


def test_sweep_contains_the_maximal_disagreement_cell():
    proc = run_cli("self-ref-sweep", "--theta-steps", 3, "--delta-steps", 5)
    rows = _csv_rows(proc.stdout)
    assert len(rows) == 15
    cell = next(
        r for r in rows
        if abs(r["theta"] - PI / 2) < 1e-12 and abs(r["delta"] - PI / 2) < 1e-12
    )
    assert abs(cell["discrepancy_angle"] - PI) < 1e-10
    assert cell["fixed_point"] is False


def test_sweep_rows_are_row_major_and_unit_consistent():
    proc = run_cli("self-ref-sweep", "--theta-steps", 4, "--delta-steps", 3)
    rows = _csv_rows(proc.stdout)
    thetas = sorted({r["theta"] for r in rows})
    expected_order = [(t, d) for t in thetas for d in sorted({r["delta"] for r in rows})]
    assert [(r["theta"], r["delta"]) for r in rows] == expected_order
    for r in rows:
        assert 0.0 <= r["discrepancy_angle"] <= PI + 1e-15


def test_sweep_csv_and_jsonl_carry_identical_values():
    args = ("self-ref-sweep", "--theta-steps", 5, "--delta-steps", 7)
    csv_rows = _csv_rows(run_cli(*args, "--format", "csv").stdout)
    jsonl_rows = _jsonl_rows(run_cli(*args, "--format", "jsonl").stdout)
    assert len(csv_rows) == len(jsonl_rows) == 35
    for a, b in zip(csv_rows, jsonl_rows):
        assert a["theta"] == b["theta"]
        assert a["delta"] == b["delta"]
        assert a["discrepancy_angle"] == b["discrepancy_angle"]
        assert a["fixed_point"] == b["fixed_point"]


_FLAG_SWEEP = (
    "self-ref-sweep", "--theta-steps", 2, "--delta-steps", 2,
    "--theta-range", 0, 0.5, "--delta-range", 0, 1.5707963267948966,
)  # fmt: skip


@pytest.mark.parametrize(
    "fmt, lines",
    [
        (
            "csv",
            [
                "theta,delta,discrepancy_angle,fixed_point",
                "0,0,0,true",
                "0,1.5707963267948966,0,true",
                "0.5,0,0,true",
                "0.5,1.5707963267948966,1,false",
            ],
        ),
        (
            "jsonl",
            [
                '{"theta": 0, "delta": 0, "discrepancy_angle": 0, "fixed_point": true}',
                '{"theta": 0, "delta": 1.5707963267948966, "discrepancy_angle": 0, "fixed_point": true}',
                '{"theta": 0.5, "delta": 0, "discrepancy_angle": 0, "fixed_point": true}',
                '{"theta": 0.5, "delta": 1.5707963267948966, "discrepancy_angle": 1, "fixed_point": false}',
            ],
        ),
    ],
)
def test_sweep_writes_its_flag_as_true_or_false(fmt, lines):
    proc = run_cli(*_FLAG_SWEEP, "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == lines


@pytest.mark.parametrize(
    "fmt, lines",
    [
        (
            "csv",
            [
                "a,b,c,d\n",
                "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001\n",
                "0.10000000000000001,-1.7976931348623157e+308,-0,-4.9406564584124654e-324\n",
            ],
        ),
        (
            "jsonl",
            [
                '{"a": -0, "b": 4.9406564584124654e-324, "c": 1.7976931348623157e+308, '
                '"d": 0.10000000000000001}\n',
                '{"a": 0.10000000000000001, "b": -1.7976931348623157e+308, "c": -0, '
                '"d": -4.9406564584124654e-324}\n',
            ],
        ),
    ],
)
def test_row_writer_keeps_every_float_bit_and_the_sign_of_zero(fmt, lines):
    # 17 significant digits round-trip any double, subnormal and largest included.
    rows = [
        (-0.0, 5e-324, 1.7976931348623157e308, 0.1),
        (0.1, -1.7976931348623157e308, -0.0, -5e-324),
    ]
    assert list(cli._lines(fmt, dict.fromkeys("abcd", ".17g"), rows)) == lines


def test_sweep_degrees_flag_reads_ranges_in_degrees():
    # math.radians(180) == pi and math.radians(360) == 2 * pi exactly, so the
    # degree grid is the default radian grid bit for bit.
    args = ("self-ref-sweep", "--theta-steps", 5, "--delta-steps", 7)
    radians = run_cli(*args)
    degrees = run_cli(*args, "--degrees", "--theta-range", 0, 180, "--delta-range", 0, 360)
    assert radians.returncode == degrees.returncode == 0
    assert degrees.stdout == radians.stdout


def test_sweep_tol_sets_the_fixed_point_cut():
    # Gaps on this grid run from 0 to ~2e-3, many of them between 1e-9 and tol.
    tol = 1e-3
    args = ("self-ref-sweep", "--theta-steps", 5, "--delta-steps", 5,
            "--theta-range", 0, 1e-3, "--delta-range", 0, 1.5)  # fmt: skip
    rows = _csv_rows(run_cli(*args, "--tol", tol).stdout)
    default_rows = _csv_rows(run_cli(*args).stdout)
    assert len(rows) == len(default_rows) == 25
    assert [r["fixed_point"] for r in rows] == [r["discrepancy_angle"] < tol for r in rows]
    assert any(r["fixed_point"] != d["fixed_point"] for r, d in zip(rows, default_rows))
    assert not all(r["fixed_point"] for r in rows)


def test_sweep_output_file_matches_stdout(tmp_path):
    args = ("self-ref-sweep", "--theta-steps", 3, "--delta-steps", 3)
    to_stdout = run_cli(*args)
    target = tmp_path / "sweep.csv"
    to_file = run_cli(*args, "--output", target)
    assert to_file.returncode == 0
    assert target.read_bytes() == to_stdout.stdout


def _sweep_peak(tmp_path, theta_steps: int, delta_steps: int) -> int:
    """tracemalloc's peak over an in-process sweep to a file."""
    argv = ["self-ref-sweep", "--theta-steps", str(theta_steps),
            "--delta-steps", str(delta_steps), "--output", str(tmp_path / "sweep.csv")]  # fmt: skip
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sweep.csv").read_bytes().count(b"\n") == 1 + theta_steps * delta_steps
    return peak


def test_sweep_streams_its_rows(tmp_path):
    # Rows go out as they are computed: memory stays flat in the grid size.
    assert _sweep_peak(tmp_path, 201, 201) < 1_000_000


def test_a_sweep_wider_than_the_column_cache_stays_flat(tmp_path):
    # The sweep keeps at most cli._COLUMNS columns, so deltas past it add nothing.
    assert _sweep_peak(tmp_path, 3, cli._COLUMNS + 50) < 1_000_000


def _sweep_cells(fmt, theta_range, delta_range, theta_steps, delta_steps):
    """The sweep's output made cell by cell, each float formatted where it is
    written, over numpy's grid: what the CLI's per-run column texts must match."""
    tol = halting.FIXED_POINT_TOL
    out = ["theta,delta,discrepancy_angle,fixed_point\n"] if fmt == "csv" else []
    for theta in np.linspace(*theta_range, theta_steps).tolist():
        basis = (math.sin(theta), 0.0, math.cos(theta))
        for delta in np.linspace(*delta_range, delta_steps).tolist():
            gap = halting.self_reference((0.0, 0.0, 1.0), delta, basis).discrepancy_angle
            flag = "true" if gap < tol else "false"
            if fmt == "csv":
                out.append(f"{theta:.17g},{delta:.17g},{gap:.17g},{flag}\n")
            else:
                out.append(f'{{"theta": {theta:.17g}, "delta": {delta:.17g}, '
                           f'"discrepancy_angle": {gap:.17g}, "fixed_point": {flag}}}\n')
    return "".join(out).encode()


def test_sweep_wider_than_the_column_cache_matches_a_per_cell_formatter():
    # Columns past cli._COLUMNS are made row by row, the rest once per run.
    proc = run_cli("self-ref-sweep", "--theta-steps", 3, "--delta-steps", 1100, "--degrees",
                   "--theta-range", -10, 190, "--delta-range", -400, 400)  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    radians = [math.radians(x) for x in (-10, 190, -400, 400)]
    assert proc.stdout == _sweep_cells("csv", radians[:2], radians[2:], 3, 1100)


def test_sweep_jsonl_file_wider_than_the_column_cache_matches_a_per_cell_formatter(tmp_path):
    target = tmp_path / "sweep.jsonl"
    proc = run_cli("self-ref-sweep", "--theta-steps", 2, "--delta-steps", 1030,
                   "--theta-range", 0.3, 2.9, "--delta-range", -1e-3, 7,
                   "--format", "jsonl", "--output", target)  # fmt: skip
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert target.read_bytes() == _sweep_cells("jsonl", (0.3, 2.9), (-1e-3, 7.0), 2, 1030)


def test_trajectory_streams_its_rows(tmp_path):
    # Nothing is held per step: each grid point and its row are computed as
    # they are written.
    argv = ["trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
            "--input", "0", "0", "1", "--t-start", "0", "--t-end", "10", "--steps", "50000",
            "--format", "jsonl"]  # fmt: skip
    path = tmp_path / "trajectory.jsonl"
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == 50_000
    assert peak < 1_000_000


_TRAJECTORY = ("trajectory", "--picture", "schrodinger", "--input", "0", "0", "1",
               "--t-start", "0", "--steps", "3")  # fmt: skip
_HALTING = ("halting-demo", "--system", "0", "0", "1", "--picture", "schrodinger")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ("trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0", "--input", "0",
             "0", "1", "--t-start", "-1e-3", "--t-end", "1", "--steps", "3"),
            0, b"",
        ),
        ((*_HALTING, "--axis", "-1e-3", "0", "1", "--delta", "1"), 0, b""),
        (
            ("trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0", "--input", "0",
             "0", "1", "--t-start", "-inf", "--t-end", "1", "--steps", "3"),
            2, b"must be finite",
        ),
        (
            ("self-ref-sweep", "--theta-steps", "3", "--delta-steps", "3",
             "--delta-range", "-1e308", "1e308"),
            2, b"argument --delta-range: MAX - MIN in radians must be positive and finite",
        ),
    ],
    ids=["t-start -1e-3", "axis -1e-3", "t-start -inf", "delta-range -1e308"],
)  # fmt: skip
def test_negative_values_in_exponent_form_reach_the_type_check(argv, code, message):
    # argparse's own pattern reads "-1e-3" and "-inf" as option strings.
    proc = _main(*argv)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert b"expected" not in proc.stderr
    if code == 2:
        _assert_usage_error(proc)


# Good argvs, one for each command.
_SWEEP_OK = "self-ref-sweep --theta-steps 4 --delta-steps 4"
_TRAJECTORY_OK = " ".join((*_TRAJECTORY, "--axis", "0", "1", "0", "--t-end", "1"))
_HALTING_OK = " ".join((*_HALTING, "--axis", "0", "1", "0", "--delta", "1"))
_EQUIV_OK = "equiv-check --trials 3 --seed 1"
_NINES = "9" * 308  # 1e308 in positional notation

# Every usage error, one bad flag a row: an argv, and what the last line on
# stderr must contain, the reason and the flag it names, whether argparse or
# the command makes the check.  A flag given twice keeps its last value, so
# most rows append their bad flag to a good argv.  argparse words a list of
# choices differently from one Python to the next, so a choice row stops
# before the list.
_USAGE_ERRORS = {
    "theta-steps": (f"{_SWEEP_OK} --theta-steps 1", "argument --theta-steps: must be >= 2, got 1"),
    "delta-steps": (f"{_SWEEP_OK} --delta-steps 1", "argument --delta-steps: must be >= 2, got 1"),
    "workers": (f"{_SWEEP_OK} --workers 0", "argument --workers: must be >= 1, got 0"),
    "tol": (f"{_SWEEP_OK} --tol 0", "argument --tol: must be positive, got '0'"),
    "tol-nan": (f"{_SWEEP_OK} --tol nan", "argument --tol: must be finite, got 'nan'"),
    "tol-inf": (f"{_SWEEP_OK} --tol inf", "argument --tol: must be finite, got 'inf'"),
    "theta-range-inf": (
        f"{_SWEEP_OK} --theta-range 0 inf", "argument --theta-range: must be finite, got 'inf'"
    ),
    "delta-range-nan": (
        f"{_SWEEP_OK} --delta-range nan 1", "argument --delta-range: must be finite, got 'nan'"
    ),
    "theta-range-order": (
        f"{_SWEEP_OK} --theta-range 2 1",
        "argument --theta-range: must be ordered MIN < MAX, got 2.0 1.0",
    ),
    "delta-range-width": (
        f"{_SWEEP_OK} --delta-range -1e308 1e308",
        "argument --delta-range: MAX - MIN in radians must be positive and finite,"
        " got -1e+308 1e+308",
    ),
    "delta-range-width-positional": (
        f"{_SWEEP_OK} --delta-range -{_NINES} {_NINES}",
        "argument --delta-range: MAX - MIN in radians must be positive and finite,"
        " got -1e+308 1e+308",
    ),
    "theta-range-degrees-subnormal": (  # ordered, but both ends round to 0 in radians
        f"{_SWEEP_OK} --degrees --theta-range 5e-324 1e-323",
        "argument --theta-range: MAX - MIN in radians must be positive and finite,"
        " got 5e-324 1e-323",
    ),
    "delta-nan": (f"{_HALTING_OK} --delta nan", "argument --delta: must be finite, got 'nan'"),
    "axis-inf": (f"{_HALTING_OK} --axis inf 1 0", "argument --axis: must be finite, got 'inf'"),
    "axis-zero": (f"{_HALTING_OK} --axis 0 0 0", "--axis: zero vector has no direction"),
    "picture-reversed": (
        f"{_HALTING_OK} --picture heisenberg-reversed",
        "argument --picture: invalid choice: 'heisenberg-reversed'",
    ),
    "picture-unknown": (
        f"{_HALTING_OK} --picture interaction", "argument --picture: invalid choice: 'interaction'"
    ),
    "rate-inf": (f"{_TRAJECTORY_OK} --rate inf", "argument --rate: must be finite, got 'inf'"),
    "rate-nan": (f"{_TRAJECTORY_OK} --rate nan", "argument --rate: must be finite, got 'nan'"),
    "t-end-inf": (f"{_TRAJECTORY_OK} --t-end inf", "argument --t-end: must be finite, got 'inf'"),
    "t-end-nan": (f"{_TRAJECTORY_OK} --t-end -nan", "argument --t-end: must be finite, got '-nan'"),
    "input-nan": (
        f"{_TRAJECTORY_OK} --input 0 nan 1", "argument --input: must be finite, got 'nan'"
    ),
    "steps": (f"{_TRAJECTORY_OK} --steps 1", "argument --steps: must be >= 2, got 1"),
    "t-order": (
        f"{_TRAJECTORY_OK} --t-start 1 --t-end 0", "--t-start 1.0 is not below --t-end 0.0"
    ),
    "t-width": (
        f"{_TRAJECTORY_OK} --t-start -1e308 --t-end 1e308",
        "--t-end 1e+308 minus --t-start -1e+308 is not finite",
    ),
    "angle": (
        f"{_TRAJECTORY_OK} --rate 1e300 --t-end 1e300",
        "--rate 1e+300 times --t-end 1e+300 is not finite",
    ),
    "angle-t-start": (
        f"{_TRAJECTORY_OK} --rate 1e300 --t-start -1e300",
        "--rate 1e+300 times --t-start -1e+300 is not finite",
    ),
    "trials": (f"{_EQUIV_OK} --trials 0", "argument --trials: must be >= 1, got 0"),
    "seed-negative": (f"{_EQUIV_OK} --seed -1", "argument --seed: must be >= 0, got -1"),
    "seed-fraction": (f"{_EQUIV_OK} --seed 1.5", "argument --seed: invalid int value: '1.5'"),
    "seed-missing": ("equiv-check --trials 10", "the following arguments are required: --seed"),
}


@pytest.mark.parametrize("case", _USAGE_ERRORS)
def test_every_usage_error_names_its_flag_and_reason(case):
    argv, reason = _USAGE_ERRORS[case]
    assert "--" in reason
    proc = _main(*argv.split())
    _assert_usage_error(proc)
    assert reason.encode() in proc.stderr.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        (*_HALTING, "--axis", "1e308", "1e308", "0", "--delta", "1"),
        (*_TRAJECTORY, "--axis", "1e308", "1e308", "0", "--t-end", "1"),
        (*_HALTING, "--axis", "1.7e308", "1.7e308", "0", "--delta", "1"),
        (*_TRAJECTORY, "--axis", "1.7e308", "1.7e308", "0", "--t-end", "1"),
    ],
)
def test_huge_axis_components_are_normalized_without_overflow(argv):
    proc = _main(*argv)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------------------ trajectory


def test_trajectory_schrodinger_rows():
    proc = run_cli(
        "trajectory", "--picture", "schrodinger", "--axis", 0, 1, 0,
        "--input", 0, 0, 1, "--t-start", 0, "--t-end", PI, "--steps", 5,
    )
    assert proc.returncode == 0
    rows = _csv_rows(proc.stdout)
    assert len(rows) == 5
    third = rows[2]
    assert third["time_label"] == pytest.approx(PI / 2)
    assert (third["vx"], third["vy"], third["vz"]) == pytest.approx((1, 0, 0), abs=1e-12)
    for r in rows:
        norm = math.sqrt(r["vx"] ** 2 + r["vy"] ** 2 + r["vz"] ** 2)
        assert abs(norm - 1.0) < 1e-9


def test_trajectory_heisenberg_mirrors_and_reversed_relabels():
    base = (
        "--axis", 0, 1, 0, "--input", 0, 0, 1,
        "--t-start", 0, "--t-end", PI, "--steps", 5,
    )
    heis = _csv_rows(run_cli("trajectory", "--picture", "heisenberg", *base).stdout)
    rev = _csv_rows(run_cli("trajectory", "--picture", "heisenberg-reversed", *base).stdout)
    assert (heis[2]["vx"], heis[2]["vy"], heis[2]["vz"]) == pytest.approx((-1, 0, 0), abs=1e-12)
    for h, r in zip(heis, rev):
        assert r["time_label"] == -h["time_label"]
        assert (r["vx"], r["vy"], r["vz"]) == (h["vx"], h["vy"], h["vz"])
    assert rev[0]["time_label"] == 0.0


def test_trajectory_jsonl_matches_csv():
    base = (
        "trajectory", "--picture", "schrodinger", "--axis", 1, 0, 0,
        "--input", 0, 0, 1, "--t-start", -1, "--t-end", 2, "--steps", 7,
    )
    csv_rows = _csv_rows(run_cli(*base, "--format", "csv").stdout)
    jsonl_rows = _jsonl_rows(run_cli(*base, "--format", "jsonl").stdout)
    for a, b in zip(csv_rows, jsonl_rows):
        assert a == b


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("picture", [p.value for p in pictures.Picture])
def test_trajectory_rows_have_the_samples_bits_and_evolve_once_per_row(monkeypatch, picture, fmt):
    # The command writes pictures._rows without a TrajectorySample per row,
    # so each cell is read back and held to the bits of trajectory()'s sample.
    # The grid meets t = 0 (a "-0" label would differ in its sign bit), and
    # the input is normalized by the CLI first.
    axis, vector, steps = (1.0, 2.0, 2.0), (1.0, -2.0, 0.5), 23
    spec = pictures.EvolutionSpec(bloch.normalized(axis), 0.7, pictures.Picture(picture))
    want = [
        (s.time_label, *s.vector)
        for s in pictures.trajectory(spec, bloch.normalized(vector), -1.5, 4.0, steps)
    ]
    calls = []
    real = pictures.evolve
    monkeypatch.setattr(pictures, "evolve", lambda *args: calls.append(args) or real(*args))
    run = _main("trajectory", "--picture", picture, "--axis", *axis, "--input", *vector,
                "--rate", 0.7, "--t-start", -1.5, "--t-end", 4, "--steps", steps,
                "--format", fmt)  # fmt: skip
    assert (run.returncode, run.stderr) == (0, b"")
    # The benchmark counts pictures.evolve once per row.
    assert len(calls) == steps
    lines = run.stdout.decode().splitlines()
    if fmt == "csv":
        assert lines.pop(0) == "time_label,vx,vy,vz"
        got = [tuple(map(float, line.split(","))) for line in lines]
    else:  # parse_int: json reads "-0" as the int 0, which has no sign
        got = [tuple(json.loads(line, parse_int=float).values()) for line in lines]
    assert [struct.pack("4d", *row) for row in got] == [struct.pack("4d", *row) for row in want]


# ---------------------------------------------------------- process contract


@pytest.mark.parametrize("row, buffered", [pytest.param(*run[1:], id=run[0]) for run in RUNS])
def test_process_contract(row, buffered):
    # Each run of the table in tests/goldens.py, which --check makes as well.
    verdict = contract_verdict(row, buffered)
    if verdict.startswith("skipped"):
        pytest.skip(verdict)
    assert verdict == "ok"


# ------------------------------------------------------- main as a plain function

_CALLER_CATCHES_CTRL_C = """
import os, signal, sys, threading
from dualbloch.cli import main

signal.signal(signal.SIGINT, signal.default_int_handler)  # even if started ignoring it
threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGINT)).start()
argv = ["trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0", "--input", "0", "0",
        "1", "--t-start", "0", "--t-end", "1", "--steps", str(10**8)]
try:
    with open(os.devnull, "w") as sys.stdout:
        main(argv)
except KeyboardInterrupt:
    print("caught", file=sys.__stdout__)
print("still running", file=sys.__stdout__)
"""


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_ctrl_c_reaches_an_in_process_caller_as_keyboard_interrupt():
    proc = subprocess.run(
        [sys.executable, "-c", _CALLER_CATCHES_CTRL_C], capture_output=True, env=cli_env(),
        timeout=60,
    )  # fmt: skip
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"caught\nstill running\n"


_INTERRUPTED_IMPORT = """
import sys
from dualbloch.__main__ import run

class Interrupt:  # Ctrl-C while dualbloch.cli is being imported
    def find_spec(self, name, path=None, target=None):
        if name == "dualbloch.cli":
            raise KeyboardInterrupt

sys.meta_path.insert(0, Interrupt())
sys.exit(run())
"""


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_ctrl_c_during_the_cli_import_ends_in_one_line():
    proc = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED_IMPORT], capture_output=True, env=cli_env(), timeout=60
    )
    assert (proc.returncode, proc.stderr) == (-signal.SIGINT, b"error: interrupted\n")
    assert proc.stdout == b""


class _BrokenPipe(io.StringIO):
    """A stream without a file descriptor whose reader has gone away."""

    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_failing_stdout_without_a_file_descriptor_makes_main_return_1():
    argv = ["halting-demo", "--axis", "0", "1", "0", "--delta", "1", "--system", "0", "0", "1",
            "--picture", "heisenberg"]  # fmt: skip
    with contextlib.redirect_stdout(_BrokenPipe()):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(argv) == 1
    assert err.getvalue() == "error: writing -: Broken pipe\n"


@pytest.mark.parametrize("stderr", [None, _BrokenPipe()], ids=["none", "failing"])
def test_a_closed_or_failing_stderr_changes_neither_stdout_nor_the_exit_code(stderr):
    # None is Python's stderr where fd 2 was closed at start-up.
    sweep = ["self-ref-sweep", "--theta-steps", "3", "--delta-steps", "3"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(stderr):
        assert cli.main([*sweep, "--output", "/nonexistent/x"]) == 1
        with pytest.raises(SystemExit) as usage_error:
            cli.main([*sweep, "--tol", "0"])
    assert (usage_error.value.code, out.getvalue()) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_main_leaves_a_failing_stdout_file_where_the_caller_put_it():
    argv = ["self-ref-sweep", "--theta-steps", "3", "--delta-steps", "3"]
    out = open("/dev/full", "w")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(argv) == 1
        assert err.getvalue().startswith("error: writing -: ")
        assert os.fstat(out.fileno()).st_rdev == os.stat("/dev/full").st_rdev
    finally:
        with contextlib.suppress(OSError):  # its rows are still buffered for /dev/full
            out.close()


class _CountingRaw(io.RawIOBase):
    """A raw stream that keeps the bytes it is given and counts the write calls."""

    def __init__(self):
        self.data, self.writes = bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def test_write_through_stdout_gets_rows_in_blocks():
    # Under PYTHONUNBUFFERED=1 sys.stdout is this: text written through to the
    # raw file on each call, so a call per row would be a system call per row.
    argv = ["trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
            "--input", "1", "0", "0", "--t-start", "0", "--t-end", "1", "--steps", "20000",
            "--format", "jsonl"]  # fmt: skip
    raw = _CountingRaw()
    with contextlib.redirect_stdout(io.TextIOWrapper(raw, encoding="utf-8", write_through=True)):
        assert cli.main(argv) == 0
    assert raw.data == run_cli(*argv).stdout
    assert raw.data.count(b"\n") == 20_000
    assert raw.writes <= 100


# ------------------------------------------------------------ any numeric input


def _positional(x) -> str:
    return str(x) if isinstance(x, int) else np.format_float_positional(x, trim="-")


def _spelled(numbers):
    """Each number in repr form ("-1e-05", "-inf") or positional ("-0.00001")."""
    return st.one_of(numbers.map(repr), numbers.map(_positional))


_numbers = _spelled(st.one_of(st.floats(), st.integers()))
# Trials and steps stay at 40 or below, so that every run is short.
_counts = _spelled(
    st.one_of(
        st.floats(max_value=40), st.sampled_from([math.nan, math.inf]), st.integers(max_value=40)
    )
)
_vectors = st.lists(_numbers, min_size=3, max_size=3)
_formats = st.sampled_from(["csv", "jsonl"])
_degrees = st.sampled_from([[], ["--degrees"]])

_argvs = st.one_of(
    st.builds(
        lambda trials, seed: ["equiv-check", "--trials", trials, "--seed", seed],
        _counts, _numbers,
    ),
    st.builds(
        lambda axis, delta, system, picture, degrees: [
            "halting-demo", "--axis", *axis, "--delta", delta, "--system", *system,
            "--picture", picture, *degrees,
        ],
        _vectors, _numbers, _vectors, st.sampled_from(["heisenberg", "schrodinger"]), _degrees,
    ),
    st.builds(
        lambda steps, ranges, tol, workers, fmt, degrees: [
            "self-ref-sweep", "--theta-steps", steps[0], "--delta-steps", steps[1],
            "--theta-range", *ranges[:2], "--delta-range", *ranges[2:], "--tol", tol,
            "--workers", workers, "--format", fmt, *degrees,
        ],
        st.tuples(_counts, _counts), st.lists(_numbers, min_size=4, max_size=4), _numbers,
        _numbers, _formats, _degrees,
    ),
    st.builds(
        lambda picture, axis, rate, vector, t, steps, fmt, degrees: [
            "trajectory", "--picture", picture, "--axis", *axis, "--rate", rate,
            "--input", *vector, "--t-start", t[0], "--t-end", t[1], "--steps", steps,
            "--format", fmt, *degrees,
        ],
        st.sampled_from(["schrodinger", "heisenberg", "heisenberg-reversed"]), _vectors,
        _numbers, _vectors, st.tuples(_numbers, _numbers), _counts, _formats, _degrees,
    ),
)  # fmt: skip


@settings(max_examples=200, deadline=None)
@given(_argvs)
@example([*_HALTING, "--delta", "1", "--axis", "1e-320", "1e-320", "0"])  # subnormal norm
def test_any_numeric_input_ends_in_an_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
