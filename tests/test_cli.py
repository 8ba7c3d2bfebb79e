import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualbloch import cli
from helpers import cli_env, run_cli, run_cli_closing_pipe

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


def _assert_usage_error(proc):
    """Exit 2 in argparse's shape, reported by the parser of the command run."""
    command = proc.args[3]  # after "python -m dualbloch"
    assert proc.returncode == 2
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

sweep = ["self-ref-sweep", "--theta-steps", "5", "--delta-steps", "5"]
build_parser().parse_args(sweep)  # the benchmark's set-up line
for argv in (
    sweep,
    ["trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
     "--input", "1", "0", "0", "--t-start", "0", "--t-end", "3", "--steps", "5"],
    ["halting-demo", "--axis", "0", "1", "0", "--delta", "1", "--system", "0", "0", "1",
     "--picture", "schrodinger"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(*(m in sys.modules for m in ("numpy", "dataclasses", "inspect")))
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert main(["equiv-check", "--trials", "10", "--seed", "1"]) == 0
print("PASS" in out.getvalue(), "numpy" in sys.modules)
"""


def test_only_equiv_check_loads_numpy():
    # The numpy-free commands load neither dataclasses nor, through it, inspect.
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE], capture_output=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False False False\nTrue True\n"


# ---------------------------------------------------------------- equiv-check


def test_equiv_check_passes_and_reports():
    proc = run_cli("equiv-check", "--trials", 1000, "--seed", 42)
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "max deviation" in out
    assert "PASS" in out
    assert "PCG64" in out


def test_equiv_check_without_numpy_says_so_in_one_line():
    code = (
        "import sys; sys.modules['numpy'] = None; from dualbloch.cli import main; "
        "sys.exit(main(['equiv-check', '--trials', '1', '--seed', '1']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: equiv-check needs numpy")
    assert len(proc.stderr.splitlines()) == 1 and b"Traceback" not in proc.stderr


def test_equiv_check_single_trial():
    assert run_cli("equiv-check", "--trials", 1, "--seed", 7).returncode == 0


def test_equiv_check_zero_trials_is_usage_error():
    _assert_usage_error(run_cli("equiv-check", "--trials", 0, "--seed", 7))


def test_equiv_check_requires_a_seed():
    _assert_usage_error(run_cli("equiv-check", "--trials", 10))


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


def test_halting_demo_rejects_reversed_picture():
    proc = run_cli(
        "halting-demo", "--axis", 0, 1, 0, "--delta", 1,
        "--system", 0, 0, 1, "--picture", "heisenberg-reversed",
    )
    _assert_usage_error(proc)


def test_halting_demo_rejects_unknown_picture_and_zero_vectors():
    _assert_usage_error(run_cli(
        "halting-demo", "--axis", 0, 1, 0, "--delta", 1,
        "--system", 0, 0, 1, "--picture", "interaction",
    ))
    proc = run_cli(
        "halting-demo", "--axis", 0, 0, 0, "--delta", 1,
        "--system", 0, 0, 1, "--picture", "schrodinger",
    )
    _assert_usage_error(proc)
    assert b"axis" in proc.stderr


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


def test_sweep_streams_its_rows(tmp_path):
    # Rows go out as they are computed: memory stays flat in the grid size.
    argv = ["self-ref-sweep", "--theta-steps", "201", "--delta-steps", "201",
            "--output", str(tmp_path / "sweep.csv")]  # fmt: skip
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "sweep.csv").read_bytes().count(b"\n") == 1 + 201 * 201
    assert peak < 1_000_000


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


def test_sweep_unwritable_output_exits_1(tmp_path):
    proc = run_cli(
        "self-ref-sweep", "--theta-steps", 2, "--delta-steps", 2,
        "--output", tmp_path / "missing-dir" / "x.csv",
    )
    assert proc.returncode == 1
    assert b"error" in proc.stderr


@pytest.mark.parametrize(
    "extra",
    [
        ("--theta-steps", "1", "--delta-steps", "4"),
        ("--theta-steps", "4", "--delta-steps", "1"),
        ("--theta-steps", "4", "--delta-steps", "4", "--tol", "0"),
        ("--theta-steps", "4", "--delta-steps", "4", "--theta-range", "2", "1"),
        ("--theta-steps", "4", "--delta-steps", "4", "--workers", "0"),
        ("--theta-steps", "4", "--delta-steps", "4", "--theta-range", "0", "inf"),
        ("--theta-steps", "4", "--delta-steps", "4", "--delta-range", "nan", "1"),
        ("--theta-steps", "4", "--delta-steps", "4", "--tol", "nan"),
        ("--theta-steps", "4", "--delta-steps", "4", "--tol", "inf"),
        ("--theta-steps", "3", "--delta-steps", "3", "--delta-range", "-1e308", "1e308"),
        # the same overflowing width in positional notation
        ("--theta-steps", "3", "--delta-steps", "3", "--delta-range", "-" + "9" * 308, "9" * 308),
    ],
)
def test_sweep_usage_errors(extra):
    _assert_usage_error(run_cli("self-ref-sweep", *extra))


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
            2, b"ranges must be ordered",
        ),
    ],
    ids=["t-start -1e-3", "axis -1e-3", "t-start -inf", "delta-range -1e308"],
)  # fmt: skip
def test_negative_values_in_exponent_form_reach_the_type_check(argv, code, message):
    # argparse's own pattern reads "-1e-3" and "-inf" as option strings.
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert b"expected" not in proc.stderr
    if code == 2:
        _assert_usage_error(proc)


@pytest.mark.parametrize(
    "argv",
    [
        (*_HALTING, "--axis", "0", "1", "0", "--delta", "nan"),
        (*_HALTING, "--axis", "inf", "1", "0", "--delta", "1"),
        (*_TRAJECTORY, "--axis", "0", "1", "0", "--rate", "inf", "--t-end", "1"),
        (*_TRAJECTORY, "--axis", "0", "1", "0", "--t-end", "inf"),
        (*_TRAJECTORY, "--axis", "0", "1", "0", "--rate", "1e300", "--t-end", "1e300"),
        ("equiv-check", "--trials", "3", "--seed", "-1"),
        ("equiv-check", "--trials", "3", "--seed", "1.5"),
    ],
)
def test_nonfinite_or_out_of_range_input_is_a_usage_error(argv):
    _assert_usage_error(run_cli(*argv))


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
    proc = run_cli(*argv)
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


def test_trajectory_usage_errors():
    common = ("--picture", "schrodinger", "--axis", 0, 1, 0, "--input", 0, 0, 1)
    _assert_usage_error(run_cli("trajectory", *common, "--t-start", 1, "--t-end", 0, "--steps", 5))
    _assert_usage_error(run_cli("trajectory", *common, "--t-start", 0, "--t-end", 1, "--steps", 1))
    proc = run_cli("trajectory", *common, "--t-start", -1e308, "--t-end", 1e308, "--steps", 5)
    _assert_usage_error(proc)
    assert b"finite width" in proc.stderr


# ------------------------------------------------------------------ broken pipe

_HUGE = str(10**17)


@pytest.mark.parametrize(
    "argv",
    [
        ("self-ref-sweep", "--theta-steps", "61", "--delta-steps", "61"),
        ("trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
         "--input", "1", "0", "0", "--t-start", "0", "--t-end", "3", "--steps", "5000"),
        # A grid of any size streams, 10^17 points as well: nothing is held per point.
        pytest.param(("self-ref-sweep", "--theta-steps", _HUGE, "--delta-steps", "3"),
                     id="huge-theta-steps"),
        pytest.param(("self-ref-sweep", "--theta-steps", "3", "--delta-steps", _HUGE),
                     id="huge-delta-steps"),
        pytest.param(("trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0",
                      "--input", "0", "0", "1", "--t-start", "0", "--t-end", "1", "--steps", _HUGE),
                     id="huge-steps"),
    ],
)  # fmt: skip
def test_reader_closing_the_pipe_exits_1_without_traceback(argv):
    # Every output is larger than a pipe buffer, so the writer is still
    # writing when the reader goes away after the header and the first row.
    read, returncode, stderr = run_cli_closing_pipe(2, *argv)
    assert all(read), read
    assert returncode == 1
    assert stderr == b"error: writing -: Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("equiv-check", "--trials", "3", "--seed", "1"),
        ("halting-demo", "--axis", "0", "1", "0", "--delta", "1", "--system", "0", "0", "1",
         "--picture", "heisenberg"),
    ],
)  # fmt: skip
def test_closed_pipe_exits_1_without_traceback(argv):
    # The read end is closed before the command starts, so its one write fails.
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dualbloch", *argv], stdout=w, stderr=subprocess.PIPE,
            env=cli_env(), timeout=60,
        )  # fmt: skip
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == b"error: writing -: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_output_device_exits_1_without_traceback():
    proc = run_cli(
        "self-ref-sweep", "--theta-steps", 3, "--delta-steps", 3, "--output", "/dev/full"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: writing /dev/full: ")
    assert b"Traceback" not in proc.stderr


# ---------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("equiv-check", "--trials", "500", "--seed", "11"),
        (
            "halting-demo", "--axis", "0", "1", "0", "--delta", "1.1",
            "--system", "0", "0", "1", "--picture", "heisenberg",
        ),
        ("self-ref-sweep", "--theta-steps", "9", "--delta-steps", "9"),
        (
            "trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
            "--input", "1", "0", "0", "--t-start", "0", "--t-end", "3", "--steps", "11",
        ),
    ],
)
def test_every_subcommand_is_byte_deterministic(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_sweep_output_is_worker_count_independent():
    args = ("self-ref-sweep", "--theta-steps", 13, "--delta-steps", 13)
    one = run_cli(*args, "--workers", 1)
    four = run_cli(*args, "--workers", 4)
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout


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
