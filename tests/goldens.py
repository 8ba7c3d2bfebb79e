"""Byte-exact CLI outputs at fixed flags, and the files in tests/golden/ that
hold them; and CONTRACT, one table of what the CLI does whatever becomes of
its stdout and stderr, which tests/test_cli.py runs too.  Standard library
only, so the check runs on an interpreter with neither numpy nor pytest.
From the root of a checkout:

    python tests/goldens.py --check   # compare each case with its file, run the table
    python tests/goldens.py           # rewrite the files, then review the diff

A change to any of these bytes must be deliberate.  Without numpy the
equiv-check case has no bytes: once the command has exited 1 with a one-line
error and no traceback, the check reports them as skipped and a rewrite
leaves that file alone.  So are the table's runs that need numpy, POSIX or
/dev/full where there is none: skipped, not passed.
"""

import argparse
import os
import signal
import sys
from importlib.util import find_spec
from pathlib import Path
from typing import NamedTuple

from helpers import run_cli, stdout_env

GOLDEN = Path(__file__).resolve().parent / "golden"

_AXIS = ("--axis", "1", "2", "2")
_TRAJECTORY = (
    "trajectory", *_AXIS, "--input", "0.6", "0", "0.8",
    "--rate", "0.7", "--t-start", "-1.5", "--t-end", "4", "--steps", "13",
)  # fmt: skip
_SWEEP = ("self-ref-sweep", "--theta-steps", "5", "--delta-steps", "9")
# Generic vectors, unlike the axis-aligned ones above: normalizing them changes
# their bits, so this case sees a skipped normalization.  Every later check
# returns the normalized vector bit for bit.
_GENERIC_AXIS = ("-0.916", "0.964", "0.93")
_GENERIC_INPUT = ("0.101", "0.536", "-0.025")

CASES = {
    "equiv-check.txt": ("equiv-check", "--trials", "200", "--seed", "5"),
    "halting-demo-schrodinger.json": (
        "halting-demo", *_AXIS, "--delta", "1.1", "--system", "0.6", "0", "0.8",
        "--picture", "schrodinger",
    ),
    "halting-demo-heisenberg.json": (
        "halting-demo", *_AXIS, "--delta", "1.1", "--system", "0.6", "0", "0.8",
        "--picture", "heisenberg",
    ),
    "self-ref-sweep.csv": (*_SWEEP, "--format", "csv"),
    "self-ref-sweep.jsonl": (*_SWEEP, "--format", "jsonl"),
    "trajectory-schrodinger.csv": (*_TRAJECTORY, "--picture", "schrodinger", "--format", "csv"),
    "trajectory-heisenberg-reversed.jsonl": (
        *_TRAJECTORY, "--picture", "heisenberg-reversed", "--format", "jsonl",
    ),
    "trajectory-generic.csv": (
        "trajectory", "--axis", *_GENERIC_AXIS, "--input", *_GENERIC_INPUT,
        "--picture", "schrodinger", "--t-start", "0", "--t-end", "3", "--steps", "7",
    ),
}  # fmt: skip
NEEDS_NUMPY = {"equiv-check"}  # the one command that loads numpy


def _verdict(argv, proc) -> str | None:
    """None for a case that exited 0 with nothing on stderr, else one line.
    When numpy is not installed, a case that needs it must instead exit 1
    with one line on stderr, no traceback and no stdout; it is then skipped."""
    if argv[0] in NEEDS_NUMPY and find_spec("numpy") is None:
        one_line = len(proc.stderr.splitlines()) == 1 and b"Traceback" not in proc.stderr
        if proc.returncode == 1 and one_line and not proc.stdout:
            return "skipped, numpy is not installed"
        return f"FAILED without numpy: exit {proc.returncode}, stderr {proc.stderr!r}"
    if proc.returncode or proc.stderr:
        return f"FAILED: exit {proc.returncode}, stderr {proc.stderr!r}"
    return None


def regenerate(cases, directory: Path) -> int:
    """Run every case and write its stdout to directory; a skipped case's
    file is left as it is.  Writes nothing and returns 1 if any case fails."""
    outputs = {}
    for name, argv in cases.items():
        proc = run_cli(*argv)
        verdict = _verdict(argv, proc)
        if verdict is None:
            outputs[name] = proc.stdout
        elif verdict.startswith("FAILED"):
            print(f"{name}: {verdict}", file=sys.stderr)
            return 1
        else:
            print(f"{name}: {verdict}")
    directory.mkdir(exist_ok=True)
    for name, out in outputs.items():
        (directory / name).write_bytes(out)
    return 0


def check(cases, directory: Path) -> int:
    """Run every case and compare its stdout with its file in directory,
    printing one line per case.  Returns 1 if any case fails or its output
    differs.  A skipped case is reported as skipped, not passed."""
    failed = False
    for name, argv in cases.items():
        proc = run_cli(*argv)
        verdict = _verdict(argv, proc)
        if verdict is None:
            same = proc.stdout == (directory / name).read_bytes()
            verdict = "ok" if same else f"FAILED: output differs from {directory / name}"
        failed |= verdict.startswith("FAILED")
        print(f"{name}: {verdict}")
    return int(failed)


class Row(NamedTuple):
    """A run of the CLI and what it must do.  stdout names a run_cli set-up; err
    is stderr's exact bytes, or its set-up, "closed" or "full".  code is the exit
    code, -SIGINT for death by SIGINT.  Stdout must begin with out and hold no
    "error:" byte, and no more than out where it is captured and the run fails."""

    argv: tuple
    stdout: str | int
    err: bytes | str
    code: int
    out: bytes = b""


def _sweep(theta_steps, delta_steps, *flags):
    return ("self-ref-sweep", "--theta-steps", theta_steps, "--delta-steps", delta_steps, *flags)


def _trajectory(steps):
    return ("trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0", "--input",
            "0", "0", "1", "--t-start", "0", "--t-end", "1", "--steps", steps)  # fmt: skip


_HUGE, _BEYOND = str(10**17), str(10**400)  # grid points; a float cannot count 10^400
_REVERSED = ("trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0", "--input",
             "1", "0", "0", "--t-start", "0", "--t-end", "3", "--steps", "5000")  # fmt: skip
_EQUIV = ("equiv-check", "--trials", "3", "--seed", "1")
_HALTING = ("halting-demo", "--axis", "0", "1", "0", "--delta", "1", "--system", "0", "0", "1",
            "--picture", "heisenberg")  # fmt: skip
_HELP, _SWEEP_HELP = ("--help",), ("self-ref-sweep", "--help")
_UNWRITABLE, _USAGE_ERROR = _sweep("3", "3", "--output", "/nonexistent/x"), _sweep("1", "3")
_PIPE = b"error: writing -: Broken pipe\n"
_EBADF = b"error: writing -: Bad file descriptor\n"
_ENOSPC = b"error: writing -: No space left on device\n"
_ENOSPC_FILE = b"error: writing /dev/full: No space left on device\n"
_ENOENT = b"error: writing /nonexistent/x: No such file or directory\n"
_CTRL_C = b"error: interrupted\n"
_SWEEP_START = b"theta,delta,discrepancy_angle,fixed_point\n0,0,0,true\n"
_HEADER = b"time_label,vx,vy,vz\n"
_TRAJECTORY_START = _HEADER + b"0,0,0,1\n"
_SIGINT = -signal.SIGINT

CONTRACT = {
    # A reader that goes away after the first lines: each output outgrows a
    # pipe buffer, so the command is still writing.  Any grid size streams.
    "sweep-reader-closes": Row(_sweep("61", "61"), 2, _PIPE, 1, _SWEEP_START),
    "trajectory-reader-closes": Row(_REVERSED, 2, _PIPE, 1, _HEADER + b"0,1,0,0\n"),
    "huge-theta-steps-reader-closes": Row(_sweep(_HUGE, "3"), 2, _PIPE, 1, _SWEEP_START),
    "huge-delta-steps-reader-closes": Row(_sweep("3", _HUGE), 2, _PIPE, 1, _SWEEP_START),
    "huge-steps-reader-closes": Row(_trajectory(_HUGE), 2, _PIPE, 1, _TRAJECTORY_START),
    "beyond-float-theta-steps-reader-closes": Row(_sweep(_BEYOND, "3"), 2, _PIPE, 1, _SWEEP_START),
    "beyond-float-delta-steps-reader-closes": Row(_sweep("3", _BEYOND), 2, _PIPE, 1, _SWEEP_START),
    "beyond-float-steps-reader-closes": Row(_trajectory(_BEYOND), 2, _PIPE, 1, _TRAJECTORY_START),
    "reader-closes-after-one-line": Row(_trajectory("1000000"), 1, _PIPE, 1, _HEADER),
    # The read end is closed before the command starts, so its one write fails.
    "equiv-check-closed-pipe": Row(_EQUIV, "closed-pipe", _PIPE, 1),
    "halting-demo-closed-pipe": Row(_HALTING, "closed-pipe", _PIPE, 1),
    "help-closed-pipe": Row(_HELP, "closed-pipe", _PIPE, 1),
    "trajectory-help-closed-pipe": Row(("trajectory", "--help"), "closed-pipe", _PIPE, 1),
    # With fd 1 closed at start-up Python sets sys.stdout to None.
    "equiv-check-closed-stdout": Row(_EQUIV, "closed", _EBADF, 1),
    "halting-demo-closed-stdout": Row(_HALTING, "closed", _EBADF, 1),
    "sweep-closed-stdout": Row(_sweep("3", "3"), "closed", _EBADF, 1),
    "trajectory-closed-stdout": Row(_trajectory("3"), "closed", _EBADF, 1),
    "golden-sweep-closed-stdout": Row(CASES["self-ref-sweep.csv"], "closed", _EBADF, 1),
    # Buffered, the failed bytes stay behind for the flush at exit, which must
    # not fail again (Python would report it and exit 120).
    "help-full": Row(_HELP, "full", _ENOSPC, 1),
    "sweep-help-full": Row(_SWEEP_HELP, "full", _ENOSPC, 1),
    "output-full": Row(_sweep("3", "3", "--output", "/dev/full"), "captured", _ENOSPC_FILE, 1),
    "unwritable-output": Row(_UNWRITABLE, "captured", _ENOENT, 1),
    "help": Row(_HELP, "captured", b"", 0, b"usage: dualbloch [-h]"),
    "sweep-help": Row(_SWEEP_HELP, "captured", b"", 0, b"usage: dualbloch self-ref-sweep [-h]"),
    "usage-error": Row(
        _USAGE_ERROR, "captured",
        b"usage: dualbloch self-ref-sweep [-h] --theta-steps THETA_STEPS --delta-steps DELTA_STEPS"
        b" [--theta-range MIN MAX] [--delta-range MIN MAX] [--tol TOL] [--format {csv,jsonl}]"
        b" [--output OUTPUT] [--workers WORKERS] [--degrees]\n"
        b"dualbloch self-ref-sweep: error: argument --theta-steps: must be >= 2, got 1\n",
        2,
    ),  # fmt: skip
    # Ctrl-C: one line, then death by SIGINT, so that a shell script stops too.
    "interrupt": Row(_trajectory(_HUGE), "sigint", _CTRL_C, _SIGINT, _HEADER),
    "interrupt-after-one-line": Row(_trajectory("1000000"), "sigint", _CTRL_C, _SIGINT, _HEADER),
    # A closed or failing stderr loses the diagnostic and changes nothing else.
    "unwritable-output-stderr-closed": Row(_UNWRITABLE, "captured", "closed", 1),
    "unwritable-output-stderr-full": Row(_UNWRITABLE, "captured", "full", 1),
    "usage-error-stderr-closed": Row(_USAGE_ERROR, "captured", "closed", 2),
    "usage-error-stderr-full": Row(_USAGE_ERROR, "captured", "full", 2),
    "halting-demo-full-stderr-full": Row(_HALTING, "full", "full", 1),
    "sweep-full-stderr-full": Row(_sweep("3", "3"), "full", "full", 1),
    "help-full-stderr-full": Row(_HELP, "full", "full", 1),
    "interrupt-stderr-closed": Row(_trajectory(_HUGE), "sigint", "closed", _SIGINT, _HEADER),
    "interrupt-stderr-full": Row(_trajectory(_HUGE), "sigint", "full", _SIGINT, _HEADER),
}
RUNS = [(f"{name}-{mode}", row, mode == "buffered")  # each row under both stdout bufferings
        for name, row in CONTRACT.items() for mode in ("buffered", "unbuffered")]  # fmt: skip


def contract_verdict(row: Row, buffered: bool) -> str:
    """"ok", "skipped, needs ..." or "FAILED: ..." for one run of row."""
    captured = isinstance(row.err, bytes)
    stderr = "captured" if captured else row.err
    setups = {row.stdout, stderr}
    if row.argv[0] in NEEDS_NUMPY and find_spec("numpy") is None:
        return "skipped, needs numpy"
    if setups & {"closed", "sigint"} and os.name != "posix":
        return "skipped, needs POSIX"
    if ("full" in setups or "/dev/full" in row.argv) and not os.path.exists("/dev/full"):
        return "skipped, needs /dev/full"
    proc = run_cli(*row.argv, stdout=row.stdout, stderr=stderr, env=stdout_env(buffered))
    out = proc.stdout
    ok = (
        proc.returncode == row.code
        and (not captured or proc.stderr == row.err)
        and out.startswith(row.out)
        and b"error:" not in out
        and (out == row.out or row.code == 0 or row.stdout != "captured")
    )
    if ok:
        return "ok"
    return f"FAILED: exit {proc.returncode}, stderr {proc.stderr!r}, stdout {out[:80]!r}"


def check_contract(runs) -> int:
    """Make each (id, row, buffered) run, printing one line for it; returns 1
    if any fails.  A skipped run is reported as skipped, not passed."""
    failed = False
    for run_id, row, buffered in runs:
        verdict = contract_verdict(row, buffered)
        failed |= verdict.startswith("FAILED")
        print(f"{run_id}: {verdict}")
    return int(failed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or rewrite the files in tests/golden/.")
    parser.add_argument("--check", action="store_true", help="compare, and write nothing")
    if parser.parse_args().check:
        sys.exit(check(CASES, GOLDEN) | check_contract(RUNS))
    sys.exit(regenerate(CASES, GOLDEN))
