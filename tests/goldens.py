"""Byte-exact CLI outputs at fixed flags, and the files in tests/golden/ that
hold them.  Standard library only, so the check runs on an interpreter with
neither numpy nor pytest.  From the root of a checkout:

    python tests/goldens.py --check   # compare each case with its file
    python tests/goldens.py           # rewrite the files, then review the diff

A change to any of these bytes must be deliberate.  Without numpy the
equiv-check case has no bytes to compare: the check reports them as skipped,
once the command has exited 1 with a one-line error and no traceback.
"""

import argparse
import sys
from importlib.util import find_spec
from pathlib import Path

from helpers import run_cli

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


def regenerate(cases, directory: Path) -> int:
    """Run every case and write its stdout to directory.  Writes nothing and
    returns 1 if any case exits non-zero or writes to stderr."""
    outputs = {}
    for name, argv in cases.items():
        proc = run_cli(*argv)
        if proc.returncode or proc.stderr:
            print(f"{name}: exit {proc.returncode}, stderr {proc.stderr!r}", file=sys.stderr)
            return 1
        outputs[name] = proc.stdout
    directory.mkdir(exist_ok=True)
    for name, out in outputs.items():
        (directory / name).write_bytes(out)
    return 0


def check(cases, directory: Path) -> int:
    """Run every case and compare its stdout with its file in directory,
    printing one line per case.  Returns 1 if any output differs or any case
    exits non-zero or writes to stderr.  When numpy is not installed, a case
    that needs it must instead exit 1 with one line on stderr and no
    traceback; its bytes are then reported as skipped, not passed."""
    has_numpy = find_spec("numpy") is not None
    failed = False
    for name, argv in cases.items():
        proc = run_cli(*argv)
        if argv[0] in NEEDS_NUMPY and not has_numpy:
            one_line = len(proc.stderr.splitlines()) == 1 and b"Traceback" not in proc.stderr
            if proc.returncode == 1 and one_line and not proc.stdout:
                verdict = "skipped, numpy is not installed"
            else:
                verdict = f"FAILED without numpy: exit {proc.returncode}, stderr {proc.stderr!r}"
        elif proc.returncode or proc.stderr:
            verdict = f"FAILED: exit {proc.returncode}, stderr {proc.stderr!r}"
        elif proc.stdout != (directory / name).read_bytes():
            verdict = f"FAILED: output differs from {directory / name}"
        else:
            verdict = "ok"
        failed |= verdict.startswith("FAILED")
        print(f"{name}: {verdict}")
    return int(failed)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or rewrite the files in tests/golden/.")
    parser.add_argument("--check", action="store_true", help="compare, and write nothing")
    sys.exit((check if parser.parse_args().check else regenerate)(CASES, GOLDEN))
