"""Byte-exact CLI outputs at fixed flags, and the files in tests/golden/ that
hold them.  Standard library only, so the check runs on an interpreter with
neither numpy nor pytest.  From the root of a checkout:

    python tests/goldens.py --check   # compare each case with its file
    python tests/goldens.py           # rewrite the files, then review the diff

A change to any of these bytes must be deliberate.  Without numpy the
equiv-check case has no bytes: once the command has exited 1 with a one-line
error and no traceback, the check reports them as skipped and a rewrite
leaves that file alone.  The check also holds the CLI to its exit codes on
two commands that need no numpy: a usage error and a reader that goes away.
"""

import argparse
import sys
from importlib.util import find_spec
from pathlib import Path

from helpers import run_cli, run_cli_closing_pipe

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

# The exit-code contract, on commands that need no numpy.
USAGE_ERROR = ("self-ref-sweep", "--theta-steps", "1", "--delta-steps", "3")
LONG_OUTPUT = (
    "trajectory", "--picture", "schrodinger", "--axis", "0", "1", "0", "--input", "0", "0", "1",
    "--t-start", "0", "--t-end", "1", "--steps", "1000000",
)  # fmt: skip


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


def check_exit_codes(usage_error=USAGE_ERROR, long_output=LONG_OUTPUT) -> int:
    """Hold the CLI to its exit codes, printing one line per case, and return
    1 if either fails.  A usage error exits 2 with no stdout and no traceback,
    its one error line last on stderr.  A reader that closes the pipe after
    the first line of a long output leaves exit 1 and one line on stderr."""
    proc = run_cli(*usage_error)
    errors = [line for line in proc.stderr.splitlines() if b"error:" in line]
    usage_ok = (
        proc.returncode == 2
        and not proc.stdout
        and b"Traceback" not in proc.stderr
        and len(errors) == 1
        and proc.stderr.splitlines()[-1] == errors[0]
        and errors[0].startswith(f"dualbloch {usage_error[0]}: error: ".encode())
    )
    _, returncode, stderr = run_cli_closing_pipe(1, *long_output)
    pipe_ok = returncode == 1 and stderr == b"error: writing -: Broken pipe\n"
    for name, ok, code, err in (
        ("usage error exits 2", usage_ok, proc.returncode, proc.stderr),
        ("closed pipe exits 1", pipe_ok, returncode, stderr),
    ):
        print(f"{name}: " + ("ok" if ok else f"FAILED: exit {code}, stderr {err!r}"))
    return int(not (usage_ok and pipe_ok))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check or rewrite the files in tests/golden/.")
    parser.add_argument("--check", action="store_true", help="compare, and write nothing")
    if parser.parse_args().check:
        sys.exit(check(CASES, GOLDEN) | check_exit_codes())
    sys.exit(regenerate(CASES, GOLDEN))
