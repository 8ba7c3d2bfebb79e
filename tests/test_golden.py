"""Byte-exact CLI outputs at fixed flags, checked against tests/golden/.

A change to any of these bytes must be deliberate.  After one, regenerate
the files from the root of a checkout and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from dualbloch._kernel import bloch_vector, normalized, unit_axis
from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_AXIS = ("--axis", "1", "2", "2")
_TRAJECTORY = (
    "trajectory", *_AXIS, "--input", "0.6", "0", "0.8",
    "--rate", "0.7", "--t-start", "-1.5", "--t-end", "4", "--steps", "13",
)  # fmt: skip
_SWEEP = ("self-ref-sweep", "--theta-steps", "5", "--delta-steps", "9")
# Generic vectors, unlike the axis-aligned ones above: renormalizing them
# changes bits, so this case sees how many times each one is renormalized.
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    proc = run_cli(*CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "components, validate",
    [(_GENERIC_AXIS, unit_axis), (_GENERIC_INPUT, bloch_vector)],
    ids=["axis", "input"],
)
def test_generic_case_changes_bits_at_each_renormalization(components, validate):
    # The CLI normalizes each flag; EvolutionSpec and the evolution validate
    # the axis twice more and the input once more.  If a renormalization left
    # the bits alone, skipping it would not show in trajectory-generic.csv.
    once = normalized(tuple(map(float, components)))
    twice = validate(once)
    assert twice != once
    assert validate(twice) != twice


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


def test_regenerate_refuses_a_failing_command(tmp_path):
    cases = {"ok.txt": CASES["equiv-check.txt"], "bad.txt": ("equiv-check", "--trials", "0")}
    assert regenerate(cases, tmp_path) == 1
    assert list(tmp_path.iterdir()) == []


if __name__ == "__main__":
    sys.exit(regenerate(CASES, GOLDEN))
