"""Output checks for the benchmark workloads.

Each check takes the bytes one CLI run wrote to stdout plus the parameters
that produced them, and returns a list of problems (empty when the output
is right).  The references are the package's closed-form oracles,
``halting.discrepancy_closed_form`` and ``bloch.rodrigues``, which share no
code with the conjugation path the CLI computes through.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from dualbloch.bloch import rodrigues
from dualbloch.halting import discrepancy_closed_form

SWEEP_HEADER = "theta,delta,discrepancy_angle,fixed_point"
GAP_TOL = 1e-10  # discrepancy oracle tolerance
VEC_TOL = 1e-12  # trajectory oracle and unit-norm tolerance
EQUIV_THRESHOLD = 1e-12
GRID_TOL = 1e-12  # relative slack when matching a printed grid value to its slot
MAX_PROBLEMS = 5

EQUIV_LINE = re.compile(
    r"max deviation (\S+) over (\d+) trials \(seed (-?\d+), rng \S+\): "
    r"(PASS|FAIL) \(threshold \S+\)"
)


def _same_grid_value(got: float, want: float) -> bool:
    return abs(got - want) <= GRID_TOL * max(1.0, abs(want))


def check_sweep(out: bytes, theta_range, delta_range, theta_steps, delta_steps, tol) -> list[str]:
    """Header, row count, row-major (theta outer) order, gap against the
    closed form within GAP_TOL, and fixed_point == (gap < tol) on every row."""
    lines = out.decode().splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"bad header {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != theta_steps * delta_steps:
        return [f"expected {theta_steps * delta_steps} rows, got {len(rows)}"]
    thetas = np.linspace(*theta_range, theta_steps)
    deltas = np.linspace(*delta_range, delta_steps)
    problems = []
    for i, row in enumerate(rows):
        try:
            theta, delta, gap, flag = row.split(",")
            theta, delta, gap = float(theta), float(delta), float(gap)
        except ValueError:
            problems.append(f"row {i}: unparsable {row!r}")
        else:
            if not (
                _same_grid_value(theta, thetas[i // delta_steps])
                and _same_grid_value(delta, deltas[i % delta_steps])
            ):
                problems.append(f"row {i}: ({theta!r}, {delta!r}) out of row-major order")
            elif not abs(gap - discrepancy_closed_form(theta, delta)) <= GAP_TOL:
                problems.append(f"row {i}: gap {gap!r} off the closed form")
            elif flag != ("true" if gap < tol else "false"):
                problems.append(f"row {i}: fixed_point {flag!r} disagrees with gap {gap!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def check_equiv(out: bytes, trials: int, seed: int) -> list[str]:
    """One verdict line for the requested trials and seed, PASS, deviation
    below EQUIV_THRESHOLD."""
    lines = out.decode().splitlines()
    if len(lines) != 1:
        return [f"expected one line, got {len(lines)}"]
    m = EQUIV_LINE.fullmatch(lines[0])
    if m is None:
        return [f"unparsable verdict {lines[0]!r}"]
    dev, got_trials, got_seed, verdict = float(m[1]), int(m[2]), int(m[3]), m[4]
    problems = []
    if got_trials != trials or got_seed != seed:
        problems.append(f"reports {got_trials} trials, seed {got_seed}; asked {trials}, {seed}")
    if verdict != "PASS" or not dev < EQUIV_THRESHOLD:
        problems.append(f"verdict {verdict} with deviation {dev!r}")
    return problems


def check_trajectory(out: bytes, axis, rate, vector, t_start, t_end, steps) -> list[str]:
    """heisenberg-reversed JSONL: labels are the negated time grid, and the
    row at label L is the input rotated by -rate*t about the axis, t = -L."""
    lines = out.decode().splitlines()
    if len(lines) != steps:
        return [f"expected {steps} rows, got {len(lines)}"]
    grid = np.linspace(t_start, t_end, steps)
    problems = []
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
            label = float(row["time_label"])
            v = np.array([row["vx"], row["vy"], row["vz"]], dtype=float)
        except (ValueError, KeyError, TypeError):
            problems.append(f"row {i}: unparsable {line!r}")
        else:
            t = -label
            if not _same_grid_value(t, grid[i]):
                problems.append(f"row {i}: label {label!r} is not -{grid[i]!r}")
            elif not float(np.max(np.abs(v - rodrigues(axis, -rate * t, vector)))) <= VEC_TOL:
                problems.append(f"row {i}: vector off the Rodrigues oracle")
            elif not abs(math.sqrt(float(v @ v)) - 1.0) <= VEC_TOL:
                problems.append(f"row {i}: norm {math.sqrt(float(v @ v))!r} is not 1")
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems
