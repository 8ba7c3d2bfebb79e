"""Command-line surface: equivalence checks, halting demos, self-reference
sweeps, and trajectory traces as plot-ready CSV or JSON-Lines.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success or
property holds, 1 property violated or I/O failure, 2 usage error.
Angles are radians unless --degrees is given.  Randomized commands take an
explicit --seed; there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .bloch import (
    expectation,
    haar_random_unitary,
    normalized,
    random_unit_vector,
    rotate_observable,
    rotate_state,
)
from .halting import HaltingMachine, run, self_reference
from .pictures import EvolutionSpec, Picture, trajectory

EQUIV_THRESHOLD = 1e-12

PICTURE_NAMES = {p.value: p for p in Picture}

Z_AXIS = (0.0, 0.0, 1.0)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cell(x) -> str:
    # 17 significant digits round-trip any double losslessly.
    return ("true" if x else "false") if isinstance(x, bool) else format(x, ".17g")


def _write_rows(path: str, fmt: str, fields: tuple[str, ...], rows) -> int:
    """Write rows to path ('-' for stdout) as CSV with a header, or as JSON
    Lines.  Returns the exit code: 0, or 1 after reporting an I/O error."""
    try:
        with open(path, "w") if path != "-" else contextlib.nullcontext(sys.stdout) as out:
            if fmt == "csv":
                out.write(",".join(fields) + "\n")
                for row in rows:
                    out.write(",".join(map(_cell, row)) + "\n")
            else:
                for row in rows:
                    cells = (f'"{k}": {_cell(x)}' for k, x in zip(fields, row))
                    out.write("{" + ", ".join(cells) + "}\n")
            out.flush()
    except OSError as exc:
        if path == "-":
            # Point stdout at devnull so the flush at exit cannot fail again
            # (the "Note on SIGPIPE" in the documentation of module signal).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: writing {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _unit_or_none(raw, name: str):
    try:
        return normalized(raw)
    except ValueError as exc:
        print(f"error: --{name}: {exc}", file=sys.stderr)
        return None


def cmd_equiv_check(args) -> int:
    if args.trials < 1:
        return _usage_error(f"--trials must be >= 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    max_dev = 0.0
    for _ in range(args.trials):
        u = haar_random_unitary(rng)
        e = random_unit_vector(rng)
        v = random_unit_vector(rng)
        dev = abs(expectation(e, rotate_state(u, v)) - expectation(rotate_observable(u, e), v))
        max_dev = max(max_dev, dev)
    ok = max_dev < EQUIV_THRESHOLD
    verdict = "PASS" if ok else "FAIL"
    print(
        f"max deviation {max_dev:.3e} over {args.trials} trials "
        f"(seed {args.seed}, rng PCG64): {verdict} (threshold {EQUIV_THRESHOLD:g})"
    )
    return 0 if ok else 1


def cmd_halting_demo(args) -> int:
    delta = math.radians(args.delta) if args.degrees else args.delta
    axis = _unit_or_none(args.axis, "axis")
    system = _unit_or_none(args.system, "system")
    if axis is None or system is None:
        return 2
    picture = PICTURE_NAMES[args.picture]
    if picture is Picture.HEISENBERG_REVERSED:
        return _usage_error("the halting machine runs in schrodinger or heisenberg only")
    machine = HaltingMachine(axis=axis, angle=delta, system=system)
    report = run(machine, picture)
    print(
        json.dumps(
            {
                "picture": report.picture.value,
                "system_out": [float(x) for x in report.system_out],
                "halt_out": [float(x) for x in report.halt_out],
                "system_basis_out": [float(x) for x in report.system_basis_out],
                "halt_basis_out": [float(x) for x in report.halt_basis_out],
                "system_expectation": report.system_expectation,
                "halt_expectation": report.halt_expectation,
            }
        )
    )
    return 0


def cmd_self_ref_sweep(args) -> int:
    if args.theta_steps < 2 or args.delta_steps < 2:
        return _usage_error("--theta-steps and --delta-steps must be >= 2")
    if args.tol <= 0.0:
        return _usage_error(f"--tol must be positive, got {args.tol}")
    theta_lo, theta_hi = args.theta_range
    delta_lo, delta_hi = args.delta_range
    if args.degrees:
        theta_lo, theta_hi = math.radians(theta_lo), math.radians(theta_hi)
        delta_lo, delta_hi = math.radians(delta_lo), math.radians(delta_hi)
    # Finite bounds with min < max have a positive width, which may still overflow.
    if not (0.0 < theta_hi - theta_lo < math.inf and 0.0 < delta_hi - delta_lo < math.inf):
        return _usage_error("ranges must be ordered min < max and of finite width")
    if args.workers < 1:
        return _usage_error(f"--workers must be >= 1, got {args.workers}")

    deltas = np.linspace(delta_lo, delta_hi, args.delta_steps).tolist()
    rows = []
    for theta in np.linspace(theta_lo, theta_hi, args.theta_steps).tolist():  # row-major
        basis = (math.sin(theta), 0.0, math.cos(theta))
        for delta in deltas:
            gap = self_reference(Z_AXIS, delta, basis).discrepancy_angle
            rows.append((theta, delta, gap, gap < args.tol))
    fields = ("theta", "delta", "discrepancy_angle", "fixed_point")
    return _write_rows(args.output, args.format, fields, rows)


def cmd_trajectory(args) -> int:
    rate = math.radians(args.rate) if args.degrees else args.rate
    axis = _unit_or_none(args.axis, "axis")
    vector = _unit_or_none(args.input, "input")
    if axis is None or vector is None:
        return 2
    spec = EvolutionSpec(axis=axis, rate=rate, picture=PICTURE_NAMES[args.picture])
    try:
        samples = trajectory(spec, vector, args.t_start, args.t_end, args.steps)
    except ValueError as exc:  # bad grid, or rate * t overflowing to inf
        return _usage_error(str(exc))
    rows = ((s.time_label, *s.vector.tolist()) for s in samples)
    return _write_rows("-", args.format, ("time_label", "vx", "vy", "vz"), rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbloch",
        description="Single-qubit Bloch-vector dynamics in both dynamical pictures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    vector_arg = dict(type=finite_float, nargs=3, required=True, metavar=("X", "Y", "Z"))
    range_arg = dict(type=finite_float, nargs=2, metavar=("MIN", "MAX"))

    p = sub.add_parser(
        "equiv-check",
        help="verify expectation values agree across pictures on Haar-random inputs",
    )
    p.add_argument("--trials", type=int, required=True, help="number of random trials (>= 1)")
    p.add_argument("--seed", type=nonneg_int, required=True, help="RNG seed (PCG64, >= 0)")
    p.set_defaults(func=cmd_equiv_check)

    p = sub.add_parser("halting-demo", help="run the halting machine once, JSON report on stdout")
    p.add_argument("--axis", **vector_arg)
    p.add_argument("--delta", type=finite_float, required=True, help="rotation angle")
    p.add_argument("--system", **vector_arg)
    p.add_argument(
        "--picture",
        choices=sorted(PICTURE_NAMES),
        required=True,
        help="dynamical picture (heisenberg-reversed is rejected here)",
    )
    p.add_argument("--degrees", action="store_true", help="interpret --delta in degrees")
    p.set_defaults(func=cmd_halting_demo)

    p = sub.add_parser(
        "self-ref-sweep",
        help="tabulate the two-picture disagreement over a (theta, delta) grid",
    )
    p.add_argument("--theta-steps", type=int, required=True, help="grid points in theta (>= 2)")
    p.add_argument("--delta-steps", type=int, required=True, help="grid points in delta (>= 2)")
    p.add_argument(
        "--theta-range",
        **range_arg,
        default=(0.0, math.pi),
        help="polar angle of the basis vector from the z axis (default 0 pi)",
    )
    p.add_argument(
        "--delta-range",
        **range_arg,
        default=(0.0, 2.0 * math.pi),
        help="rotation angle range (default 0 2*pi)",
    )
    p.add_argument("--tol", type=finite_float, default=1e-9, help="fixed-point tolerance, radians")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--workers", type=int, default=1, help="accepted (>= 1) but has no effect")
    p.add_argument("--degrees", action="store_true", help="interpret ranges in degrees")
    p.set_defaults(func=cmd_self_ref_sweep)

    p = sub.add_parser("trajectory", help="sample one evolution on a uniform time grid")
    p.add_argument("--picture", choices=sorted(PICTURE_NAMES), required=True)
    p.add_argument("--axis", **vector_arg)
    p.add_argument("--rate", type=finite_float, default=1.0, help="angle per unit time (default 1)")
    p.add_argument("--input", **vector_arg)
    p.add_argument("--t-start", type=finite_float, required=True)
    p.add_argument("--t-end", type=finite_float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid points incl. endpoints (>= 2)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--degrees", action="store_true", help="interpret --rate in degrees per unit time")
    p.set_defaults(func=cmd_trajectory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
