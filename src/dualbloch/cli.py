"""Command-line surface: equivalence checks, halting demos, self-reference
sweeps, and trajectory traces as plot-ready CSV or JSON-Lines.

Data goes to stdout, all of it through _write; diagnostics go to stderr.
Exit codes: 0 success or property holds, 1 property violated or I/O failure
(a closed pipe included), 2 usage error.  The parser checks each flag; the
commands check only how flags relate and what the library rejects.  Angles
are radians unless --degrees is given.  Randomized commands take an
explicit --seed; there is no wall-clock default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
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
# Every negative value float() reads: argparse's own pattern knows only plain
# decimals and takes "-1e-3", "-inf" or "-nan" for an option string.
NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

Z_AXIS = (0.0, 0.0, 1.0)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class UnitVector(argparse.Action):
    """Store a 3-vector flag scaled to unit norm; the zero vector is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, normalized(values))
        except ValueError as exc:
            parser.error(f"{option_string}: {exc}")


def _cell(x) -> str:
    # 17 significant digits round-trip any double losslessly.
    return ("true" if x else "false") if isinstance(x, bool) else format(x, ".17g")


def _lines(fmt: str, fields: tuple[str, ...], rows):
    """Rows as CSV lines after a header, or as JSON Lines."""
    if fmt == "csv":
        yield ",".join(fields) + "\n"
        for row in rows:
            yield ",".join(map(_cell, row)) + "\n"
    else:
        keys = [f'"{k}": ' for k in fields]
        for row in rows:
            yield "{" + ", ".join(k + _cell(x) for k, x in zip(keys, row)) + "}\n"


def _write(path: str, lines) -> int:
    """Write lines to path ('-' for stdout).  Returns the exit code: 0, or 1
    after reporting an I/O error."""
    try:
        with open(path, "w") if path != "-" else contextlib.nullcontext(sys.stdout) as out:
            out.writelines(lines)
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


def cmd_equiv_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    max_dev = 0.0
    for _ in range(args.trials):
        u = haar_random_unitary(rng)
        e = random_unit_vector(rng)
        v = random_unit_vector(rng)
        dev = abs(expectation(e, rotate_state(u, v)) - expectation(rotate_observable(u, e), v))
        max_dev = max(max_dev, dev)
    ok = max_dev < EQUIV_THRESHOLD
    line = (
        f"max deviation {max_dev:.3e} over {args.trials} trials (seed {args.seed}, rng PCG64): "
        f"{'PASS' if ok else 'FAIL'} (threshold {EQUIV_THRESHOLD:g})\n"
    )
    return _write("-", [line]) or (0 if ok else 1)


def cmd_halting_demo(args) -> int:
    delta = math.radians(args.delta) if args.degrees else args.delta
    machine = HaltingMachine(axis=args.axis, angle=delta, system=args.system)
    report = run(machine, Picture(args.picture))
    doc = dict(vars(report), picture=report.picture.value)  # keys in RunReport field order
    for key in ("system_out", "halt_out", "system_basis_out", "halt_basis_out"):
        doc[key] = doc[key].tolist()
    return _write("-", [json.dumps(doc) + "\n"])


def cmd_self_ref_sweep(args) -> int:
    theta_lo, theta_hi = args.theta_range
    delta_lo, delta_hi = args.delta_range
    if args.degrees:
        theta_lo, theta_hi = math.radians(theta_lo), math.radians(theta_hi)
        delta_lo, delta_hi = math.radians(delta_lo), math.radians(delta_hi)
    # Finite bounds with min < max have a positive width, which may still overflow.
    if not (0.0 < theta_hi - theta_lo < math.inf and 0.0 < delta_hi - delta_lo < math.inf):
        return _usage_error("ranges must be ordered min < max and of finite width")

    deltas = np.linspace(delta_lo, delta_hi, args.delta_steps).tolist()
    rows = []
    for theta in np.linspace(theta_lo, theta_hi, args.theta_steps).tolist():  # row-major
        basis = (math.sin(theta), 0.0, math.cos(theta))
        for delta in deltas:
            gap = self_reference(Z_AXIS, delta, basis).discrepancy_angle
            rows.append((theta, delta, gap, gap < args.tol))
    fields = ("theta", "delta", "discrepancy_angle", "fixed_point")
    return _write(args.output, _lines(args.format, fields, rows))


def cmd_trajectory(args) -> int:
    rate = math.radians(args.rate) if args.degrees else args.rate
    spec = EvolutionSpec(axis=args.axis, rate=rate, picture=Picture(args.picture))
    try:
        samples = trajectory(spec, args.input, args.t_start, args.t_end, args.steps)
    except ValueError as exc:  # t_start >= t_end, or rate * t overflowing to inf
        return _usage_error(str(exc))
    rows = ((s.time_label, *s.vector.tolist()) for s in samples)
    return _write("-", _lines(args.format, ("time_label", "vx", "vy", "vz"), rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbloch",
        description="Single-qubit Bloch-vector dynamics in both dynamical pictures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    vector_arg = dict(
        type=finite_float, nargs=3, action=UnitVector, required=True, metavar=("X", "Y", "Z")
    )
    range_arg = dict(type=finite_float, nargs=2, metavar=("MIN", "MAX"))
    count, grid = int_at_least(1), int_at_least(2)  # grid: points including both ends

    p = sub.add_parser(
        "equiv-check",
        help="verify expectation values agree across pictures on Haar-random inputs",
    )
    p.add_argument("--trials", type=count, required=True, help="number of random trials (>= 1)")
    p.add_argument("--seed", type=int_at_least(0), required=True, help="RNG seed (PCG64, >= 0)")
    p.set_defaults(func=cmd_equiv_check)

    p = sub.add_parser("halting-demo", help="run the halting machine once, JSON report on stdout")
    p.add_argument("--axis", **vector_arg)
    p.add_argument("--delta", type=finite_float, required=True, help="rotation angle")
    p.add_argument("--system", **vector_arg)
    p.add_argument("--picture", choices=("heisenberg", "schrodinger"), required=True)
    p.add_argument("--degrees", action="store_true", help="interpret --delta in degrees")
    p.set_defaults(func=cmd_halting_demo)

    p = sub.add_parser(
        "self-ref-sweep",
        help="tabulate the two-picture disagreement over a (theta, delta) grid",
    )
    p.add_argument("--theta-steps", type=grid, required=True, help="grid points in theta (>= 2)")
    p.add_argument("--delta-steps", type=grid, required=True, help="grid points in delta (>= 2)")
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
    p.add_argument(
        "--tol", type=positive_float, default=1e-9, help="fixed-point tolerance, radians"
    )
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--workers", type=count, default=1, help="accepted (>= 1) but has no effect")
    p.add_argument("--degrees", action="store_true", help="interpret ranges in degrees")
    p.set_defaults(func=cmd_self_ref_sweep)

    p = sub.add_parser("trajectory", help="sample one evolution on a uniform time grid")
    p.add_argument("--picture", choices=[pic.value for pic in Picture], required=True)
    p.add_argument("--axis", **vector_arg)
    p.add_argument("--rate", type=finite_float, default=1.0, help="angle per unit time (default 1)")
    p.add_argument("--input", **vector_arg)
    p.add_argument("--t-start", type=finite_float, required=True)
    p.add_argument("--t-end", type=finite_float, required=True)
    p.add_argument("--steps", type=grid, required=True, help="grid points incl. endpoints (>= 2)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--degrees", action="store_true", help="interpret --rate in degrees per unit time")
    p.set_defaults(func=cmd_trajectory)

    # No option here looks like a number, so a token that does is a value.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
