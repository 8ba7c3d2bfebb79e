"""Command-line surface: equivalence checks, halting demos, self-reference
sweeps, and trajectory traces as plot-ready CSV or JSON-Lines.

Data goes to stdout, all of it through _write; diagnostics through _report to stderr.
Exit codes: 0 success or property holds, 1 property violated or I/O failure
(a closed pipe included), 2 usage error, always in argparse's shape: the
parser checks each flag, the commands how flags relate (parser.error), so
the library rejects nothing they pass on.  Angles are radians unless --degrees
is given.  Randomized commands take an explicit --seed, with no clock default.
Only equiv-check, whose trials come from numpy's PCG64 stream, loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import re
import sys

from . import _report
from ._kernel import _axis_rotation, _expectation, _linspace, _quaternion_rotation, _transport
from ._kernel import bloch_vector, normalized
from .halting import FIXED_POINT_TOL, HaltingMachine, run, self_reference
from .pictures import EvolutionSpec, Picture, _rows

EQUIV_THRESHOLD = 1e-12
REAL = ".17g"  # 17 significant digits round-trip any double losslessly
_BLOCK = 1024  # lines per write call: PYTHONUNBUFFERED=1 writes through on each call
_COLUMNS = 1024  # sweep columns kept with their text and R, ~0.5 MB when full
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


def _lines(fmt: str, fields: dict[str, str], rows):
    """Rows as CSV lines after a header, or as JSON Lines, through one template
    built from fields, which maps each column name to its cells' format spec."""
    cells = [f"{{:{spec}}}" for spec in fields.values()]
    if fmt == "csv":
        yield ",".join(fields) + "\n"
        template = ",".join(cells) + "\n"
    else:
        template = "{{" + ", ".join(f'"{k}": {c}' for k, c in zip(fields, cells)) + "}}\n"
    yield from itertools.starmap(template.format, rows)


def _write(path: str, lines) -> int:
    """Write lines to path ('-' for stdout), _BLOCK lines per write call.
    Returns the exit code: 0, or 1 after reporting an I/O error."""
    lines = iter(lines)
    try:
        with open(path, "w") if path != "-" else contextlib.nullcontext(sys.stdout) as out:
            if out is None:  # Python's stdout when fd 1 was closed at start-up
                raise OSError("Bad file descriptor")
            while block := "".join(itertools.islice(lines, _BLOCK)):
                out.write(block)
            out.flush()
    except OSError as exc:
        _report(f"error: writing {path}: {exc.strerror or exc}")
        return 1
    return 0


def cmd_equiv_check(args) -> int:
    try:
        import numpy as np
        from .bloch import _NormalBlocks, haar_random_unitary, random_unit_vector
    except ImportError as exc:
        _report(f"error: equiv-check needs numpy: {exc}")
        return 1

    rng = _NormalBlocks(np.random.default_rng(args.seed))
    max_dev = 0.0
    for _ in range(args.trials):
        # The bodies of rotate_state(u, v) and rotate_observable(u, e) on one R,
        # built from u's quaternion, with each distinct vector checked once.
        (alpha, beta), _ = haar_random_unitary(rng).tolist()
        r = _quaternion_rotation(alpha.real, -beta.imag, -beta.real, -alpha.imag)
        e = bloch_vector(random_unit_vector(rng))
        v = bloch_vector(random_unit_vector(rng))
        state = bloch_vector(_transport(r, v, False))
        obs = bloch_vector(_transport(r, e, True))
        dev = abs(_expectation(e, state) - _expectation(obs, v))
        if dev > max_dev or dev != dev:  # a NaN sticks: max() would drop it
            max_dev = dev
    ok = max_dev < EQUIV_THRESHOLD
    line = (
        f"max deviation {max_dev:.3e} over {args.trials} trials (seed {args.seed}, rng PCG64): "
        f"{'PASS' if ok else 'FAIL'} (threshold {EQUIV_THRESHOLD:g})\n"
    )
    return _write("-", [line]) or (0 if ok else 1)


def cmd_halting_demo(args) -> int:
    import json  # the only command that needs it; the others start without it

    delta = math.radians(args.delta) if args.degrees else args.delta
    machine = HaltingMachine(axis=args.axis, angle=delta, system=args.system)
    report = run(machine, Picture(args.picture))
    doc = dict(report._asdict(), picture=report.picture.value)
    return _write("-", [json.dumps(doc) + "\n"])


def cmd_self_ref_sweep(args) -> int:
    bounds = []
    for flag, typed in (("--theta-range", args.theta_range), ("--delta-range", args.delta_range)):
        lo, hi = typed
        got = f"got {lo} {hi}"
        if not lo < hi:
            args.error(f"argument {flag}: must be ordered MIN < MAX, {got}")
        if args.degrees:
            lo, hi = math.radians(lo), math.radians(hi)
        # The width may overflow, or round to 0 in radians (a subnormal range in degrees).
        if not 0.0 < hi - lo < math.inf:
            args.error(f"argument {flag}: MAX - MIN in radians must be positive and finite, {got}")
        bounds += lo, hi
    theta_lo, theta_hi, delta_lo, delta_hi = bounds

    tol, steps = args.tol, args.delta_steps

    def columns(skip: int):  # (delta, its text, its R) for the columns from number skip on
        deltas = itertools.islice(_linspace(delta_lo, delta_hi, steps), skip, None)
        return ((delta, format(delta, REAL), _axis_rotation(Z_AXIS, delta)) for delta in deltas)

    # _linspace gives a delta the same bits on every row: the first _COLUMNS
    # columns keep their text and R for the run, and later ones are made per cell.
    head = list(itertools.islice(columns(0), _COLUMNS))

    def rows():  # row-major, computed as they are written
        for theta in _linspace(theta_lo, theta_hi, args.theta_steps):
            theta_text = format(theta, REAL)
            basis = (math.sin(theta), 0.0, math.cos(theta))
            tail = columns(len(head)) if steps > len(head) else ()
            for delta, delta_text, r in itertools.chain(head, tail):
                gap = self_reference(Z_AXIS, delta, basis, rotation=r).discrepancy_angle
                yield theta_text, delta_text, gap, "true" if gap < tol else "false"

    # An empty spec passes the text columns through str.format unparsed.
    fields = {"theta": "", "delta": "", "discrepancy_angle": REAL, "fixed_point": ""}
    return _write(args.output, _lines(args.format, fields, rows()))


def cmd_trajectory(args) -> int:
    if not args.t_start < args.t_end:
        args.error(f"--t-start {args.t_start} is not below --t-end {args.t_end}")
    if not math.isfinite(args.t_end - args.t_start):
        args.error(f"--t-end {args.t_end} minus --t-start {args.t_start} is not finite")
    rate = math.radians(args.rate) if args.degrees else args.rate
    # rate times the end of the grid farther from 0 is its largest angle, in either sign.
    flag, t = ("--t-start", args.t_start) if -args.t_start > args.t_end else ("--t-end", args.t_end)
    if not math.isfinite(rate * t):
        args.error(f"--rate {args.rate} times {flag} {t} is not finite")
    spec = EvolutionSpec(axis=args.axis, rate=rate, picture=Picture(args.picture))
    rows = _rows(spec, args.input, args.t_start, args.t_end, args.steps)
    fields = dict.fromkeys(("time_label", "vx", "vy", "vz"), REAL)
    return _write("-", _lines(args.format, fields, rows))


class HelpParser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes out through _write and its errors through _report."""

    def print_help(self, file=None):  # help that cannot be written exits 1, not argparse's 0
        if file is not None:
            super().print_help(file)
        elif _write("-", [self.format_help()]):
            self.exit(1)

    def error(self, message):  # argparse's bytes, but never on stdout, whatever stderr is
        _report(f"{self.format_usage()}{self.prog}: error: {message}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = HelpParser(
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
        "--tol",
        type=positive_float,
        default=FIXED_POINT_TOL,
        help="fixed-point tolerance, radians",
    )
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--workers", type=count, default=1, help="accepted (>= 1) but has no effect")
    p.add_argument("--degrees", action="store_true", help="interpret ranges in degrees")
    p.set_defaults(func=cmd_self_ref_sweep, error=p.error)

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
    p.set_defaults(func=cmd_trajectory, error=p.error)

    # No option here looks like a number, so a token that does is a value.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, changing nothing of the
    calling process: the process-wide effects belong to dualbloch.__main__.run."""
    args = build_parser().parse_args(argv)
    return args.func(args)
