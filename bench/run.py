"""Benchmark for the dualbloch command line, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 runs ``python -m dualbloch`` as a user does: one fresh process
after another, each with the same seed-derived argv and stdout going to a
file, until the processes have run for --seconds.  Each process is timed
from outside, every distinct output is checked against a closed-form
oracle, and all outputs must be byte-identical.  Between those runs, a
fresh interpreter that only imports ``dualbloch.cli`` and parses the argv
is launched several times to measure set-up, and bench/reference.py runs
once after each program run to gauge the host's speed at that time.

--trace 1 runs the same argv in-process, alternating untraced passes with
passes under a Tracer (bench/tracer.py) that wraps the public functions of
every module, and reports calls and self time per function.  It also reads
import times from ``-X importtime`` and times a small sweep at --workers 1
against --workers 2.

--smoke shrinks every size so that a run takes about a second.

Every run of the program the harness makes counts as attempted; it fails
when it exits non-zero, prints a traceback, writes output that fails its
check or differs from the first output, or (traced) breaks a call-count
identity.  stdout ends with the run record (machine facts, argv, quartiles)
and then one JSON line: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "equiv", "trajectory")

# Traced functions, "<module>.<function>", grouped by the layer they belong to.
TRACED = [
    f"{module}.{fn}"
    for module, fns in (
        ("su2", ("make_unitary", "exp_generator", "unit_axis", "adjoint")),
        (
            "bloch",
            (
                "bloch_vector",
                "normalized",
                "expectation",
                "adjoint_rotation",
                "rotate_state",
                "rotate_observable",
                "haar_random_unitary",
                "random_unit_vector",
            ),
        ),
        ("pictures", ("evolve", "trajectory")),
        ("halting", ("self_reference",)),
        ("cli", ("cmd_equiv_check", "cmd_halting_demo", "cmd_self_ref_sweep", "cmd_trajectory")),
    )
    for fn in fns
]
REPEAT_KEYED = "su2.make_unitary"

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{
        f"{name}.{stat}": unit
        for name in TRACED
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("calls_per_item", "1/item"))
    },
    f"{REPEAT_KEYED}.repeat_frac": "fraction",
    "cli.bytes_out": "B",
    "cli.rows_out": "count",
    "cli.sweep.workers2_speedup": "ratio",
    "import.numpy_s": "s",
    "import.dualbloch_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.items": "count",
}

SETUP_CODE = (
    "import sys; from dualbloch.cli import build_parser; build_parser().parse_args(sys.argv[1:])"
)
SWEEP_TOL = 1e-9
RUN_LIMIT_S = 170.0  # the whole run ends within 180 s; a process still running is killed
OUT_DIR = ".bench_runs"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Typical wall and CPU seconds of one full-size reference run on the host the
# bounds were set on (2-core Xeon VM, Python 3.11, numpy 2.4): timed_run
# reports timings as if each reference run had taken this long.
REFERENCE_S = 0.7


@dataclass(frozen=True)
class Scale:
    sweep_grid: int  # theta and delta steps; odd, so multiples of pi fall on grid slots
    equiv_trials: int
    trajectory_steps: int
    setup_repeats: int
    import_repeats: int
    speedup_grid: int
    speedup_pairs: int
    reference_steps: int


# One full-size process takes about 2 s on a 2-core Xeon VM.
FULL = Scale(101, 10_000, 20_000, 9, 5, 41, 3, 8_000)
SMOKE = Scale(7, 20, 40, 2, 1, 5, 1, 20)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]  # arguments after `python -m dualbloch`
    items: int  # cells, trials or samples per run
    counted: str  # traced function called exactly once per item
    check: Callable[[bytes], list[str]]


# checks.py and tracer.py import dualbloch, so they are imported only after
# main() has put the checkout's src/ first on sys.path.


def sweep_workload(seed: int, grid: int, workers: int = 1) -> Workload:
    from checks import check_sweep

    step = 2.0 * math.pi / (grid - 1)
    # The seed picks the offset of the delta range.  Keeping it a fraction of
    # a step away from 0 keeps every delta away from the multiples of pi,
    # where the exact gap is 0 and the acos in the closed-form oracle has a
    # ~1e-8 noise floor.
    offset = step * random.Random(seed).uniform(0.05, 0.95)
    theta_range = (0.0, math.pi)
    delta_range = (offset, offset + 2.0 * math.pi)
    argv = [
        "self-ref-sweep",
        "--theta-steps", str(grid),
        "--delta-steps", str(grid),
        "--theta-range", *map(repr, theta_range),
        "--delta-range", *map(repr, delta_range),
        "--tol", repr(SWEEP_TOL),
        "--format", "csv",
        "--workers", str(workers),
    ]  # fmt: skip
    check = functools.partial(
        check_sweep,
        theta_range=theta_range,
        delta_range=delta_range,
        theta_steps=grid,
        delta_steps=grid,
        tol=SWEEP_TOL,
    )
    return Workload("sweep", argv, grid * grid, "halting.self_reference", check)


def equiv_workload(seed: int, trials: int) -> Workload:
    from checks import check_equiv

    cli_seed = random.Random(seed).randrange(2**31)
    argv = ["equiv-check", "--trials", str(trials), "--seed", str(cli_seed)]
    check = functools.partial(check_equiv, trials=trials, seed=cli_seed)
    return Workload("equiv", argv, trials, "bloch.haar_random_unitary", check)


def trajectory_workload(seed: int, steps: int) -> Workload:
    from checks import check_trajectory

    rnd = random.Random(seed)

    def unit():
        v = [rnd.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        return [x / norm for x in v]

    axis, vector = unit(), unit()
    rate = rnd.uniform(0.5, 2.0)
    t_start = rnd.uniform(-5.0, 0.0)
    t_end = t_start + rnd.uniform(5.0, 15.0)
    argv = [
        "trajectory",
        "--picture", "heisenberg-reversed",
        "--axis", *map(repr, axis),
        "--input", *map(repr, vector),
        "--rate", repr(rate),
        "--t-start", repr(t_start),
        "--t-end", repr(t_end),
        "--steps", str(steps),
        "--format", "jsonl",
    ]  # fmt: skip
    check = functools.partial(
        check_trajectory,
        axis=axis,
        rate=rate,
        vector=vector,
        t_start=t_start,
        t_end=t_end,
        steps=steps,
    )
    return Workload("trajectory", argv, steps, "pictures.evolve", check)


def make_workload(name: str, seed: int, scale: Scale) -> Workload:
    if name == "sweep":
        return sweep_workload(seed, scale.sweep_grid)
    if name == "equiv":
        return equiv_workload(seed, scale.equiv_trials)
    return trajectory_workload(seed, scale.trajectory_steps)


class Judge:
    """Pass/fail for each run of one argv: a clean exit, output that passes
    the check, and the same bytes as the first run."""

    def __init__(self, check: Callable[[bytes], list[str]]):
        self.check = check
        self.reference: str | None = None
        self.verdicts: dict[str, bool] = {}

    def failed(self, out: bytes, exited_ok: bool) -> bool:
        digest = hashlib.sha256(out).hexdigest()
        if digest not in self.verdicts:
            problems = self.check(out)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            self.verdicts[digest] = not problems
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            print("check failed: output differs from the first run", file=sys.stderr)
        return not (exited_ok and self.verdicts[digest] and digest == self.reference)


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exited_ok: bool  # exit code 0 and no traceback on stderr
    stderr: str


class Runner:
    """Launches fresh interpreters against the checkout's src/, one at a
    time, each with stdout and stderr going to files under OUT_DIR."""

    def __init__(self, src: Path, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.out_dir.mkdir(exist_ok=True)
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, args: list[str], tag: str) -> Proc:
        limit = max(1.0, self.deadline - time.monotonic())
        with open(self.out_dir / f"{tag}.stdout", "wb") as out, open(
            self.out_dir / f"{tag}.stderr", "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own CPU time and peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (self.out_dir / f"{tag}.stderr").read_text(errors="replace")
        return Proc(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            exited_ok=proc.returncode == 0 and "Traceback" not in stderr,
            stderr=stderr,
        )

    def stdout_path(self, tag: str) -> Path:
        return self.out_dir / f"{tag}.stdout"

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline


def read_output(path: Path) -> bytes:
    return path.read_bytes()


def quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    detail: dict


def timed_run(work: Workload, seconds: float, scale: Scale, runner: Runner) -> Result:
    setup_argv = ["-c", SETUP_CODE, *work.argv]
    # The first launch fills the bytecode caches and is not timed.
    warm = runner.spawn(setup_argv, f"{work.name}-setup")
    attempted, failed = 1, int(not warm.exited_ok)

    judge = Judge(work.check)
    procs: list[Proc] = []
    refs: list[Proc] = []
    setup: list[float] = []

    def measuring() -> bool:
        # At least two runs, so that byte identity across runs is always checked.
        return len(procs) < 2 or sum(p.wall for p in procs + refs) < seconds

    # Set-up launches alternate with workload runs, so that both sample the
    # same stretch of machine time.
    while (measuring() or len(setup) < scale.setup_repeats) and runner.time_left():
        if measuring():
            proc = runner.spawn(["-m", "dualbloch", *work.argv], work.name)
            procs.append(proc)
            attempted += 1
            failed += judge.failed(read_output(runner.stdout_path(work.name)), proc.exited_ok)
            if not proc.exited_ok:
                print(proc.stderr, file=sys.stderr)
            ref = runner.spawn([str(REFERENCE), str(scale.reference_steps)], "reference")
            if not ref.exited_ok:
                # Without the host's speed there is no result to report.
                raise SystemExit(f"error: {REFERENCE.name} failed:\n{ref.stderr}")
            refs.append(ref)
        if len(setup) < scale.setup_repeats:
            proc = runner.spawn(setup_argv, f"{work.name}-setup")
            setup.append(proc.wall)
            attempted += 1
            failed += not proc.exited_ok

    samples = {
        "items_per_s": [work.items / p.wall for p in procs],
        "setup_s": setup,
        "cpu_s": [p.cpu for p in procs],
        "peak_rss_mb": [p.rss_mb for p in procs],
    }
    stats = {name: quartiles(values) for name, values in samples.items()}
    # The shared host's speed swings by up to 1.5x, in phases from under a
    # second to minutes, so per-process times scatter widely and whole runs
    # land in fast or slow phases.  Two things steady the figures: totals over
    # the run (all items over all process wall time; CPU time per process as
    # a mean) in place of per-process medians, and scaling by the reference
    # runs interleaved with the program's, which slow down with the host in
    # the same phases.  items_per_s, cpu_s and setup_s are therefore the
    # program's figures on a host where the reference takes REFERENCE_S; the
    # raw figures go into the record.  Memory is the raw median.
    raw_items_per_s = work.items * len(procs) / sum(p.wall for p in procs)
    raw_cpu_s = statistics.fmean(p.cpu for p in procs)
    ref_wall = statistics.fmean(r.wall for r in refs)
    ref_cpu = statistics.fmean(r.cpu for r in refs)
    metrics = {name: s["median"] for name, s in stats.items()}
    metrics["items_per_s"] = raw_items_per_s * ref_wall / REFERENCE_S
    metrics["cpu_s"] = raw_cpu_s * REFERENCE_S / ref_cpu
    metrics["setup_s"] = stats["setup_s"]["median"] * REFERENCE_S / ref_wall
    return Result(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        detail={
            "quartiles": stats,
            "wall_s": [p.wall for p in procs],
            "raw": {
                "items_per_s": raw_items_per_s,
                "cpu_s": raw_cpu_s,
                "setup_s": stats["setup_s"]["median"],
            },
            "reference": {"wall_s": quartiles([r.wall for r in refs]), "cpu_s": ref_cpu},
        },
    )


def run_in_process(cli, argv: list[str], path: Path) -> tuple[float, bool]:
    """One call of the CLI's main() with stdout sent to path: (wall, exited_ok)."""
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            exited_ok = cli.main(argv) == 0
        except SystemExit as exc:
            exited_ok = exc.code == 0
        except Exception:  # a traceback counts as a failed run, not a harness crash
            traceback.print_exc()
            exited_ok = False
        return time.perf_counter() - start, exited_ok


def import_times(runner: Runner, argv: list[str]) -> tuple[float, float, bool]:
    """(numpy, dualbloch.cli) cumulative import seconds from -X importtime."""
    proc = runner.spawn(["-X", "importtime", "-c", SETUP_CODE, *argv], "importtime")
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    return cumulative.get("numpy", 0.0), cumulative.get("dualbloch.cli", 0.0), proc.exited_ok


def traced_run(work: Workload, seconds: float, scale: Scale, runner: Runner, seed: int) -> Result:
    import numpy as np

    import dualbloch.cli as cli
    from tracer import Tracer

    attempted = failed = 0
    numpy_s, dualbloch_s = [], []
    for _ in range(scale.import_repeats):
        numpy_t, dualbloch_t, ok = import_times(runner, work.argv)
        numpy_s.append(numpy_t)
        dualbloch_s.append(dualbloch_t)
        attempted += 1
        failed += not ok

    path = runner.stdout_path(f"{work.name}-inprocess")
    judge = Judge(work.check)
    tracer = Tracer(TRACED, keyed=REPEAT_KEYED)
    untraced, traced, self_s = [], [], {name: [] for name in TRACED}
    first_counts = None
    while len(traced) < 2 or sum(untraced) + sum(traced) < seconds:
        wall, ok = run_in_process(cli, work.argv, path)
        untraced.append(wall)
        attempted += 1
        failed += judge.failed(read_output(path), ok)

        tracer.reset()
        tracer.install()
        try:
            wall, ok = run_in_process(cli, work.argv, path)
        finally:
            tracer.uninstall()
        traced.append(wall)
        out = read_output(path)
        summary = tracer.summary()
        counts = {name: calls for name, (calls, _) in summary.items()}
        if first_counts is None:
            first_counts = counts
            repeat_frac = tracer.repeat_frac()
            bytes_out, rows_out = len(out), out.count(b"\n")
            np.savez(
                runner.out_dir / f"spans-{work.name}.npz",
                names=np.array(TRACED),
                spans=tracer.span_array(),
            )
        identities_hold = counts == first_counts and counts[work.counted] == work.items
        if not identities_hold:
            print(
                f"check failed: {work.counted} called {counts[work.counted]} times "
                f"for {work.items} items, or counts differ between traced passes",
                file=sys.stderr,
            )
        attempted += 1
        failed += judge.failed(out, ok) or not identities_hold
        for name, (_, busy) in summary.items():
            self_s[name].append(busy)
        if not runner.time_left():
            break
    tracer.reset()

    # --workers 1 against --workers 2 (= nproc on the reference machine).
    sweep = [sweep_workload(seed, scale.speedup_grid, workers) for workers in (1, 2)]
    speedup_judge = Judge(sweep[0].check)  # both worker counts must write the same bytes
    walls = {1: [], 2: []}
    speedup_path = runner.stdout_path("sweep-workers")
    for _ in range(scale.speedup_pairs):
        for workers, w in zip((1, 2), sweep):
            wall, ok = run_in_process(cli, w.argv, speedup_path)
            walls[workers].append(wall)
            attempted += 1
            failed += speedup_judge.failed(read_output(speedup_path), ok)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = first_counts[name]
        metrics[f"{name}.self_s"] = statistics.median(self_s[name])
        metrics[f"{name}.calls_per_item"] = first_counts[name] / work.items
    metrics.update(
        {
            f"{REPEAT_KEYED}.repeat_frac": repeat_frac,
            "cli.bytes_out": bytes_out,
            "cli.rows_out": rows_out,
            "cli.sweep.workers2_speedup": statistics.median(walls[1]) / statistics.median(walls[2]),
            "import.numpy_s": statistics.median(numpy_s),
            "import.dualbloch_s": statistics.median(dualbloch_s),
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "trace.items": work.items,
        }
    )
    return Result(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        detail={
            "untraced_s": quartiles(untraced),
            "traced_s": quartiles(traced),
            "speedup_grid": scale.speedup_grid,
        },
    )


def machine_facts(root: Path) -> dict:
    import numpy as np

    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as info:
        models = (line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
        cpu_model = next(models, cpu_model)
    commit = "unknown"  # the benchmark may run in an export that is not a git repository
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="program time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "dualbloch" / "__init__.py").is_file():
        print(f"error: no dualbloch package under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dualbloch

    if not Path(dualbloch.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported dualbloch from {dualbloch.__file__}, not {src}", file=sys.stderr)
        return 2

    scale = SMOKE if args.smoke else FULL
    work = make_workload(args.workload, args.seed, scale)
    runner = Runner(src, root / OUT_DIR, deadline=started + RUN_LIMIT_S)
    if args.trace:
        result = traced_run(work, args.seconds, scale, runner, args.seed)
        units = PER_LAYER_UNITS
    else:
        result = timed_run(work, args.seconds, scale, runner)
        units = END_TO_END_UNITS

    for name, unit in units.items():
        print(f"{work.name:<10} {name:<40} {result.metrics[name]:>14.6g} {unit}")
    print(f"{work.name:<10} {'failed_frac':<40} {result.failed / result.attempted:>14.6g} "
          f"({result.failed} of {result.attempted} runs)")  # fmt: skip
    record = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": ["python", "-m", "dualbloch", *work.argv],
        "items_per_run": work.items,
        "machine": machine_facts(root),
        **result.detail,
    }
    print(json.dumps({"record": record}))
    metrics = {name: {"value": result.metrics[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
