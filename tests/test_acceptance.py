"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).  Tolerances are fixed
here and nowhere else.
"""

import math
import time

import numpy as np

from dualbloch.bloch import (
    adjoint_rotation,
    expectation,
    haar_random_unitary,
    measure_sample,
    random_unit_vector,
    rodrigues,
    rotate_observable,
    rotate_state,
)
from dualbloch.halting import (
    HaltingMachine,
    discrepancy_closed_form,
    is_fixed_point,
    run,
    self_reference,
)
from dualbloch.pictures import Picture, reversed_label_equivalence
from dualbloch.su2 import adjoint, compose, exp_generator, make_unitary

from helpers import is_rotation, run_cli

Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_01_picture_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        u = haar_random_unitary(rng)
        e = random_unit_vector(rng)
        v = random_unit_vector(rng)
        gap = abs(expectation(e, rotate_state(u, v)) - expectation(rotate_observable(u, e), v))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    assert _verdict(1, "picture equivalence over 1000 Haar trials", ok,
                    f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_printed_formula_conformance():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        v = random_unit_vector(rng)
        c, s = math.cos(alpha), math.sin(alpha)
        u = make_unitary(Y_AXIS, alpha)
        state_formula = np.array([c * v[0] + s * v[2], v[1], -s * v[0] + c * v[2]])
        obs_formula = np.array([c * v[0] - s * v[2], v[1], s * v[0] + c * v[2]])
        worst = max(worst, float(np.max(np.abs(rotate_state(u, v) - state_formula))))
        worst = max(worst, float(np.max(np.abs(rotate_observable(u, v) - obs_formula))))
    ok = worst < 1e-12
    assert _verdict(2, "y-rotation component formulas, both pictures", ok,
                    f"max dev {worst:.2e}")


def test_criterion_03_conjugation_vs_rodrigues_oracle():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        axis = random_unit_vector(rng)
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        v = random_unit_vector(rng)
        via_conjugation = rotate_state(make_unitary(axis, angle), v)
        via_closed_form = rodrigues(axis, angle, v)
        worst = max(worst, float(np.max(np.abs(via_conjugation - via_closed_form))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 2.0
    assert _verdict(3, "conjugation path vs Rodrigues closed form, 10^4 draws", ok,
                    f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_su2_to_so3_structure():
    rng = np.random.default_rng(1004)
    worst_hom = worst_kernel = 0.0
    all_so3 = True
    for _ in range(1000):
        a = haar_random_unitary(rng)
        b = haar_random_unitary(rng)
        ra, rb = adjoint_rotation(a), adjoint_rotation(b)
        all_so3 = all_so3 and is_rotation(ra, 1e-10)
        worst_hom = max(worst_hom, float(np.max(np.abs(adjoint_rotation(compose(a, b)) - ra @ rb))))
        worst_kernel = max(worst_kernel, float(np.max(np.abs(ra - adjoint_rotation(-a)))))
    ok = all_so3 and worst_hom < 1e-10 and worst_kernel < 1e-12
    assert _verdict(4, "SO(3) structure: homomorphism, orthogonality, kernel", ok,
                    f"hom {worst_hom:.2e}, kernel {worst_kernel:.2e}")


def test_criterion_05_halting_machine_both_pictures():
    rng = np.random.default_rng(1005)
    worst_halt = worst_system = 0.0
    for _ in range(1000):
        machine = HaltingMachine(
            axis=random_unit_vector(rng),
            angle=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            system=random_unit_vector(rng),
            system_basis=random_unit_vector(rng),
        )
        schro = run(machine, Picture.SCHRODINGER)
        heis = run(machine, Picture.HEISENBERG)
        worst_halt = max(worst_halt, abs(schro.halt_expectation + 1.0),
                         abs(heis.halt_expectation + 1.0))
        worst_system = max(worst_system, abs(schro.system_expectation - heis.system_expectation))
    ok = worst_halt < 1e-12 and worst_system < 1e-12
    assert _verdict(5, "halting machine: halt -1 and matching system expectation", ok,
                    f"halt dev {worst_halt:.2e}, system dev {worst_system:.2e}")


def test_criterion_06_contradiction_landscape():
    t0 = time.perf_counter()
    thetas = np.linspace(0.0, math.pi, 37)
    deltas = np.linspace(0.0, 2.0 * math.pi, 73)
    classified_correctly = True
    for i, theta in enumerate(thetas):
        basis = (math.sin(float(theta)), 0.0, math.cos(float(theta)))
        for j, delta in enumerate(deltas):
            expected = i in (0, 36) or j in (0, 36, 72)  # theta in {0, pi} or delta = k pi
            got = is_fixed_point(Z_AXIS, float(delta), basis, tol=1e-9)
            classified_correctly = classified_correctly and (got == expected)
    peak = self_reference(Z_AXIS, math.pi / 2, (1.0, 0.0, 0.0)).discrepancy_angle
    elapsed = time.perf_counter() - t0
    ok = classified_correctly and abs(peak - math.pi) < 1e-10 and elapsed < 1.0
    assert _verdict(6, "fixed-point landscape on the 37x73 grid", ok,
                    f"peak |dev| {abs(peak - math.pi):.2e}, {elapsed:.2f}s")


def test_criterion_07_closed_form_discrepancy_oracle():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(10_000):
        axis = random_unit_vector(rng)
        basis = random_unit_vector(rng)
        delta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        theta = math.acos(min(1.0, max(-1.0, float(np.dot(axis, basis)))))
        got = self_reference(axis, delta, basis).discrepancy_angle
        worst = max(worst, abs(got - discrepancy_closed_form(theta, delta)))
    ok = worst < 1e-10
    assert _verdict(7, "self-reference matches closed-form oracle, 10^4 draws", ok,
                    f"max dev {worst:.2e}")


def test_criterion_08_time_reversal_identity():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        axis = random_unit_vector(rng)
        t = float(rng.uniform(-3 * math.pi, 3 * math.pi))
        diff = adjoint(exp_generator(axis, t)) - exp_generator(axis, -t)
        worst = max(worst, float(np.max(np.abs(diff))))
    all_relabeled = True
    for _ in range(100):
        axis = random_unit_vector(rng)
        rate = float(rng.uniform(-3.0, 3.0))
        vector = random_unit_vector(rng)
        grid = rng.uniform(-6.0, 6.0, size=int(rng.integers(1, 12)))
        all_relabeled = all_relabeled and reversed_label_equivalence(axis, rate, vector, grid)
    ok = worst < 1e-15 and all_relabeled
    assert _verdict(8, "adjoint flips the sign of time; reversed labels relabel", ok,
                    f"max entry dev {worst:.2e}")


def test_criterion_09_measurement_sampling():
    t0 = time.perf_counter()
    orthogonal = measure_sample((1, 0, 0), (0, 0, 1), rng_seed=90210, shots=1_000_000)
    mean = abs(float(np.mean(orthogonal)))
    aligned = measure_sample((0, 0, 1), (0, 0, 1), rng_seed=3, shots=1000)
    anti = measure_sample((0, 0, -1), (0, 0, 1), rng_seed=3, shots=1000)
    elapsed = time.perf_counter() - t0
    ok = (
        mean < 0.005
        and bool(np.all(aligned == 1))
        and bool(np.all(anti == -1))
        and set(np.unique(orthogonal)) <= {-1, 1}
        and elapsed < 2.0
    )
    assert _verdict(9, "two-valued sampling: extremes exact, orthogonal mean ~0", ok,
                    f"|mean| {mean:.4f}, {elapsed:.2f}s")


def test_criterion_10_cli_determinism():
    commands = [
        ("equiv-check", "--trials", "300", "--seed", "42"),
        ("halting-demo", "--axis", "0", "1", "0", "--delta", "1.5707963",
         "--system", "0", "0", "1", "--picture", "schrodinger"),
        ("self-ref-sweep", "--theta-steps", "7", "--delta-steps", "9"),
        ("trajectory", "--picture", "heisenberg-reversed", "--axis", "0", "1", "0",
         "--input", "0", "0", "1", "--t-start", "0", "--t-end", "3.14", "--steps", "9"),
    ]
    repeatable = True
    for argv in commands:
        first, second = run_cli(*argv), run_cli(*argv)
        repeatable = repeatable and first.returncode == 0 and first.stdout == second.stdout
    sweep = ("self-ref-sweep", "--theta-steps", "11", "--delta-steps", "11")
    one = run_cli(*sweep, "--workers", "1")
    four = run_cli(*sweep, "--workers", "4")
    workers_agree = one.returncode == four.returncode == 0 and one.stdout == four.stdout
    ok = repeatable and workers_agree
    assert _verdict(10, "byte-identical CLI reruns and worker independence", ok)
