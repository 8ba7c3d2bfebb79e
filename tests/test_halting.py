import copy
import math
import pickle

import numpy as np
import pytest

from dualbloch.bloch import (
    adjoint_rotation,
    expectation,
    haar_random_unitary,
    random_unit_vector,
    rotate_observable,
    rotate_state,
)
from dualbloch.halting import (
    HALT_POLE,
    HaltingMachine,
    discrepancy_closed_form,
    is_fixed_point,
    run,
    self_reference,
)
from dualbloch.pictures import EvolutionSpec, Picture, trajectory
from dualbloch.su2 import make_unitary

from matrices import near_unit_vector

Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def _random_machine(rng):
    return HaltingMachine(
        axis=random_unit_vector(rng),
        angle=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
        system=random_unit_vector(rng),
        system_basis=random_unit_vector(rng),
    )


# ------------------------------------------------------------- construction


def test_machine_pins_halt_vectors_at_construction():
    m = HaltingMachine(axis=Y_AXIS, angle=1.0, system=(1, 0, 0), system_basis=(0, 1, 0))
    np.testing.assert_array_equal(m.halt, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(m.halt_basis, [0.0, 0.0, 1.0])
    # and the pre-run halt expectation is +1 by construction
    assert expectation(m.halt_basis, m.halt) == 1.0


def test_machines_share_the_read_only_halt_pole():
    a = HaltingMachine(axis=Y_AXIS, angle=1.0, system=Z_AXIS)
    b = HaltingMachine(axis=Z_AXIS, angle=2.0, system=Y_AXIS)
    assert a.halt is a.halt_basis is b.halt is HALT_POLE
    with pytest.raises(TypeError):
        HALT_POLE[0] = 1.0


_RECORDS = {
    "HaltingMachine": lambda: HaltingMachine(axis=Y_AXIS, angle=1.0, system=Z_AXIS),
    "RunReport": lambda: run(_RECORDS["HaltingMachine"](), Picture.SCHRODINGER),
    "SelfRefReport": lambda: self_reference(Y_AXIS, 1.0, Z_AXIS),
    "EvolutionSpec": lambda: EvolutionSpec(Y_AXIS, 1.0, Picture.HEISENBERG),
    "TrajectorySample": lambda: next(trajectory(EvolutionSpec(Y_AXIS), Z_AXIS, 0.0, 1.0, 2)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable(name):
    record = _RECORDS[name]()
    # A field cannot be rebound, and a subclass that forgot __slots__ = ()
    # would take a new attribute.
    for attribute in (record._fields[0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 2.0)
    assert record == tuple(getattr(record, f) for f in record._fields)


_REBUILDS = {
    "_replace": lambda record: record._replace(),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}
if hasattr(copy, "replace"):  # Python 3.13
    _REBUILDS["copy.replace"] = copy.replace


@pytest.mark.parametrize("rebuild", sorted(_REBUILDS))
@pytest.mark.parametrize("cls", [HaltingMachine, EvolutionSpec], ids=lambda cls: cls.__name__)
def test_every_rebuild_of_a_validated_record_validates(cls, rebuild):
    valid = _RECORDS[cls.__name__]()
    rebuilt = _REBUILDS[rebuild](valid)
    assert type(rebuilt) is cls and rebuilt == valid
    # A record that skipped validation (tuple.__new__ is the only way to
    # make one) is checked again by every way of rebuilding it.
    unchecked = tuple.__new__(cls, ((2.0, 0.0, 0.0), *valid[1:]))
    with pytest.raises(ValueError, match="axis norm 2.0"):
        _REBUILDS[rebuild](unchecked)


def test_stored_vectors_and_run_pass_throughs_are_read_only():
    m = HaltingMachine(axis=Y_AXIS, angle=1.0, system=Z_AXIS, system_basis=(1, 0, 0))
    schrodinger = run(m, Picture.SCHRODINGER)
    heisenberg = run(m, Picture.HEISENBERG)
    for vector in (
        m.axis, m.system, m.system_basis,
        schrodinger.system_basis_out, schrodinger.halt_basis_out,
        heisenberg.system_out, heisenberg.halt_out,
    ):  # fmt: skip
        with pytest.raises(TypeError):
            vector[:] = (0.0, 1.0, 0.0)


def test_machine_validates_inputs():
    with pytest.raises(ValueError, match="axis norm 0.0 deviates from 1"):
        HaltingMachine(axis=(0, 0, 0), angle=1.0, system=Z_AXIS)
    with pytest.raises(ValueError, match="angle must be finite"):
        HaltingMachine(axis=Y_AXIS, angle=math.inf, system=Z_AXIS)
    with pytest.raises(ValueError, match="Bloch vector norm 3.0 deviates from 1"):
        HaltingMachine(axis=Y_AXIS, angle=1.0, system=(0, 0, 3))


# ---------------------------------------------------------------------- run


def test_run_schrodinger_quarter_turn():
    m = HaltingMachine(axis=Y_AXIS, angle=math.pi / 2, system=Z_AXIS)
    report = run(m, Picture.SCHRODINGER)
    np.testing.assert_allclose(report.system_out, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(report.halt_out, [0, 0, -1], atol=1e-15)
    np.testing.assert_array_equal(report.system_basis_out, m.system_basis)
    np.testing.assert_array_equal(report.halt_basis_out, m.halt_basis)
    assert report.halt_expectation == pytest.approx(-1.0, abs=1e-15)


def test_run_heisenberg_quarter_turn_agrees_on_expectations():
    m = HaltingMachine(axis=Y_AXIS, angle=math.pi / 2, system=Z_AXIS)
    schro = run(m, Picture.SCHRODINGER)
    heis = run(m, Picture.HEISENBERG)
    np.testing.assert_allclose(heis.system_basis_out, [-1, 0, 0], atol=1e-15)
    np.testing.assert_array_equal(heis.system_out, m.system)
    np.testing.assert_array_equal(heis.halt_out, m.halt)
    assert heis.halt_expectation == pytest.approx(-1.0, abs=1e-15)
    assert abs(heis.system_expectation - schro.system_expectation) < 1e-12


def test_run_zero_angle_still_halts():
    m = HaltingMachine(axis=Y_AXIS, angle=0.0, system=(0.6, 0.0, 0.8))
    report = run(m, Picture.SCHRODINGER)
    np.testing.assert_allclose(report.system_out, m.system, atol=1e-15)
    assert report.halt_expectation == pytest.approx(-1.0, abs=1e-15)


def test_run_outputs_are_the_public_transports_bit_for_bit():
    rng = np.random.default_rng(64)
    for draw in (random_unit_vector, near_unit_vector):
        for _ in range(300):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            m = HaltingMachine(draw(rng), angle, draw(rng), draw(rng))
            u = make_unitary(m.axis, m.angle)
            schro, heis = run(m, Picture.SCHRODINGER), run(m, Picture.HEISENBERG)
            np.testing.assert_array_equal(schro.system_out, rotate_state(u, m.system))
            np.testing.assert_array_equal(
                heis.system_basis_out, rotate_observable(u, m.system_basis)
            )


def test_run_rejects_the_reversed_picture():
    m = HaltingMachine(axis=Y_AXIS, angle=1.0, system=Z_AXIS)
    with pytest.raises(ValueError, match="supports schrodinger and heisenberg only"):
        run(m, Picture.HEISENBERG_REVERSED)
    with pytest.raises(ValueError, match="supports schrodinger and heisenberg only"):
        run(m, "schrodinger")


def test_halt_always_signals_in_both_pictures():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        m = _random_machine(rng)
        for picture in (Picture.SCHRODINGER, Picture.HEISENBERG):
            assert abs(run(m, picture).halt_expectation + 1.0) < 1e-12


def test_system_expectation_matches_across_pictures():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(1000):
        m = _random_machine(rng)
        gap = abs(
            run(m, Picture.SCHRODINGER).system_expectation
            - run(m, Picture.HEISENBERG).system_expectation
        )
        worst = max(worst, gap)
    assert worst < 1e-12


# ------------------------------------------------------------ self-reference


def test_self_reference_quarter_turn_splits_by_pi():
    report = self_reference(Y_AXIS, math.pi / 2, Z_AXIS)
    np.testing.assert_allclose(report.schrodinger_output, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(report.heisenberg_output, [-1, 0, 0], atol=1e-15)
    assert abs(report.discrepancy_angle - math.pi) < 1e-12
    assert report.halted_in_both


def test_self_reference_outputs_are_the_two_transports_bit_for_bit():
    # One SO(3) matrix serves both readings; the outputs must not drift from
    # rotate_state and rotate_observable by even one ulp.
    rng = np.random.default_rng(63)
    for draw in (random_unit_vector, near_unit_vector):
        for _ in range(300):
            axis, basis = draw(rng), draw(rng)
            delta = float(rng.uniform(-4 * math.pi, 4 * math.pi))
            u = make_unitary(axis, delta)
            report = self_reference(axis, delta, basis)
            np.testing.assert_array_equal(report.schrodinger_output, rotate_state(u, basis))
            np.testing.assert_array_equal(report.heisenberg_output, rotate_observable(u, basis))


def test_self_reference_on_axis_basis_agrees():
    rng = np.random.default_rng(62)
    for _ in range(50):
        axis = random_unit_vector(rng)
        delta = float(rng.uniform(0, 2 * math.pi))
        assert self_reference(axis, delta, axis).discrepancy_angle < 1e-12
        assert self_reference(axis, delta, -np.asarray(axis)).discrepancy_angle < 1e-12


def test_self_reference_full_turn_of_pi_agrees():
    rng = np.random.default_rng(63)
    for _ in range(50):
        axis = random_unit_vector(rng)
        basis = random_unit_vector(rng)
        assert self_reference(axis, math.pi, basis).discrepancy_angle < 1e-9


def test_self_reference_rejects_bad_axis():
    with pytest.raises(ValueError, match="axis norm 0.2 deviates from 1"):
        self_reference((0.0, 0.2, 0.0), 1.0, Z_AXIS)


def test_self_reference_discrepancy_is_the_output_angle():
    rng = np.random.default_rng(64)
    for _ in range(100):
        r = self_reference(random_unit_vector(rng), float(rng.uniform(-7, 7)), random_unit_vector(rng))
        dot = float(np.dot(r.schrodinger_output, r.heisenberg_output))
        assert abs(math.cos(r.discrepancy_angle) - dot) < 1e-14
        assert 0.0 <= r.discrepancy_angle <= math.pi


# -------------------------------------------------------------- fixed points


def test_is_fixed_point_examples():
    assert is_fixed_point(Y_AXIS, 2.31, Y_AXIS, tol=1e-9)
    assert is_fixed_point(Y_AXIS, 0.7, (0.0, -1.0, 0.0), tol=1e-9)
    assert not is_fixed_point(Y_AXIS, math.pi / 2, Z_AXIS, tol=1e-9)


def test_is_fixed_point_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        is_fixed_point(Y_AXIS, 1.0, Z_AXIS, tol=0.0)


def test_fixed_point_landscape_on_a_coarse_grid():
    # agreement exactly on {theta in {0, pi}} or {delta = k pi}, nowhere else
    thetas = np.linspace(0.0, math.pi, 13)
    deltas = np.linspace(0.0, 2.0 * math.pi, 25)
    for i, theta in enumerate(thetas):
        basis = (math.sin(theta), 0.0, math.cos(theta))
        for j, delta in enumerate(deltas):
            expected = i in (0, 12) or j in (0, 12, 24)
            assert is_fixed_point(Z_AXIS, float(delta), basis, tol=1e-9) == expected


def test_closed_form_matches_both_examples_and_randoms():
    assert abs(discrepancy_closed_form(math.pi / 2, math.pi / 2) - math.pi) < 1e-14
    assert discrepancy_closed_form(0.0, 1.23) == 0.0
    assert discrepancy_closed_form(1.23, math.pi) < 1e-15
    assert math.isnan(discrepancy_closed_form(math.nan, 1.0))
    rng = np.random.default_rng(65)
    worst = 0.0
    for _ in range(2000):
        axis = random_unit_vector(rng)
        basis = random_unit_vector(rng)
        delta = float(rng.uniform(-7, 7))
        theta = math.atan2(float(np.linalg.norm(np.cross(axis, basis))), float(np.dot(axis, basis)))
        got = self_reference(axis, delta, basis).discrepancy_angle
        worst = max(worst, abs(got - discrepancy_closed_form(theta, delta)))
    assert worst < 1e-12


def test_discrepancy_invariant_under_joint_rotation():
    rng = np.random.default_rng(66)
    for _ in range(100):
        axis = random_unit_vector(rng)
        basis = random_unit_vector(rng)
        delta = float(rng.uniform(-7, 7))
        base = self_reference(axis, delta, basis).discrepancy_angle
        q = adjoint_rotation(haar_random_unitary(rng))
        moved = self_reference(q @ axis, delta, q @ basis).discrepancy_angle
        assert abs(base - moved) < 1e-10
