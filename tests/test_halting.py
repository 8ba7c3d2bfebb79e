import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbloch import halting
from dualbloch._kernel import _axis_rotation, _transport, bloch_vector, normalized, unit_axis
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
    SelfRefReport,
    discrepancy_closed_form,
    is_fixed_point,
    run,
    self_reference,
)
from dualbloch.pictures import EvolutionSpec, Picture, TrajectorySample, trajectory
from dualbloch.su2 import SIGMA_X, make_unitary

from matrices import CORNER_ANGLES, CORNERS, ORACLE_ANGLES, bits, near_unit_vector, worst

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
    # Compared as bytes, so the signs of the corners' exact zeros count.
    machines = [HaltingMachine(axis, angle, v, v)
                for axis in CORNERS for angle in CORNER_ANGLES for v in CORNERS]  # fmt: skip
    rng = np.random.default_rng(64)
    for draw in (random_unit_vector, near_unit_vector):
        for _ in range(300):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            machines.append(HaltingMachine(draw(rng), angle, draw(rng), draw(rng)))
    for m in machines:
        u = make_unitary(m.axis, m.angle)
        schro, heis = run(m, Picture.SCHRODINGER), run(m, Picture.HEISENBERG)
        assert bits(schro.system_out) == bits(rotate_state(u, m.system)), m
        assert bits(heis.system_basis_out) == bits(rotate_observable(u, m.system_basis)), m


def test_the_flip_is_the_rotation_of_sigma_x_bit_for_bit():
    want = struct.pack("9d", *adjoint_rotation(SIGMA_X).ravel().tolist())
    assert struct.pack("9d", *halting._FLIP) == want


def test_halt_always_signals_in_both_pictures():
    rng = np.random.default_rng(60)
    for _ in range(1000):
        m = _random_machine(rng)
        for picture in (Picture.SCHRODINGER, Picture.HEISENBERG):
            assert abs(run(m, picture).halt_expectation + 1.0) < 1e-12


def test_system_expectation_matches_across_pictures():
    rng = np.random.default_rng(61)
    gaps = []
    for _ in range(1000):
        m = _random_machine(rng)
        gaps.append(abs(
            run(m, Picture.SCHRODINGER).system_expectation
            - run(m, Picture.HEISENBERG).system_expectation
        ))
    assert worst(gaps) < 1e-12


# ------------------------------------------------------------ self-reference


def test_self_reference_quarter_turn_splits_by_pi():
    report = self_reference(Y_AXIS, math.pi / 2, Z_AXIS)
    np.testing.assert_allclose(report.schrodinger_output, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(report.heisenberg_output, [-1, 0, 0], atol=1e-15)
    assert abs(report.discrepancy_angle - math.pi) < 1e-12
    assert report.halted_in_both


def _assert_is_the_two_transports(axis, delta, basis):
    # One SO(3) matrix serves both readings; the outputs must not drift from
    # _transport, rotate_state and rotate_observable by even one ulp or one
    # sign of zero, and the gap must be the angle between those two outputs.
    case = (axis, delta, basis)
    report = self_reference(axis, delta, basis)
    r, b = _axis_rotation(unit_axis(axis), delta), bloch_vector(basis)
    s, h = _transport(r, b, False), _transport(r, b, True)
    assert bits(report.schrodinger_output) == bits(s), case
    assert bits(report.heisenberg_output) == bits(h), case
    u = make_unitary(axis, delta)
    assert bits(report.schrodinger_output) == bits(rotate_state(u, basis)), case
    assert bits(report.heisenberg_output) == bits(rotate_observable(u, basis)), case
    dot = s[0] * h[0] + s[1] * h[1] + s[2] * h[2]
    cross = math.hypot(
        s[1] * h[2] - s[2] * h[1], s[2] * h[0] - s[0] * h[2], s[0] * h[1] - s[1] * h[0]
    )
    gap = struct.pack("d", math.atan2(cross, dot))
    assert struct.pack("d", report.discrepancy_angle) == gap, case


def test_self_reference_outputs_are_the_two_transports_bit_for_bit():
    cases = [(axis, delta, b) for axis in CORNERS for delta in CORNER_ANGLES for b in CORNERS]
    rng = np.random.default_rng(63)
    for draw in (random_unit_vector, near_unit_vector):
        for _ in range(300):
            axis, basis = draw(rng), draw(rng)
            cases.append((axis, float(rng.uniform(-4 * math.pi, 4 * math.pi)), basis))
    for case in cases:
        _assert_is_the_two_transports(*case)


# Signed zeros and subnormals, which the validators pass through unscaled
# when the vector is of unit norm, and keep (or scale) otherwise.
_TINY = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310))
_COMPONENT = _TINY | st.floats(-1e-300, 1e-300) | st.floats(-1.0, 1.0)
_EDGE_VECTORS = (
    st.tuples(_COMPONENT, _COMPONENT, st.floats(0.1, 1.0) | st.floats(-1.0, -0.1))
    .flatmap(st.permutations)
    .map(normalized)
)


@settings(max_examples=500, deadline=None)
@given(
    axis=st.sampled_from(CORNERS) | _EDGE_VECTORS,
    delta=st.sampled_from(CORNER_ANGLES) | _TINY | st.floats(-4 * math.pi, 4 * math.pi),
    basis=st.sampled_from(CORNERS) | _EDGE_VECTORS,
)
def test_self_reference_is_the_two_transports_on_signed_zeros_and_subnormals(axis, delta, basis):
    _assert_is_the_two_transports(axis, delta, basis)


def test_self_reference_and_trajectory_build_their_own_record_types():
    # Both records are made by tuple.__new__; each must still be exactly its
    # named tuple, with its fields, _replace, equality and a pickle round trip.
    report = self_reference(Y_AXIS, 1.0, Z_AXIS)
    sample = next(trajectory(EvolutionSpec(Y_AXIS), Z_AXIS, 0.0, 1.0, 2))
    fields = {
        SelfRefReport: (
            "schrodinger_output", "heisenberg_output", "discrepancy_angle", "halted_in_both"
        ),
        TrajectorySample: ("time_label", "vector", "picture"),
    }
    for record, cls in ((report, SelfRefReport), (sample, TrajectorySample)):
        assert type(record) is cls and record._fields == fields[cls]
        assert record == cls(*record)
        replaced = record._replace(**{cls._fields[0]: None})
        assert type(replaced) is cls and replaced == (None, *record[1:])
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is cls and again == record


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
    devs = []
    for _ in range(2000):
        axis = random_unit_vector(rng)
        basis = random_unit_vector(rng)
        delta = float(rng.uniform(-7, 7))
        theta = math.atan2(float(np.linalg.norm(np.cross(axis, basis))), float(np.dot(axis, basis)))
        got = self_reference(axis, delta, basis).discrepancy_angle
        devs.append(abs(got - discrepancy_closed_form(theta, delta)))
    assert worst(devs) < 1e-12


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, math.pi), delta=ORACLE_ANGLES)
def test_the_sweep_gap_is_within_a_few_ulps_of_the_closed_form(theta, delta):
    # The gap as self-ref-sweep computes it.  Criterion 7 allows 1e-12; the
    # worst measured is 8.9e-16 (10^5 draws), so a slip of ~20 ulps fails here.
    basis = (math.sin(theta), 0.0, math.cos(theta))
    gap = self_reference(Z_AXIS, delta, basis).discrepancy_angle
    assert abs(gap - discrepancy_closed_form(theta, delta)) <= 2e-15


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
