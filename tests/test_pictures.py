import math

import numpy as np
import pytest

from dualbloch import pictures
from dualbloch.bloch import expectation, random_unit_vector, rotate_observable, rotate_state
from dualbloch.halting import HaltingMachine
from dualbloch.pictures import (
    EvolutionSpec,
    Picture,
    evolve,
    reversed_label_equivalence,
    trajectory,
)
from dualbloch.su2 import adjoint, make_unitary

from matrices import near_unit_vector

Y_AXIS = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)

SCHRO = EvolutionSpec(Y_AXIS, 1.0, Picture.SCHRODINGER)
HEIS = EvolutionSpec(Y_AXIS, 1.0, Picture.HEISENBERG)
HEIS_REV = EvolutionSpec(Y_AXIS, 1.0, Picture.HEISENBERG_REVERSED)


def _orthogonal_to(axis, rng):
    while True:
        probe = random_unit_vector(rng)
        w = np.cross(axis, probe)
        norm = float(np.linalg.norm(w))
        if norm > 1e-6:
            return w / norm


def test_evolve_schrodinger_rotates_forward():
    for chi in (0.4, 1.1, -0.7, math.pi / 2):
        got = evolve(SCHRO, Z, chi)
        np.testing.assert_allclose(got, [math.sin(chi), 0.0, math.cos(chi)], atol=1e-14)


def test_evolve_heisenberg_rotates_backward():
    for chi in (0.4, 1.1, -0.7, math.pi / 2):
        got = evolve(HEIS, Z, chi)
        np.testing.assert_allclose(got, [-math.sin(chi), 0.0, math.cos(chi)], atol=1e-14)


def test_evolve_at_time_zero_is_identity():
    rng = np.random.default_rng(50)
    for spec in (SCHRO, HEIS, HEIS_REV):
        v = random_unit_vector(rng)
        np.testing.assert_allclose(evolve(spec, v, 0.0), v, atol=1e-15)


def test_reversed_reading_shares_the_heisenberg_flow():
    rng = np.random.default_rng(51)
    for _ in range(20):
        v = random_unit_vector(rng)
        t = float(rng.uniform(-5, 5))
        np.testing.assert_array_equal(evolve(HEIS_REV, v, t), evolve(HEIS, v, t))


def test_evolve_is_the_public_transport_bit_for_bit():
    rng = np.random.default_rng(52)
    for draw in (random_unit_vector, near_unit_vector):
        for _ in range(300):
            axis, rate = draw(rng), float(rng.uniform(-3, 3))
            t = float(rng.uniform(-10, 10))
            v = draw(rng)
            schro, heis, heis_rev = (EvolutionSpec(axis, rate, picture) for picture in Picture)
            u = make_unitary(axis, rate * t)
            np.testing.assert_array_equal(evolve(schro, v, t), rotate_state(u, v))
            np.testing.assert_array_equal(evolve(heis, v, t), rotate_observable(u, v))
            np.testing.assert_array_equal(evolve(heis_rev, v, t), rotate_observable(u, v))


def test_evolve_respects_rate():
    spec = EvolutionSpec(Y_AXIS, 2.0, Picture.SCHRODINGER)
    np.testing.assert_allclose(
        evolve(spec, Z, 0.25 * math.pi), [1.0, 0.0, 0.0], atol=1e-15
    )


def test_trajectory_schrodinger_quarter_turn_grid():
    samples = list(trajectory(SCHRO, Z, 0.0, math.pi / 2, 3))
    assert [s.time_label for s in samples] == [0.0, math.pi / 4, math.pi / 2]
    expected = [
        (0.0, 0.0, 1.0),
        (math.sin(math.pi / 4), 0.0, math.cos(math.pi / 4)),
        (1.0, 0.0, 0.0),
    ]
    for sample, want in zip(samples, expected):
        np.testing.assert_allclose(sample.vector, want, atol=1e-15)
        assert sample.picture is Picture.SCHRODINGER


def test_trajectory_reversed_labels_negate_time():
    rev = list(trajectory(HEIS_REV, Z, 0.0, math.pi / 2, 3))
    heis = list(trajectory(HEIS, Z, 0.0, math.pi / 2, 3))
    assert [s.time_label for s in rev] == [0.0, -math.pi / 4, -math.pi / 2]
    for r, h in zip(rev, heis):
        np.testing.assert_array_equal(r.vector, h.vector)
    # the t = 0 label is plain zero, not -0.0
    assert math.copysign(1.0, rev[0].time_label) == 1.0


def test_trajectory_two_steps_is_just_the_endpoints():
    samples = trajectory(SCHRO, Z, 0.0, 2.5, 2)
    assert [s.time_label for s in samples] == [0.0, 2.5]


def test_trajectory_rejects_bad_grids():
    with pytest.raises(ValueError, match="steps must be >= 2, got 1"):
        trajectory(SCHRO, Z, 0.0, 1.0, 1)
    with pytest.raises(ValueError, match=r"need t_start < t_end .*got \[1.0, 1.0\]"):
        trajectory(SCHRO, Z, 1.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"need t_start < t_end .*got \[2.0, 1.0\]"):
        trajectory(SCHRO, Z, 2.0, 1.0, 5)
    # Each bound is finite, but t_end - t_start overflows to inf.
    with pytest.raises(ValueError, match="finite width"):
        trajectory(SCHRO, Z, -1e308, 1e308, 5)
    # A step count must be an integer, not truncated to one.
    with pytest.raises(TypeError):
        trajectory(SCHRO, Z, 0.0, 1.0, 2.9)


def test_trajectory_checks_everything_before_it_returns():
    # The samples are computed lazily, so every error must come from the
    # call itself: rate * t overflowing at either end, or a bad input vector.
    fast = EvolutionSpec(Y_AXIS, 1e300, Picture.SCHRODINGER)
    with pytest.raises(ValueError, match="angle must be finite"):
        trajectory(fast, Z, 0.0, 1e300, 5)
    with pytest.raises(ValueError, match="angle must be finite"):
        trajectory(fast, Z, -1e300, 0.0, 5)
    with pytest.raises(ValueError, match="Bloch vector"):
        trajectory(SCHRO, (0.0, 0.0, 2.0), 0.0, 1.0, 5)
    # A grid of any size is drawn point by point: nothing is allocated up front.
    first = next(trajectory(SCHRO, Z, 0.0, 1.0, 10**17))
    assert first.time_label == 0.0


def test_evolution_spec_validates_inputs():
    with pytest.raises(ValueError, match="axis norm 0.0 deviates from 1"):
        EvolutionSpec((0.0, 0.0, 0.0), 1.0, Picture.SCHRODINGER)
    with pytest.raises(ValueError, match="rate must be finite"):
        EvolutionSpec(Y_AXIS, math.nan, Picture.SCHRODINGER)
    with pytest.raises(ValueError, match="picture must be a Picture"):
        EvolutionSpec(Y_AXIS, 1.0, "schrodinger")


def test_evolution_spec_axis_is_read_only():
    spec = EvolutionSpec(Y_AXIS, 1.0, Picture.SCHRODINGER)
    with pytest.raises(TypeError):
        spec.axis[:] = (1.0, 0.0, 0.0)
    np.testing.assert_array_equal(evolve(spec, Z, 1.0), evolve(SCHRO, Z, 1.0))


def test_a_replaced_axis_is_the_one_evolve_rotates_about():
    spec = SCHRO._replace(axis=(1.0, 0.0, 0.0))
    assert evolve(spec, Z, 1.0) == evolve(EvolutionSpec((1.0, 0.0, 0.0)), Z, 1.0)
    assert evolve(spec, Z, 1.0) != evolve(SCHRO, Z, 1.0)
    assert spec._fields == ("axis", "rate", "picture")
    assert spec == EvolutionSpec((1.0, 0.0, 0.0)) and "_unit" not in repr(spec)
    # A replacement is checked like a construction, with the same error.
    with pytest.raises(ValueError, match="^axis norm 2.0 deviates from 1 by 1$"):
        SCHRO._replace(axis=(2, 0, 0))
    machine = HaltingMachine(axis=Y_AXIS, angle=1.0, system=Z)
    with pytest.raises(ValueError, match="^angle must be finite$"):
        machine._replace(angle=math.inf)


def test_operator_identity_adjoint_negates_time():
    rng = np.random.default_rng(52)
    for _ in range(200):
        axis = random_unit_vector(rng)
        t = float(rng.uniform(-9, 9))
        diff = adjoint(make_unitary(axis, t)) - make_unitary(axis, -t)
        assert float(np.max(np.abs(diff))) < 1e-15


def test_picture_symmetry_heisenberg_is_schrodinger_at_minus_t():
    rng = np.random.default_rng(53)
    for _ in range(100):
        axis = random_unit_vector(rng)
        rate = float(rng.uniform(0.2, 3.0))
        v = random_unit_vector(rng)
        t = float(rng.uniform(-5, 5))
        heis = evolve(EvolutionSpec(axis, rate, Picture.HEISENBERG), v, t)
        schro = evolve(EvolutionSpec(axis, rate, Picture.SCHRODINGER), v, -t)
        assert float(np.max(np.abs(np.asarray(heis) - schro))) < 1e-12


def test_expectation_invariant_along_trajectories():
    rng = np.random.default_rng(54)
    for _ in range(100):
        axis = random_unit_vector(rng)
        rate = float(rng.uniform(0.2, 3.0))
        e = random_unit_vector(rng)
        v = random_unit_vector(rng)
        t = float(rng.uniform(-5, 5))
        moved_state = evolve(EvolutionSpec(axis, rate, Picture.SCHRODINGER), v, t)
        moved_basis = evolve(EvolutionSpec(axis, rate, Picture.HEISENBERG), e, t)
        assert abs(expectation(e, moved_state) - expectation(moved_basis, v)) < 1e-12


def test_trajectory_continuity_for_equatorial_input():
    # successive samples of an input orthogonal to the axis are separated by
    # exactly rate * dt of arc (for on-axis inputs the separation is zero)
    rng = np.random.default_rng(55)
    for picture in (Picture.SCHRODINGER, Picture.HEISENBERG):
        axis = random_unit_vector(rng)
        rate = float(rng.uniform(0.3, 2.0))
        spec = EvolutionSpec(axis, rate, picture)
        v = _orthogonal_to(axis, rng)
        samples = list(trajectory(spec, v, 0.0, 1.0, 21))
        dt = 1.0 / 20.0
        for a, b in zip(samples, samples[1:]):
            dot = float(np.dot(a.vector, b.vector))
            step = math.acos(min(1.0, max(-1.0, dot)))
            assert abs(step - rate * dt) < 1e-10


def test_reversed_label_equivalence_named_grids():
    assert reversed_label_equivalence(Y_AXIS, 1.0, Z, [0.0, 0.3, 1.1])
    assert reversed_label_equivalence(Y_AXIS, 1.0, Z, [0.0])


def test_reversed_label_equivalence_any_generator():
    rng = np.random.default_rng(56)
    v = random_unit_vector(rng)
    grid = np.linspace(-3.0, 3.0, 50)
    assert reversed_label_equivalence((1.0, 0.0, 0.0), 2.0, v, grid)


def test_reversed_label_equivalence_random_configurations():
    rng = np.random.default_rng(57)
    for _ in range(100):
        axis = random_unit_vector(rng)
        rate = float(rng.uniform(-3.0, 3.0))
        v = random_unit_vector(rng)
        grid = rng.uniform(-6.0, 6.0, size=rng.integers(1, 12))
        assert reversed_label_equivalence(axis, rate, v, grid)


def test_reversed_label_equivalence_detects_a_wrong_picture(monkeypatch):
    # Evolve the Heisenberg spec as Schrodinger: the relabeled trace then
    # runs forward in time, so away from t = 0 it must not match.
    real_evolve = pictures.evolve

    def schrodinger_evolve(spec, vector, t):
        return real_evolve(spec._replace(picture=Picture.SCHRODINGER), vector, t)

    monkeypatch.setattr(pictures, "evolve", schrodinger_evolve)
    assert reversed_label_equivalence(Y_AXIS, 1.0, Z, [0.0])
    assert not reversed_label_equivalence(Y_AXIS, 1.0, Z, [0.0, 0.3])


def test_reversed_label_equivalence_rejects_empty_grid():
    with pytest.raises(ValueError, match="time grid must be non-empty"):
        reversed_label_equivalence(Y_AXIS, 1.0, Z, [])
