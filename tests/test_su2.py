import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualbloch.bloch import bloch_vector, normalized
from dualbloch.su2 import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    compose,
    make_unitary,
    unit_axis,
)

from matrices import equal_entrywise, equal_up_to_phase, is_unitary

Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# hypothesis strategies: angles over a few periods, axes anywhere on the sphere
angles = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi)
axes = (
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    .filter(lambda c: math.hypot(*c) > 0.1)
    .map(lambda c: np.asarray(c) / math.hypot(*c))
)


def test_pauli_entries_exact():
    assert np.array_equal(SIGMA_X, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(SIGMA_Z, np.array([[1, 0], [0, -1]], dtype=complex))


def test_module_constants_are_immutable():
    with pytest.raises(ValueError):
        SIGMA_Z[0, 0] = 2.0


def test_make_unitary_y_matches_printed_matrix():
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(-2 * math.pi, 2 * math.pi, size=50):
        c = math.cos(alpha / 2)
        s = math.sin(alpha / 2)
        expected = np.array([[c, -s], [s, c]], dtype=complex)
        np.testing.assert_allclose(make_unitary(Y_AXIS, alpha), expected, atol=1e-15)


def test_make_unitary_zero_angle_is_identity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        np.testing.assert_array_equal(make_unitary(_random_axis(rng), 0.0), IDENTITY)


def test_make_unitary_z_pi_is_minus_i_sigma_z():
    expected = np.array([[-1j, 0], [0, 1j]])
    np.testing.assert_allclose(make_unitary(Z_AXIS, math.pi), expected, atol=1e-15)


def test_unit_axis_renormalizes_small_drift():
    n = unit_axis((0.0, 1.0 + 5e-7, 0.0))
    assert abs(np.linalg.norm(n) - 1.0) < 1e-15
    np.testing.assert_allclose(n, [0.0, 1.0, 0.0], atol=1e-15)


# Inputs that are not exactly three real numbers.
NOT_THREE_REALS = [
    "abc",
    "100",  # not unpacked to (1, 0, 0)
    b"abc",
    ["1", "0", "0"],
    [1j, 0, 0],
    [1, "a", 0],
    (c for c in (1.0, 0.0, 0.0)),
    {1.0, 0.0, -1.0},
    [[1.0], [0.0], [0.0]],
    np.array([[1.0], [0.0], [0.0]]),
    np.array(1.0),
    [np.array([1.0]), 0, 0],
]


@pytest.mark.parametrize("bad", NOT_THREE_REALS)
@pytest.mark.parametrize(
    "validate, noun",
    [(unit_axis, "axis"), (bloch_vector, "Bloch vector"), (normalized, "vector")],
    ids=["unit_axis", "bloch_vector", "normalized"],
)
def test_anything_but_three_real_numbers_is_not_a_3_vector(validate, noun, bad):
    # Rejected before any float() call: float() of a 1-element array warns.
    with pytest.raises(ValueError, match=f"^{noun} must be a 3-vector"):
        validate(bad)


def test_adjoint_involution_is_bitwise():
    rng = np.random.default_rng(13)
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.array_equal(adjoint(adjoint(u)), u)


def test_adjoint_of_identity():
    np.testing.assert_array_equal(adjoint(IDENTITY), IDENTITY)


def test_adjoint_of_y_rotation_reverses_angle():
    rng = np.random.default_rng(14)
    for alpha in rng.uniform(-7, 7, size=50):
        got = adjoint(make_unitary(Y_AXIS, alpha))
        expected = make_unitary(Y_AXIS, -alpha)
        assert float(np.max(np.abs(got - expected))) <= 1e-15


def test_adjoint_of_hermitian_pauli_is_itself():
    np.testing.assert_array_equal(adjoint(SIGMA_Y), SIGMA_Y)


def test_compose_identity_is_neutral():
    u = make_unitary((0.6, 0.0, 0.8), 1.3)
    np.testing.assert_array_equal(compose(IDENTITY, u), u)
    np.testing.assert_array_equal(compose(u, IDENTITY), u)


def test_compose_pauli_involution():
    np.testing.assert_allclose(compose(SIGMA_X, SIGMA_X), IDENTITY, atol=1e-15)


def test_compose_same_axis_angles_add():
    rng = np.random.default_rng(15)
    for _ in range(50):
        alpha, beta = rng.uniform(-6, 6, size=2)
        got = compose(make_unitary(Y_AXIS, alpha), make_unitary(Y_AXIS, beta))
        assert equal_entrywise(got, make_unitary(Y_AXIS, alpha + beta), 1e-12)


def test_compose_associative_on_random_triples():
    rng = np.random.default_rng(16)
    for _ in range(200):
        a, b, c = (make_unitary(_random_axis(rng), rng.uniform(-7, 7)) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert equal_entrywise(lhs, rhs, 1e-12)


def test_adjoint_reverses_composition():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = make_unitary(_random_axis(rng), rng.uniform(-7, 7))
        b = make_unitary(_random_axis(rng), rng.uniform(-7, 7))
        assert equal_entrywise(adjoint(compose(a, b)), compose(adjoint(b), adjoint(a)), 1e-12)


def test_make_unitary_y_at_zero_and_pi():
    np.testing.assert_array_equal(make_unitary(Y_AXIS, 0.0), IDENTITY)
    np.testing.assert_allclose(
        make_unitary(Y_AXIS, math.pi), np.array([[0, -1], [1, 0]], dtype=complex), atol=1e-15
    )


@given(axes, angles)
def test_make_unitary_is_unitary(axis, angle):
    assert is_unitary(make_unitary(axis, angle), 1e-12)


@given(axes, angles)
def test_su2_periodicity(axis, angle):
    u = make_unitary(axis, angle)
    assert equal_entrywise(make_unitary(axis, angle + 4 * math.pi), u, 1e-12)
    assert equal_entrywise(make_unitary(axis, angle + 2 * math.pi), -u, 1e-12)


def test_is_unitary_rejects_non_unitaries():
    assert not is_unitary(2.0 * IDENTITY)
    assert not is_unitary(np.eye(3))
    assert not is_unitary(np.array([[math.nan, 0], [0, 1]], dtype=complex))
    assert is_unitary(SIGMA_X) and is_unitary(IDENTITY)


def test_equality_helpers_distinguish_phase():
    u = make_unitary((0.0, 0.6, 0.8), 0.9)
    rotated_phase = np.exp(0.37j) * u
    assert equal_up_to_phase(rotated_phase, u)
    assert not equal_entrywise(rotated_phase, u, 1e-12)
    assert not equal_up_to_phase(u, make_unitary(Y_AXIS, 2.0))
    # minus sign is a phase too: the 2*pi period only flips the sign
    assert equal_up_to_phase(make_unitary(Y_AXIS, 1.0 + 2 * math.pi), make_unitary(Y_AXIS, 1.0))
