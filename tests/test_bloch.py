import math

import numpy as np
import pytest

from dualbloch.bloch import (
    adjoint_rotation,
    bloch_vector,
    density_to_state,
    expectation,
    haar_random_unitary,
    measure_sample,
    normalized,
    random_unit_vector,
    rodrigues,
    rotate_observable,
    rotate_state,
    state_to_density,
)
from dualbloch.su2 import (
    IDENTITY,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    adjoint,
    compose,
    make_unitary,
)

from matrices import is_rotation

Y_AXIS = (0.0, 1.0, 0.0)
Z = np.array([0.0, 0.0, 1.0])


def _y_rotated_state(alpha, v):
    # the y-axis transport of a state vector, written out by components
    return np.array(
        [
            math.cos(alpha) * v[0] + math.sin(alpha) * v[2],
            v[1],
            -math.sin(alpha) * v[0] + math.cos(alpha) * v[2],
        ]
    )


def _y_rotated_observable(alpha, e):
    # the y-axis transport of an observable vector: the inverse rotation
    return np.array(
        [
            math.cos(alpha) * e[0] - math.sin(alpha) * e[2],
            e[1],
            math.sin(alpha) * e[0] + math.cos(alpha) * e[2],
        ]
    )


# ---------------------------------------------------------------- densities


def test_state_to_density_poles_and_equator():
    np.testing.assert_allclose(state_to_density((0, 0, 1)), [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(state_to_density((0, 0, -1)), [[0, 0], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(state_to_density((1, 0, 0)), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_state_to_density_is_pure_hermitian_trace_one():
    rng = np.random.default_rng(21)
    for _ in range(200):
        rho = state_to_density(random_unit_vector(rng))
        assert float(np.max(np.abs(rho - rho.conj().T))) < 1e-15
        assert abs(np.trace(rho) - 1.0) < 1e-15
        assert abs(np.linalg.det(rho)) < 1e-12  # rank one


def test_density_round_trip():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        v = random_unit_vector(rng)
        back = density_to_state(state_to_density(v))
        assert float(np.max(np.abs(np.asarray(back) - v))) < 1e-12


def test_density_to_state_pole():
    np.testing.assert_allclose(density_to_state([[1, 0], [0, 0]]), Z, atol=1e-15)


def test_density_to_state_rejects_mixed_state():
    with pytest.raises(ValueError, match="pure-state Bloch vector norm 0.0 deviates from 1"):
        density_to_state([[0.5, 0], [0, 0.5]])


def test_density_to_state_rejects_non_hermitian_and_bad_trace():
    with pytest.raises(ValueError, match="density matrix must be Hermitian"):
        density_to_state([[1, 0.5], [0, 0]])
    with pytest.raises(ValueError, match=r"density matrix trace .* must be 1"):
        density_to_state([[1, 0], [0, 0.5]])
    with pytest.raises(ValueError, match="density matrix must be a finite 2x2 matrix"):
        density_to_state(np.eye(3))


# ------------------------------------------------------------- expectations


def test_expectation_aligned_anti_aligned_orthogonal():
    rng = np.random.default_rng(23)
    for _ in range(100):
        v = random_unit_vector(rng)
        assert expectation(v, v) == pytest.approx(1.0, abs=1e-15)
        assert expectation(-np.asarray(v), v) == pytest.approx(-1.0, abs=1e-15)
    assert expectation((0, 0, 1), (1, 0, 0)) == 0.0


def test_expectation_never_exceeds_unit_interval():
    rng = np.random.default_rng(24)
    for _ in range(500):
        v = random_unit_vector(rng)
        assert abs(expectation(v, v)) <= 1.0
        assert abs(expectation(random_unit_vector(rng), v)) <= 1.0


# ---------------------------------------------------------------- sampling


def test_measure_sample_deterministic_extremes():
    rng = np.random.default_rng(25)
    v = random_unit_vector(rng)
    assert np.all(measure_sample(v, v, rng_seed=123, shots=100) == 1)
    assert np.all(measure_sample(-np.asarray(v), v, rng_seed=123, shots=100) == -1)


def test_measure_sample_orthogonal_mean_near_zero():
    # binomial 3 sigma at 1e6 shots is ~0.0015; 0.005 leaves a 3x margin
    samples = measure_sample((1, 0, 0), (0, 0, 1), rng_seed=2024, shots=1_000_000)
    assert set(np.unique(samples)) <= {-1, 1}
    assert abs(float(np.mean(samples))) < 0.005


def test_measure_sample_reproducible_and_seed_sensitive():
    a = measure_sample((1, 0, 0), (0, 0, 1), rng_seed=9, shots=1000)
    b = measure_sample((1, 0, 0), (0, 0, 1), rng_seed=9, shots=1000)
    c = measure_sample((1, 0, 0), (0, 0, 1), rng_seed=10, shots=1000)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("shots", [2.5, 0.5])
def test_measure_sample_takes_only_an_integer_shot_count(shots):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        measure_sample((0, 0, 1), (0, 0, 1), rng_seed=1, shots=shots)
    assert measure_sample((0, 0, 1), (0, 0, 1), rng_seed=1, shots=np.int64(3)).tolist() == [1] * 3


def test_measure_sample_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots must be >= 1, got 0"):
        measure_sample((0, 0, 1), (0, 0, 1), rng_seed=1, shots=0)


# ------------------------------------------------------- the adjoint action


def test_adjoint_rotation_of_identity_is_identity():
    np.testing.assert_array_equal(adjoint_rotation(IDENTITY), np.eye(3))
    np.testing.assert_array_equal(adjoint_rotation(-IDENTITY), np.eye(3))


def _adjoint_rotation_by_traces(u):
    # the definition R_ij = Tr(sigma_i u sigma_j u+) / 2, one triple product per column
    u = np.asarray(u, dtype=complex)
    return np.array(
        [[0.5 * np.trace(s_i @ u @ s_j @ u.conj().T).real for s_j in PAULIS] for s_i in PAULIS]
    )


def test_adjoint_rotation_matches_the_trace_definition():
    rng = np.random.default_rng(25)
    specials = [SIGMA_X, SIGMA_Y, -IDENTITY]
    haar = [haar_random_unitary(rng) for _ in range(300)]
    phased = [np.exp(1j * rng.uniform(-7, 7)) * u for u in haar]
    for u in specials + haar + phased:
        diff = adjoint_rotation(u) - _adjoint_rotation_by_traces(u)
        assert float(np.max(np.abs(diff))) <= 1e-15


def test_adjoint_rotation_y_matches_component_formula():
    rng = np.random.default_rng(26)
    for alpha in rng.uniform(-7, 7, size=50):
        c, s = math.cos(alpha), math.sin(alpha)
        expected = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
        got = adjoint_rotation(make_unitary(Y_AXIS, alpha))
        assert float(np.max(np.abs(got - expected))) < 1e-12


def test_adjoint_rotation_of_sigma_x():
    np.testing.assert_allclose(
        adjoint_rotation(SIGMA_X), np.diag([1.0, -1.0, -1.0]), atol=1e-15
    )


def test_adjoint_rotation_lands_in_so3():
    rng = np.random.default_rng(27)
    for _ in range(300):
        assert is_rotation(adjoint_rotation(haar_random_unitary(rng)), 1e-10)


def test_adjoint_rotation_is_a_homomorphism():
    rng = np.random.default_rng(28)
    for _ in range(300):
        a = haar_random_unitary(rng)
        b = haar_random_unitary(rng)
        lhs = adjoint_rotation(compose(a, b))
        rhs = adjoint_rotation(a) @ adjoint_rotation(b)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10


def test_adjoint_rotation_kills_the_sign():
    rng = np.random.default_rng(29)
    for _ in range(300):
        u = haar_random_unitary(rng)
        diff = adjoint_rotation(u) - adjoint_rotation(-u)
        assert float(np.max(np.abs(diff))) < 1e-12


_NOT_UNITARY = {
    "2I": 2 * np.eye(2),
    "zeros": np.zeros((2, 2)),
    "nan": [[math.nan, 0], [0, 1]],
    "3x3": np.eye(3),
    "shear": [[1, 1], [0, 1]],
}


@pytest.mark.parametrize("u", list(_NOT_UNITARY.values()), ids=list(_NOT_UNITARY))
@pytest.mark.parametrize(
    "transport",
    [lambda u: rotate_state(u, Z), lambda u: rotate_observable(u, Z), adjoint_rotation],
    ids=["rotate_state", "rotate_observable", "adjoint_rotation"],
)
def test_matrices_that_are_not_2x2_unitaries_are_rejected(transport, u):
    with pytest.raises(ValueError, match="matrix"):
        transport(u)


# ------------------------------------------------------------------ rotation


def test_rotate_state_quarter_turn_about_y():
    u = make_unitary(Y_AXIS, math.pi / 2)
    np.testing.assert_allclose(rotate_state(u, Z), [1, 0, 0], atol=1e-15)


def test_rotate_state_identity_fixes_everything():
    rng = np.random.default_rng(30)
    for _ in range(20):
        v = random_unit_vector(rng)
        np.testing.assert_allclose(rotate_state(IDENTITY, v), v, atol=1e-15)


def test_rotate_state_matches_printed_y_formula():
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha = float(rng.uniform(-7, 7))
        v = random_unit_vector(rng)
        got = rotate_state(make_unitary(Y_AXIS, alpha), v)
        assert float(np.max(np.abs(got - _y_rotated_state(alpha, v)))) < 1e-12


def test_rotate_observable_quarter_turn_about_y():
    u = make_unitary(Y_AXIS, math.pi / 2)
    np.testing.assert_allclose(rotate_observable(u, Z), [-1, 0, 0], atol=1e-15)


def test_rotate_observable_identity_fixes_everything():
    rng = np.random.default_rng(42)
    for _ in range(20):
        e = random_unit_vector(rng)
        np.testing.assert_allclose(rotate_observable(IDENTITY, e), e, atol=1e-15)


def test_rotate_observable_matches_printed_y_formula():
    rng = np.random.default_rng(32)
    for _ in range(100):
        alpha = float(rng.uniform(-7, 7))
        e = random_unit_vector(rng)
        got = rotate_observable(make_unitary(Y_AXIS, alpha), e)
        assert float(np.max(np.abs(got - _y_rotated_observable(alpha, e)))) < 1e-12


def test_rotate_observable_is_rotate_state_of_adjoint():
    rng = np.random.default_rng(33)
    for _ in range(100):
        u = haar_random_unitary(rng)
        e = random_unit_vector(rng)
        np.testing.assert_array_equal(rotate_observable(u, e), rotate_state(adjoint(u), e))


def test_rotation_norm_preserved_before_renormalization():
    rng = np.random.default_rng(34)
    for _ in range(300):
        w = adjoint_rotation(haar_random_unitary(rng)) @ random_unit_vector(rng)
        assert abs(float(np.linalg.norm(w)) - 1.0) < 1e-12


def test_so3_period_is_2pi_while_su2_sign_flips():
    rng = np.random.default_rng(35)
    for _ in range(50):
        axis = random_unit_vector(rng)
        delta = float(rng.uniform(-6, 6))
        v = random_unit_vector(rng)
        u1 = make_unitary(axis, delta)
        u2 = make_unitary(axis, delta + 2 * math.pi)
        assert float(np.max(np.abs(u2 + u1))) < 1e-12  # opposite signs in SU(2)
        assert float(np.max(np.abs(np.asarray(rotate_state(u2, v)) - rotate_state(u1, v)))) < 1e-12


# ----------------------------------------------------------------- rodrigues


def test_rodrigues_y_axis_closed_form():
    for alpha in (0.3, -1.2, math.pi / 2, 5.0):
        got = rodrigues(Y_AXIS, alpha, Z)
        np.testing.assert_allclose(got, [math.sin(alpha), 0.0, math.cos(alpha)], atol=1e-15)


def test_rodrigues_zero_angle_and_fixed_axis():
    rng = np.random.default_rng(36)
    v = random_unit_vector(rng)
    np.testing.assert_array_equal(rodrigues(v, 0.0, v), v)
    for angle in rng.uniform(-7, 7, size=10):
        np.testing.assert_allclose(rodrigues(v, float(angle), v), v, atol=1e-15)


def test_rodrigues_agrees_with_conjugation():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        axis = random_unit_vector(rng)
        angle = float(rng.uniform(-10, 10))
        v = random_unit_vector(rng)
        via_conjugation = rotate_state(make_unitary(axis, angle), v)
        via_closed_form = rodrigues(axis, angle, v)
        assert float(np.max(np.abs(np.asarray(via_conjugation) - via_closed_form))) < 1e-12


def test_rodrigues_rejects_bad_axis():
    with pytest.raises(ValueError, match="axis norm 0.0 deviates from 1"):
        rodrigues((0.0, 0.0, 0.0), 1.0, (0, 0, 1))


@pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
def test_rodrigues_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="angle must be finite"):
        rodrigues(Y_AXIS, angle, (0, 0, 1))


# --------------------------------------------------------- dual-picture core


def test_expectation_agrees_across_pictures_haar():
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(1000):
        u = haar_random_unitary(rng)
        e = random_unit_vector(rng)
        v = random_unit_vector(rng)
        schrodinger = expectation(e, rotate_state(u, v))
        heisenberg = expectation(rotate_observable(u, e), v)
        worst = max(worst, abs(schrodinger - heisenberg))
    assert worst < 1e-12


def test_haar_random_unitary_is_special_unitary():
    rng = np.random.default_rng(39)
    for _ in range(200):
        u = haar_random_unitary(rng)
        assert float(np.max(np.abs(u @ u.conj().T - IDENTITY))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_random_unit_vector_is_unit():
    rng = np.random.default_rng(40)
    for _ in range(100):
        assert abs(float(np.linalg.norm(random_unit_vector(rng))) - 1.0) < 1e-12


# ------------------------------------------------------------- constructors


def test_bloch_vector_renormalizes_small_drift():
    v = bloch_vector((0.0, 0.0, 1.0 - 3e-7))
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-15


@pytest.mark.parametrize("bad", [(0, 0, 0), (0, 0, 2), (0, 0, 0.9), (math.inf, 0, 0), (1, 0)])
def test_bloch_vector_rejects_garbage(bad):
    with pytest.raises(ValueError):
        bloch_vector(bad)


def test_normalized_scales_any_nonzero_vector():
    np.testing.assert_allclose(normalized((0, 0, 5)), [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(normalized((3, 4, 0)), [0.6, 0.8, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        normalized((0, 0, 0))
    with pytest.raises(ValueError):
        normalized((math.nan, 1, 0))
    # the norm of these components overflows a plain sum of squares
    half = math.sqrt(0.5)
    np.testing.assert_allclose(normalized((1e308, 1e308, 0)), [half, half, 0.0], atol=1e-15)
    # these overflow even math.hypot, and these have a subnormal norm
    np.testing.assert_allclose(normalized((1.7e308, 1.7e308, 0)), [half, half, 0.0], atol=1e-15)
    np.testing.assert_allclose(normalized((1e-320, 1e-320, 0)), [half, half, 0.0], atol=1e-15)
    np.testing.assert_allclose(normalized((5e-324, 0, 5e-324)), [half, 0.0, half], atol=1e-15)


def test_is_rotation_rejects_reflections_and_scalings():
    assert is_rotation(np.eye(3))
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))  # det -1
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.eye(2))
