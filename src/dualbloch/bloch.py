"""Bloch vectors: states, observables, expectation values, and the SO(3)
image of 2x2 unitary conjugation.

A pure qubit state is a unit 3-vector ``v`` with density matrix
``rho = (I + v . sigma) / 2``; an observable direction is a unit 3-vector
``e`` measuring ``e . sigma`` with outcomes +1 or -1.  Schrodinger
evolution conjugates the state, ``v -> U v U+``; Heisenberg evolution
conjugates the observable the opposite way, ``e -> U+ e U``.  Either way
the expectation value ``e . v`` is unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .su2 import IDENTITY, NORM_SLACK, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, adjoint, unit_axis
from .su2 import _unit_vector

TOL_ROT = 1e-10  # orthogonality / determinant tolerance for 3x3 rotations


class NotAStateError(ValueError):
    """Matrix is not a pure single-qubit density matrix."""


class ZeroShotsError(ValueError):
    """Measurement sampling needs at least one shot."""


def bloch_vector(components) -> np.ndarray:
    """Validate a Bloch vector and return it normalized to machine precision.

    Same acceptance policy as axes: finite 3-vectors within NORM_SLACK of
    unit norm pass (and are renormalized), everything else is rejected.
    """
    return _unit_vector(components, "Bloch vector", ValueError, NORM_SLACK)


def normalized(components) -> np.ndarray:
    """Scale an arbitrary nonzero 3-vector onto the unit sphere."""
    return _unit_vector(components, "vector", ValueError, None)


def state_to_density(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 of the pure state with Bloch vector v."""
    v = bloch_vector(v)
    return 0.5 * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def density_to_state(m) -> np.ndarray:
    """Bloch vector of a pure density matrix, v_i = Tr(sigma_i m).

    Rejects non-Hermitian or wrong-trace input (tolerance 1e-9) and mixed
    states (Bloch norm below 1 - NORM_SLACK) rather than projecting them.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise NotAStateError("density matrix must be a finite 2x2 matrix")
    if float(np.max(np.abs(m - m.conj().T))) > 1e-9:
        raise NotAStateError("density matrix must be Hermitian")
    if abs(np.trace(m) - 1.0) > 1e-9:
        raise NotAStateError(f"density matrix trace {np.trace(m)!r} must be 1")
    v = np.array([np.trace(s @ m).real for s in PAULIS])
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) >= NORM_SLACK:
        raise NotAStateError(f"Bloch norm {norm!r} is not 1: not a pure state")
    return v / norm


def expectation(e, v) -> float:
    """Expectation value e . v of measuring along e on the state v.

    Round-off overshoots beyond +-1 smaller than 1e-12 are clamped; anything
    larger is returned as computed.
    """
    d = float(np.dot(bloch_vector(e), bloch_vector(v)))
    if 1.0 < abs(d) < 1.0 + 1e-12:
        d = math.copysign(1.0, d)
    return d


def measure_sample(e, v, rng_seed: int, shots: int) -> np.ndarray:
    """Sample +1/-1 outcomes of measuring e . sigma on the state v.

    Outcomes are i.i.d. with P(+1) = (1 + e . v) / 2, drawn from a fresh
    PCG64 generator seeded with rng_seed, so identical seeds reproduce
    identical samples bit for bit.
    """
    if shots < 1:
        raise ZeroShotsError(f"shots must be >= 1, got {shots}")
    p_plus = 0.5 * (1.0 + expectation(e, v))
    p_plus = min(1.0, max(0.0, p_plus))
    rng = np.random.default_rng(rng_seed)
    return np.where(rng.random(shots) < p_plus, 1, -1)


def adjoint_rotation(u) -> np.ndarray:
    """3x3 rotation carried by conjugation: R_ij = Tr(sigma_i u sigma_j u+) / 2.

    R is special orthogonal, and u and -u produce the same R (the
    SU(2) -> SO(3) double cover kills the sign).
    """
    (a, b), (c, d) = np.asarray(u, dtype=complex).tolist()
    # The nine traces, expanded on the entries of u.
    p = a * d.conjugate()
    q = b * c.conjugate()
    x = a * c.conjugate() - b * d.conjugate()
    y = a * b.conjugate() - c * d.conjugate()
    return np.array(
        [
            [(p + q).real, (p - q).imag, x.real],
            [-(p + q).imag, (p - q).real, -x.imag],
            [y.real, y.imag, 0.5 * (abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2)],
        ]
    )


def is_rotation(r, tol: float = TOL_ROT) -> bool:
    """True when r is 3x3 with r r^T = I and det r = +1 within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if float(np.max(np.abs(r @ r.T - np.eye(3)))) > tol:
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= tol


def rotate_state(u, v) -> np.ndarray:
    """Schrodinger transport v -> U v U+ in Bloch-vector form.

    The result is renormalized to machine precision before return.
    """
    w = adjoint_rotation(u) @ bloch_vector(v)
    return w / np.linalg.norm(w)


def rotate_observable(u, e) -> np.ndarray:
    """Heisenberg transport e -> U+ e U; the inverse rotation of rotate_state."""
    return rotate_state(adjoint(u), e)


def rodrigues(axis, angle, v) -> np.ndarray:
    """Rotate v by angle about axis with the closed-form Rodrigues formula.

    v cos(a) + (n x v) sin(a) + n (n . v)(1 - cos(a)).  Shares no code with
    the conjugation path, so the two serve as cross-checks of each other.
    """
    n = unit_axis(axis)
    v = bloch_vector(v)
    c = math.cos(angle)
    s = math.sin(angle)
    return v * c + np.cross(n, v) * s + n * float(np.dot(n, v)) * (1.0 - c)


def haar_random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) element drawn from a uniform unit quaternion.

    Four standard normals normalized to (a, b, c, d) map to
    [[a + ib, c + id], [-c + id, a - ib]], whose determinant is |q|^2 = 1.
    """
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array(
        [
            [a + 1j * b, c + 1j * d],
            [-c + 1j * d, a - 1j * b],
        ]
    )


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (three normals, normalized)."""
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm
