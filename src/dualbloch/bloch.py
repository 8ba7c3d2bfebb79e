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

from .su2 import IDENTITY, NORM_SLACK, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, _unit3, unit_axis


class NotAStateError(ValueError):
    """Matrix is not a pure single-qubit density matrix."""


class ZeroShotsError(ValueError):
    """Measurement sampling needs at least one shot."""


def bloch_vector(components) -> np.ndarray:
    """Validate a Bloch vector and return it normalized to machine precision.

    Same acceptance policy as axes: finite 3-vectors within NORM_SLACK of
    unit norm pass (and are renormalized), everything else is rejected.
    """
    return np.array(_bloch3(components))


def _bloch3(components) -> tuple[float, float, float]:
    """The components of bloch_vector(components), as floats."""
    return _unit3(components, "Bloch vector", ValueError, NORM_SLACK)


def normalized(components) -> np.ndarray:
    """Scale an arbitrary nonzero 3-vector onto the unit sphere."""
    return np.array(_unit3(components, "vector", ValueError, None))


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
    ex, ey, ez = _bloch3(e)
    vx, vy, vz = _bloch3(v)
    d = ex * vx + ey * vy + ez * vz
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


def _rotation(a: complex, b: complex, c: complex, d: complex) -> tuple[float, ...]:
    """The nine entries, row by row, of the SO(3) matrix of [[a, b], [c, d]].

    These are the traces Tr(sigma_i u sigma_j u+) / 2, expanded on the
    entries of u.
    """
    p = a * d.conjugate()
    q = b * c.conjugate()
    x = a * c.conjugate() - b * d.conjugate()
    y = a * b.conjugate() - c * d.conjugate()
    return (
        (p + q).real, (p - q).imag, x.real,
        -(p + q).imag, (p - q).real, -x.imag,
        y.real, y.imag, 0.5 * (abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2),
    )  # fmt: skip


def _rotation_of(u) -> tuple[float, ...]:
    """_rotation on the entries of the 2x2 matrix u."""
    (a, b), (c, d) = np.asarray(u, dtype=complex).tolist()
    return _rotation(a, b, c, d)


def _transport(r: tuple[float, ...], v: tuple[float, float, float], inverse: bool):
    """R v, or R^T v when inverse, renormalized to unit length.

    r holds the nine entries of R row by row and v three floats.  For u in
    SU(2) (|b| = |c|), R^T is the _rotation of u+ bit for bit.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    if inverse:
        r01, r02, r10, r12, r20, r21 = r10, r20, r01, r21, r02, r12
    x, y, z = v
    wx = r00 * x + r01 * y + r02 * z
    wy = r10 * x + r11 * y + r12 * z
    wz = r20 * x + r21 * y + r22 * z
    norm = math.hypot(wx, wy, wz)
    return wx / norm, wy / norm, wz / norm


def adjoint_rotation(u) -> np.ndarray:
    """3x3 rotation carried by conjugation: R_ij = Tr(sigma_i u sigma_j u+) / 2.

    R is special orthogonal, and u and -u produce the same R (the
    SU(2) -> SO(3) double cover kills the sign).  For u in SU(2) the
    rotation of adjoint(u) is R^T bit for bit.
    """
    return np.array(_rotation_of(u)).reshape(3, 3)


def rotate_state(u, v) -> np.ndarray:
    """Schrodinger transport v -> U v U+ in Bloch-vector form: R v, with R
    the adjoint rotation of u.

    The result is renormalized to machine precision before return.
    """
    r = _rotation_of(u)
    return np.array(_transport(r, _bloch3(v), inverse=False))


def rotate_observable(u, e) -> np.ndarray:
    """Heisenberg transport e -> U+ e U: R^T e, the inverse rotation of rotate_state.

    For u in SU(2) this is rotate_state(adjoint(u), e) bit for bit, without
    building adjoint(u).
    """
    r = _rotation_of(u)
    return np.array(_transport(r, _bloch3(e), inverse=True))


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
    a, b, c, d = rng.normal(size=4).tolist()
    norm = math.hypot(a, b, c, d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array([[complex(a, b), complex(c, d)], [complex(-c, d), complex(a, -b)]])


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (three normals, normalized)."""
    while True:
        x, y, z = rng.normal(size=3).tolist()
        norm = math.hypot(x, y, z)
        if norm > 1e-12:
            return np.array((x / norm, y / norm, z / norm))
