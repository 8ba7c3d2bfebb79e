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

import contextlib
import math
import numbers
import operator

import numpy as np

from ._kernel import NORM_SLACK, _finite, _shown, _transport, _unit3, expectation, unit_axis
from ._kernel import bloch_vector, normalized  # the kernel's own objects, exported here
from .su2 import IDENTITY, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z


def state_to_density(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 of the pure state with Bloch vector v."""
    v = bloch_vector(v)
    return 0.5 * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def _complex_array(m):
    """m as a complex array, or None if numpy cannot read it or an entry is not
    a number: converting to complex straight away would read "1" and b"1"."""
    with contextlib.suppress(TypeError, ValueError):  # ragged rows, say
        a = np.asarray(m)
        if a.dtype.kind in "biufc" or all(isinstance(x, numbers.Number) for x in a.flat):
            return a.astype(complex, copy=False)
    return None


def density_to_state(m) -> tuple[float, float, float]:
    """Bloch vector of a pure density matrix, v_i = Tr(sigma_i m).

    Rejects non-Hermitian or wrong-trace input (tolerance 1e-9) and mixed
    states (Bloch norm below 1 - NORM_SLACK) rather than projecting them.
    """
    m = _complex_array(m)
    if m is None or m.shape != (2, 2) or not np.all(np.isfinite(m)):
        raise ValueError("density matrix must be a finite 2x2 matrix")
    if float(np.max(np.abs(m - m.conj().T))) > 1e-9:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(m) - 1.0) > 1e-9:
        raise ValueError(f"density matrix trace {np.trace(m)!r} must be 1")
    traces = [np.trace(s @ m).real for s in PAULIS]
    return _unit3(traces, "pure-state Bloch vector", NORM_SLACK)


def measure_sample(e, v, rng_seed: int, shots: int) -> np.ndarray:
    """Sample +1/-1 outcomes of measuring e . sigma on the state v.

    Outcomes are i.i.d. with P(+1) = (1 + e . v) / 2, drawn from a fresh
    PCG64 generator seeded with rng_seed, so identical seeds reproduce
    identical samples bit for bit.
    """
    rng_seed, shots = operator.index(rng_seed), operator.index(shots)
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be >= 0, got {rng_seed}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > np.iinfo(np.intp).max // 8:  # numpy's largest float64 array
        raise ValueError(f"shots must be <= {np.iinfo(np.intp).max // 8}, got {shots}")
    p_plus = 0.5 * (1.0 + expectation(e, v))
    rng = np.random.default_rng(rng_seed)
    return np.where(rng.random(shots) < p_plus, 1, -1)


def _rotation_of(u) -> tuple[float, ...]:
    """The nine entries, row by row, of the SO(3) matrix of u, which must be
    2x2 and unitary within NORM_SLACK (rows of unit norm, and orthogonal;
    each test fails on NaN): the traces Tr(sigma_i u sigma_j u+) / 2 on the
    real and imaginary parts of its entries.  Each entry below the diagonal
    mirrors the one above it term by term, so for u in SU(2) (|b| = |c|) the
    matrix of u+ is the transpose bit for bit, signs of zero included.  With
    a libm whose cos is even and sin odd, the Heisenberg picture at -t then
    has the bits of the Schrodinger picture at t.  Products of the complex
    entries give the same nonzero bits, but can flip the sign of a zero."""
    m = _complex_array(u)
    if m is None:
        raise ValueError(f"matrix must be a 2x2 array of numbers, got {_shown(u):.40}")
    if m.shape != (2, 2):
        raise ValueError(f"matrix must be 2x2, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    aa, bb, cc, dd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    re_ac, re_bd = ar * cr + ai * ci, br * dr + bi * di  # the real parts of a c*, b d*
    im_ca, im_db = ar * ci - ai * cr, br * di - bi * dr  # of c a*, d b*
    n0, n1, overlap = aa + bb, cc + dd, math.hypot(re_ac + re_bd, im_ca + im_db)
    if not (abs(n0 - 1.0) < NORM_SLACK and abs(n1 - 1.0) < NORM_SLACK and overlap < NORM_SLACK):
        raise ValueError(f"matrix is not unitary: row norms^2 {n0!r}, {n1!r}, overlap {overlap!r}")
    re_ad = ar * dr + ai * di  # the real part of a d*
    re_bc = br * cr + bi * ci
    im_bc = bi * cr - br * ci
    return (
        re_ad + re_bc, (ai * dr - ar * di) - im_bc, re_ac - re_bd,
        (ar * di - ai * dr) - im_bc, re_ad - re_bc, im_ca - im_db,
        (ar * br + ai * bi) - (cr * dr + ci * di), (ai * br - ar * bi) - (ci * dr - cr * di),
        0.5 * (aa - bb - cc + dd),
    )  # fmt: skip


def adjoint_rotation(u) -> np.ndarray:
    """3x3 rotation carried by conjugation: R_ij = Tr(sigma_i u sigma_j u+) / 2.

    u must be a 2x2 unitary within NORM_SLACK (rows of unit norm, and
    orthogonal); anything else raises ValueError.  R is special orthogonal,
    and u and -u produce the same R (the SU(2) -> SO(3) double cover kills
    the sign).  For u in SU(2) the rotation of adjoint(u) is R^T bit for bit.
    """
    return np.array(_rotation_of(u)).reshape(3, 3)


def rotate_state(u, v) -> tuple[float, float, float]:
    """Schrodinger transport v -> U v U+ in Bloch-vector form: R v, with R
    the adjoint rotation of u (a u that is not unitary raises ValueError).

    The result is renormalized to machine precision before return.
    """
    return _transport(_rotation_of(u), bloch_vector(v), inverse=False)


def rotate_observable(u, e) -> tuple[float, float, float]:
    """Heisenberg transport e -> U+ e U: R^T e, the inverse rotation of rotate_state.

    For u in SU(2) this is rotate_state(adjoint(u), e) bit for bit, without
    building adjoint(u).  A u that is not unitary raises ValueError.
    """
    return _transport(_rotation_of(u), bloch_vector(e), inverse=True)


def rodrigues(axis, angle, v) -> tuple[float, float, float]:
    """Rotate v by angle about axis with the closed-form Rodrigues formula.

    v cos(a) + (n x v) sin(a) + n (n . v)(1 - cos(a)).  Shares no code with
    the conjugation path, so the two serve as cross-checks of each other.
    """
    n = unit_axis(axis)
    v = bloch_vector(v)
    angle = _finite(angle, "angle")
    c = math.cos(angle)
    s = math.sin(angle)
    dot = n[0] * v[0] + n[1] * v[1] + n[2] * v[2]
    cross = (n[1] * v[2] - n[2] * v[1], n[2] * v[0] - n[0] * v[2], n[0] * v[1] - n[1] * v[0])
    return tuple(vi * c + wi * s + ni * dot * (1.0 - c) for vi, wi, ni in zip(v, cross, n))


_NORMALS_PER_CALL = 1024  # what _NormalBlocks asks numpy for at a time (8 KB)


class _NormalBlocks:
    """rng.normal's stream, drawn _NORMALS_PER_CALL at a time: normal(size)
    returns its next size numbers as a float64 array slice.  Generator.normal
    builds each number from whole 64-bit outputs and keeps no half-word, so
    the stream has the same bits however it is cut."""

    def __init__(self, rng: np.random.Generator):
        self._rng, self._buf, self._at = rng, np.empty(0), 0

    def normal(self, size: int) -> np.ndarray:
        i = self._at
        if i + size > len(self._buf):
            fresh = self._rng.normal(size=max(_NORMALS_PER_CALL, size))
            self._buf, i = np.concatenate((self._buf[i:], fresh)), 0
        self._at = i + size
        return self._buf[i : i + size]


def haar_random_unitary(rng) -> np.ndarray:
    """Haar-uniform SU(2) element drawn from a uniform unit quaternion.

    Four standard normals normalized to (a, b, c, d) map to
    [[a + ib, c + id], [-c + id, a - ib]], whose determinant is |q|^2 = 1.
    rng may be anything whose normal(size=k) returns k standard normals as
    an array, such as a numpy Generator.
    """
    a, b, c, d = rng.normal(size=4).tolist()
    norm = math.hypot(a, b, c, d)
    a, b, c, d = a / norm, b / norm, c / norm, d / norm
    return np.array((a, b, c, d, -c, d, a, -b)).view(complex).reshape(2, 2)


def random_unit_vector(rng) -> tuple[float, float, float]:
    """Uniform direction on the unit sphere: three normals from rng (as for
    haar_random_unitary), normalized; a triple of norm <= 1e-12 is redrawn."""
    while True:
        x, y, z = rng.normal(size=3).tolist()
        norm = math.hypot(x, y, z)
        if norm > 1e-12:
            return x / norm, y / norm, z / norm
