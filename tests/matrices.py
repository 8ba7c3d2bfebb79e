"""Matrix predicates and random inputs that the unit tests share."""

import itertools
import math
import struct

import numpy as np
from hypothesis import strategies as st

from dualbloch._kernel import normalized
from dualbloch.bloch import random_unit_vector
from dualbloch.su2 import IDENTITY

TOL_ALG = 1e-12  # max entrywise deviation tolerated from exact unitarity
TOL_ROT = 1e-10  # orthogonality / determinant tolerance for 3x3 rotations

CORNERS = [  # each coordinate axis, with each sign of its 1 and of its two zeros
    tuple(one if j == i else zeros[j - (j > i)] for j in range(3))
    for i in range(3)
    for one in (1.0, -1.0)
    for zeros in itertools.product((0.0, -0.0), repeat=2)
]
CORNER_ANGLES = (0.0, -0.0, math.pi, -math.pi, math.pi / 2)  # exact zeros in the outputs
# What the oracle bounds of a few ulps were measured on: directions, and angles
# of magnitude up to 10, 10^6 and 10^-3.
DIRECTIONS = (
    st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 0.1).map(normalized)
)
ORACLE_ANGLES = st.floats(-10, 10) | st.floats(-1e6, 1e6) | st.floats(-1e-3, 1e-3)


def bits(vector) -> bytes:
    """The bytes of a float triple: unlike ==, they tell -0.0 from 0.0."""
    return struct.pack("3d", *vector)


def worst(values) -> float:
    """The largest of values, or NaN when any of them is NaN: max() keeps a
    NaN only when it comes first (max(0.0, nan) is 0.0), so it would hide one."""
    return math.nan if any(v != v for v in values) else max(values)


def is_unitary(u, tol: float = TOL_ALG) -> bool:
    """True when u is 2x2, finite, and u u+ = I within tol (entrywise)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not np.all(np.isfinite(u)):
        return False
    return float(np.max(np.abs(u @ u.conj().T - IDENTITY))) <= tol


def equal_entrywise(a, b, tol: float = TOL_ALG) -> bool:
    """Strict equality: max entrywise deviation at most tol."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(np.max(np.abs(diff))) <= tol


def equal_up_to_phase(a, b, tol: float = TOL_ALG) -> bool:
    """Projective equality: a = phase * b for some unit complex phase.

    A global phase is invisible to conjugation on Bloch vectors, so this is
    the physically meaningful comparison between unitaries.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    i = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[i]) == 0.0 or abs(a[i]) == 0.0:
        return equal_entrywise(a, b, tol)
    phase = a[i] / b[i]
    phase /= abs(phase)
    return equal_entrywise(a, phase * b, tol)


def is_rotation(r, tol: float = TOL_ROT) -> bool:
    """True when r is 3x3 with r r^T = I and det r = +1 within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if float(np.max(np.abs(r @ r.T - np.eye(3)))) > tol:
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= tol


def near_unit_vector(rng) -> tuple[float, float, float]:
    """A random direction with norm 1 +- up to 1e-7: an input that the
    validators accept and scale onto the unit sphere."""
    scale = 1.0 + float(rng.uniform(-1e-7, 1e-7))
    return tuple(c * scale for c in random_unit_vector(rng))
