"""2x2 unitary algebra for single-qubit rotations.

Convention: a rotation by angle ``delta`` about the unit axis ``n`` is

    U = cos(delta/2) I - i sin(delta/2) (n . sigma)

and conjugation ``v -> U v U+`` moves Bloch vectors actively by +delta
about ``n`` with the right-hand rule (for the y axis, z rotates toward +x).
Angles live on all of R; there is no wrapping at construction, so the
SU(2) period is 4*pi and ``make_unitary(n, d + 2*pi) == -make_unitary(n, d)``.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernel import _finite, unit_axis

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)
del _m


def make_unitary(axis, angle: float) -> np.ndarray:
    """Axis-angle unitary cos(angle/2) I - i sin(angle/2) (axis . sigma)."""
    x, y, z = unit_axis(axis)
    angle = _finite(angle, "angle")
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array([[complex(c, -s * z), complex(-s * y, -s * x)],
                     [complex(s * y, -s * x), complex(c, s * z)]])  # fmt: skip


def adjoint(u) -> np.ndarray:
    """Conjugate transpose. adjoint(adjoint(u)) reproduces u bit for bit."""
    u = np.asarray(u, dtype=complex)
    return np.ascontiguousarray(u.conj().T)


def compose(a, b) -> np.ndarray:
    """Matrix product a @ b (apply b first when acting on kets)."""
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)
