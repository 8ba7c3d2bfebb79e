"""2x2 unitary algebra for single-qubit rotations.

Convention: a rotation by angle ``delta`` about the unit axis ``n`` is

    U = cos(delta/2) I - i sin(delta/2) (n . sigma)

and conjugation ``v -> U v U+`` moves Bloch vectors actively by +delta
about ``n`` with the right-hand rule (for the y axis, z rotates toward +x).
Angles live on all of R; there is no wrapping at construction, so the
SU(2) period is 4*pi and ``make_unitary(n, d + 2*pi) == -make_unitary(n, d)``.
"""

from __future__ import annotations

import numpy as np

from ._kernel import _entries, unit_axis

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)
del _m


def pauli(which: str) -> np.ndarray:
    """Return sigma_x, sigma_y or sigma_z by axis name ('x', 'y' or 'z')."""
    try:
        return {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {which!r}, expected 'x', 'y' or 'z'") from None


def make_unitary(axis, angle: float) -> np.ndarray:
    """Axis-angle unitary cos(angle/2) I - i sin(angle/2) (axis . sigma)."""
    a, b, c, d = _entries(unit_axis(axis), angle)
    return np.array([[a, b], [c, d]])


def adjoint(u) -> np.ndarray:
    """Conjugate transpose. adjoint(adjoint(u)) reproduces u bit for bit."""
    u = np.asarray(u, dtype=complex)
    return np.ascontiguousarray(u.conj().T)


def compose(a, b) -> np.ndarray:
    """Matrix product a @ b (apply b first when acting on kets)."""
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)
