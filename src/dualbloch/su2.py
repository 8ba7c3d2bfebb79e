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
import sys

import numpy as np

NORM_SLACK = 1e-6  # constructors renormalize within this, reject anything worse

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

for _m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)
del _m


class AxisNotUnitError(ValueError):
    """Rotation axis is not normalizable to a unit vector."""


def pauli(which: str) -> np.ndarray:
    """Return sigma_x, sigma_y or sigma_z by axis name ('x', 'y' or 'z')."""
    try:
        return {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {which!r}, expected 'x', 'y' or 'z'") from None


def _unit3(components, name: str, error: type, slack: float | None) -> tuple[float, float, float]:
    """Validate a 3-vector and return its components scaled to unit norm.

    With slack=None any nonzero finite vector passes; otherwise its norm must
    lie within slack of 1.  math.hypot scales internally, so the norm is inf
    only for non-finite input or a true norm beyond the largest float, and
    only then are the components inspected.
    """
    v = np.asarray(components, dtype=float)
    if v.shape != (3,):
        raise error(f"{name} must be a 3-vector, got shape {v.shape}")
    x, y, z = v.tolist()
    norm = math.hypot(x, y, z)
    if not math.isfinite(norm) and not all(map(math.isfinite, (x, y, z))):
        raise error(f"{name} components must be finite")
    if slack is None:
        if norm == 0.0:
            raise error("zero vector has no direction")
        if not sys.float_info.min <= norm < math.inf:
            # Past the largest float, or subnormal: rescale, then measure.
            m = max(abs(x), abs(y), abs(z))
            x, y, z = x / m, y / m, z / m
            norm = math.hypot(x, y, z)
    elif abs(norm - 1.0) >= slack:
        raise error(f"{name} norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3g}")
    return x / norm, y / norm, z / norm


def unit_axis(components) -> np.ndarray:
    """Validate a rotation axis and return it normalized to machine precision.

    Accepts any finite 3-vector whose norm is within NORM_SLACK of 1; the
    zero vector and anything farther from unit norm are rejected.
    """
    return np.array(_unit3(components, "axis", AxisNotUnitError, NORM_SLACK))


def _entries(axis, angle: float) -> tuple[complex, complex, complex, complex]:
    """Entries (a, b, c, d), row by row, of make_unitary(axis, angle)."""
    x, y, z = _unit3(axis, "axis", AxisNotUnitError, NORM_SLACK)
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError("angle must be finite")
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    return complex(c, -s * z), complex(-s * y, -s * x), complex(s * y, -s * x), complex(c, s * z)


def make_unitary(axis, angle: float) -> np.ndarray:
    """Axis-angle unitary cos(angle/2) I - i sin(angle/2) (axis . sigma)."""
    a, b, c, d = _entries(axis, angle)
    return np.array([[a, b], [c, d]])


# Evolution operator exp(-i (axis . sigma) t / 2): the same function under a
# name that reads as a time exponential.
exp_generator = make_unitary


def adjoint(u) -> np.ndarray:
    """Conjugate transpose. adjoint(adjoint(u)) reproduces u bit for bit."""
    u = np.asarray(u, dtype=complex)
    return np.ascontiguousarray(u.conj().T)


def compose(a, b) -> np.ndarray:
    """Matrix product a @ b (apply b first when acting on kets)."""
    return np.asarray(a, dtype=complex) @ np.asarray(b, dtype=complex)
