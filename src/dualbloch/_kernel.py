"""The rotation path on plain floats, without numpy: the 3-vector validators
(su2 and bloch export these same objects), SU(2) entries, their SO(3)
rotation, transport, expectation and grids.  A vector is a float triple,
and every rejected input raises ValueError with a message that names it.

Every vector a validator returns is a fixed point of all three validators:
a vector of unit norm to within one ulp comes back bit for bit, so checking
a vector twice gives the bits of checking it once.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterator

NORM_SLACK = 1e-6  # constructors renormalize within this, reject anything worse


def _finite(value, name: str) -> float:
    """value as a float, raising ValueError unless it is finite: an int beyond
    the float range counts as infinite, and a string raises math.isfinite's
    TypeError."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return float(value)


def _unit3(components, name: str, slack: float | None) -> tuple[float, float, float]:
    """Validate a list, tuple or shape-(3,) array of three real numbers (else
    raise ValueError, calling no float()) and return it scaled to unit norm, or
    as it is when its norm is already 1 to within one ulp.  With slack=None
    any nonzero finite vector passes; otherwise its norm must lie within
    slack of 1.  math.hypot scales internally, so the norm is inf only for
    non-finite input or a true norm beyond the largest float, and only then
    are the components inspected.
    """
    shape = getattr(components, "shape", None)
    if shape is not None:
        if shape != (3,):
            raise ValueError(f"{name} must be a 3-vector, got shape {shape}")
        components = components.tolist()
    elif not isinstance(components, (list, tuple)) or len(components) != 3:
        raise ValueError(f"{name} must be a 3-vector, got {components!r:.40}")
    x, y, z = components
    if not (type(x) is float and type(y) is float and type(z) is float):
        if not all(isinstance(c, numbers.Real) for c in components):
            raise ValueError(f"{name} must be a 3-vector of real numbers")
        x, y, z = (_finite(c, f"{name} components") for c in components)
    norm = math.hypot(x, y, z)
    if not math.isfinite(norm) and not all(map(math.isfinite, (x, y, z))):
        raise ValueError(f"{name} components must be finite")
    if slack is None:
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        if not sys.float_info.min <= norm < math.inf:
            # Past the largest float, or subnormal: rescale, then measure.
            m = max(abs(x), abs(y), abs(z))
            x, y, z = x / m, y / m, z / m
            norm = math.hypot(x, y, z)
    elif abs(norm - 1.0) >= slack:
        raise ValueError(f"{name} norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3g}")
    if abs(norm - 1.0) <= sys.float_info.epsilon:
        return x, y, z
    return x / norm, y / norm, z / norm


def unit_axis(components) -> tuple[float, float, float]:
    """Validate a rotation axis and return it normalized to machine precision.

    Accepts any finite 3-vector whose norm is within NORM_SLACK of 1; the
    zero vector and anything farther from unit norm raise ValueError.
    """
    return _unit3(components, "axis", NORM_SLACK)


def bloch_vector(components) -> tuple[float, float, float]:
    """Validate a Bloch vector and return it normalized to machine precision.

    Same acceptance policy as axes: finite 3-vectors within NORM_SLACK of
    unit norm pass (and are renormalized), everything else raises ValueError.
    """
    return _unit3(components, "Bloch vector", NORM_SLACK)


def normalized(components) -> tuple[float, float, float]:
    """Scale an arbitrary nonzero finite 3-vector onto the unit sphere."""
    return _unit3(components, "vector", None)


def _entries(axis, angle: float) -> tuple[complex, complex, complex, complex]:
    """Entries (a, b, c, d), row by row, of su2.make_unitary(axis, angle), for
    an axis that unit_axis returned."""
    x, y, z = axis
    angle = _finite(angle, "angle")
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    return complex(c, -s * z), complex(-s * y, -s * x), complex(s * y, -s * x), complex(c, s * z)


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


def expectation(e, v) -> float:
    """Expectation value e . v of measuring along e on the state v.

    Round-off overshoots beyond +-1 smaller than 1e-12 are clamped; anything
    larger is returned as computed.
    """
    ex, ey, ez = bloch_vector(e)
    vx, vy, vz = bloch_vector(v)
    d = ex * vx + ey * vy + ez * vz
    if 1.0 < abs(d) < 1.0 + 1e-12:
        d = math.copysign(1.0, d)
    return d


def _linspace(start: float, stop: float, num: int) -> Iterator[float]:
    """np.linspace(start, stop, num) bit for bit, for num >= 2, point by point."""
    div = num - 1
    delta = stop - start
    step = delta / div
    for i in range(div):  # a subnormal width steps by 0: divide first, as numpy does
        yield (i / div * delta if step == 0 else i * step) + start
    yield stop
