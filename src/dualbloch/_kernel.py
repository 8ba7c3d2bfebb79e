"""The rotation path on plain floats, without numpy: the 3-vector validators
(su2 and bloch export these same objects), the SO(3) matrix of a quaternion
or an axis and angle, transport, expectation and grids.  A vector is a float
triple; a rejected input raises a ValueError that names it.

Every vector a validator returns is a fixed point of all three validators:
a float tuple of unit norm to within one ulp comes back as the same object,
so checking a vector twice gives the bits of checking it once.

A rotation is built from the unit quaternion (c, sx, sy, sz) of its SU(2)
element [[alpha, beta], [-beta*, alpha*]] = c I - i (sx X + sy Y + sz Z):
(c, sx, sy, sz) = (Re alpha, -Im beta, -Re beta, -Im alpha).

The module holds no state, and its private builders check nothing: they
take inputs that a public function has checked.
"""

from __future__ import annotations

import math
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
    as a plain float tuple when its norm is 1 to within one ulp: a validator's
    output comes back as the same object.  With slack=None any nonzero finite
    vector passes; otherwise its norm must lie within slack of 1.  math.hypot
    scales internally, so the norm is inf only for non-finite input or a true
    norm beyond the largest float, and only then are the components inspected.
    """
    if not (type(components) is tuple and len(components) == 3):  # what validators return
        shape = getattr(components, "shape", None)  # a tuple subclass comes here too
        if shape is not None:
            if shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {shape}")
            components = components.tolist()
        elif not isinstance(components, (list, tuple)) or len(components) != 3:
            raise ValueError(f"{name} must be a 3-vector, got {components!r:.40}")
        components = tuple(components)
    x, y, z = components
    if not (type(x) is float and type(y) is float and type(z) is float):
        import numbers  # only components that are not floats need it

        if not all(isinstance(c, numbers.Real) for c in components):
            raise ValueError(f"{name} must be a 3-vector of real numbers")
        components = x, y, z = tuple(_finite(c, f"{name} components") for c in components)
    norm = math.hypot(x, y, z)
    if abs(norm - 1.0) <= sys.float_info.epsilon:  # unit, so finite and within any slack
        return components
    if not math.isfinite(norm) and not all(map(math.isfinite, (x, y, z))):
        raise ValueError(f"{name} components must be finite")
    if slack is None:
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        if not sys.float_info.min <= norm < math.inf:
            # Past the largest float, or subnormal: rescale, then measure.
            m = max(abs(x), abs(y), abs(z))
            return _unit3((x / m, y / m, z / m), name, None)  # a norm in [1, sqrt(3)]
    elif abs(norm - 1.0) >= slack:
        raise ValueError(f"{name} norm {norm!r} deviates from 1 by {abs(norm - 1.0):.3g}")
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


def _axis_rotation(axis, angle: float) -> tuple[float, ...]:
    """The SO(3) matrix of su2.make_unitary(axis, angle), for an axis that
    unit_axis returned and a finite float angle: the quaternion with
    cos(angle / 2) and sin(angle / 2) * axis through _quaternion_rotation."""
    x, y, z = axis
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return _quaternion_rotation(c, s * x, s * y, s * z)


def _quaternion_rotation(c: float, sx: float, sy: float, sz: float) -> tuple[float, ...]:
    """The SO(3) matrix of [[alpha, beta], [-beta*, alpha*]] for a unit
    (c, sx, sy, sz) = (Re alpha, -Im beta, -Re beta, -Im alpha): bloch._rotation_of
    of that matrix bit for bit, signs of zero included.  Up to sign, each term
    there is one of ten products, as (-s) * x == -(s * x) and p * q == q * p
    exactly; each entry keeps its expression tree and only shares them.
    abs(complex(p, q)) is libm's hypot(p, q), which math.hypot is not."""
    cx, cy, cz = c * sx, c * sy, c * sz
    xy, xz, yz = sx * sy, sx * sz, sy * sz
    re_ad, re_bc, im_bc = c * c - sz * sz, -(sy * sy) + sx * sx, -xy - xy
    a2, b2 = abs(complex(c, sz)) ** 2, abs(complex(sy, sx)) ** 2
    return (
        re_ad + re_bc, (-cz - cz) - im_bc, (cy + xz) - (-cy - xz),
        (cz + cz) - im_bc, re_ad - re_bc, (-cx + yz) - (-yz + cx),
        (-cy + xz) - (cy - xz), (yz + cx) - (-cx - yz),
        0.5 * (a2 - b2 - b2 + a2),
    )  # fmt: skip


def _transport(r: tuple[float, ...], v: tuple[float, float, float], inverse: bool):
    """R v, or R^T v when inverse, renormalized to unit length.

    r holds the nine entries of R row by row and v three floats.  For u in
    SU(2) (|b| = |c|), R^T is bloch.adjoint_rotation(u+) bit for bit.
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
    return _expectation(bloch_vector(e), bloch_vector(v))


def _expectation(e: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    """expectation(e, v) for two vectors that a validator returned."""
    ex, ey, ez = e
    vx, vy, vz = v
    d = ex * vx + ey * vy + ez * vz
    if 1.0 < abs(d) < 1.0 + 1e-12:
        d = math.copysign(1.0, d)
    return d


def _linspace(start: float, stop: float, num: int) -> Iterator[float]:
    """np.linspace(start, stop, num) bit for bit, for num >= 2, point by point."""
    div = num - 1
    delta = stop - start
    step = delta / div if div < sys.float_info.max else 0.0  # delta / div overflows past it
    for i in range(div):  # a subnormal width steps by 0: divide first, as numpy does
        yield (i / div * delta if step == 0 else i * step) + start
    yield stop
