"""Single-axis unitary evolution of Bloch vectors, in three readings.

schrodinger        the state rotates forward: v(t) = R(rate * t) v
heisenberg         the observable rotates the opposite way: e(t) = R(-rate * t) e
heisenberg-reversed  the identical Heisenberg flow, but each sample is
                   labeled -t instead of t.  The operator is the same
                   (exp(+i H t) = exp(-i H (-t))), so as a function of its
                   own label the reversed trace takes the forward
                   Schrodinger form.

Time is a dimensionless parameter; with the default rate of 1 the rotation
angle equals t.  Vectors are float triples.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum

from ._kernel import _axis_rotation, _finite, _linspace, _shown, _transport, bloch_vector
from ._kernel import unit_axis


class Picture(Enum):
    SCHRODINGER = "schrodinger"
    HEISENBERG = "heisenberg"
    HEISENBERG_REVERSED = "heisenberg-reversed"


class EvolutionSpec(namedtuple("EvolutionSpec", "axis rate picture")):
    """Generator unit axis, angular rate (radians per unit time), and picture.

    Every field is checked on construction, and _replace, copy and pickle
    all construct anew.
    """

    __slots__ = ()

    def __new__(cls, axis, rate=1.0, picture=Picture.SCHRODINGER):
        axis, rate = unit_axis(axis), _finite(rate, "rate")
        if not isinstance(picture, Picture):
            raise ValueError(f"picture must be a Picture, got {_shown(picture)}")
        return super().__new__(cls, axis, rate, picture)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


TrajectorySample = namedtuple("TrajectorySample", "time_label vector picture")


def evolve(spec: EvolutionSpec, vector, t: float) -> tuple[float, float, float]:
    """Evolve a unit vector for time t under the given generator and picture.

    The reversed Heisenberg reading returns the same vector as Heisenberg at
    the same physical t; the two differ only in trajectory labeling.  The
    result is rotate_state (Schrodinger) or rotate_observable (Heisenberg)
    of make_unitary(axis, rate * t), bit for bit, as a float triple.
    """
    r = _axis_rotation(spec.axis, _finite(spec.rate * _finite(t, "t"), "angle"))
    inverse = spec.picture is not Picture.SCHRODINGER
    return _transport(r, bloch_vector(vector), inverse)


def _rows(spec: EvolutionSpec, vector, t_start: float, t_end: float, steps: int):
    """trajectory's checks, then its samples as flat (time_label, vx, vy, vz) rows."""
    steps = operator.index(steps)
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    t_start = _finite(t_start, "t_start")
    t_end = _finite(t_end, "t_end")
    if not 0.0 < t_end - t_start < math.inf:
        raise ValueError(f"need t_start < t_end and a finite width, got [{t_start}, {t_end}]")
    _finite(spec.rate * max(-t_start, t_end), "angle")  # no grid point has a larger |t|
    vector = bloch_vector(vector)
    grid = _linspace(t_start, t_end, steps)
    # 0.0 - t rather than -t keeps the t = 0 label from printing as -0.
    if spec.picture is Picture.HEISENBERG_REVERSED:
        return ((0.0 - t, *evolve(spec, vector, t)) for t in grid)
    return ((t, *evolve(spec, vector, t)) for t in grid)


def trajectory(
    spec: EvolutionSpec, vector, t_start: float, t_end: float, steps: int
) -> Iterator[TrajectorySample]:
    """Sample the evolution on a uniform grid including both endpoints.

    Schrodinger and Heisenberg samples are labeled with the physical time t;
    heisenberg-reversed samples carry label -t while keeping the Heisenberg
    vector at physical time t.  Every argument is checked before this
    returns; each grid point and its sample are computed as they are consumed.
    """
    rows = _rows(spec, vector, t_start, t_end, steps)
    return (TrajectorySample(label, (x, y, z), spec.picture) for label, x, y, z in rows)


def reversed_label_equivalence(axis, rate, vector, t_grid) -> bool:
    """Check that the reversed-label Heisenberg trace has the Schrodinger form.

    For every t in the grid, the Heisenberg vector at physical time t (which
    the reversed reading labels tau = -t) must match, within 1e-12, the
    Schrodinger evolution of the same input evaluated at time tau with the
    same generator.
    """
    grid = [_finite(t, "t") for t in t_grid]
    if not grid:
        raise ValueError("time grid must be non-empty")
    heis = EvolutionSpec(axis, rate, Picture.HEISENBERG)
    schro = EvolutionSpec(axis, rate, Picture.SCHRODINGER)
    for t in grid:
        at_reversed_label = evolve(heis, vector, t)
        schrodinger_form = evolve(schro, vector, -t)
        if any(abs(a - b) > 1e-12 for a, b in zip(at_reversed_label, schrodinger_form)):
            return False
    return True
