"""Single-axis unitary evolution of Bloch vectors, in three readings.

schrodinger        the state rotates forward: v(t) = R(rate * t) v
heisenberg         the observable rotates the opposite way: e(t) = R(-rate * t) e
heisenberg-reversed  the identical Heisenberg flow, but each sample is
                   labeled -t instead of t.  The operator is the same
                   (exp(+i H t) = exp(-i H (-t))), so as a function of its
                   own label the reversed trace takes the forward
                   Schrodinger form.

Time is a dimensionless parameter; with the default rate of 1 the rotation
angle equals t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bloch import _bloch3, _rotation, _transport, bloch_vector
from .su2 import _entries, unit_axis


class Picture(Enum):
    SCHRODINGER = "schrodinger"
    HEISENBERG = "heisenberg"
    HEISENBERG_REVERSED = "heisenberg-reversed"


class BadRangeError(ValueError):
    """Trajectory time range must satisfy t_start < t_end."""


class TooFewStepsError(ValueError):
    """Trajectory grids need at least the two endpoint samples."""


class EmptyGridError(ValueError):
    """Time grid must contain at least one point."""


@dataclass(frozen=True)
class EvolutionSpec:
    """Generator axis, angular rate (radians per unit time), and picture."""

    axis: np.ndarray
    rate: float = 1.0
    picture: Picture = Picture.SCHRODINGER

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_axis(self.axis))
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if not isinstance(self.picture, Picture):
            raise ValueError(f"picture must be a Picture, got {self.picture!r}")


@dataclass(frozen=True)
class TrajectorySample:
    time_label: float
    vector: np.ndarray
    picture: Picture


def evolve(spec: EvolutionSpec, vector, t: float) -> np.ndarray:
    """Evolve a unit vector for time t under the given generator and picture.

    The reversed Heisenberg reading returns the same vector as Heisenberg at
    the same physical t; the two differ only in trajectory labeling.  The
    result is rotate_state (Schrodinger) or rotate_observable (Heisenberg)
    of exp_generator(axis, rate * t), bit for bit.
    """
    r = _rotation(*_entries(spec.axis, spec.rate * float(t)))
    inverse = spec.picture is not Picture.SCHRODINGER
    return np.array(_transport(r, _bloch3(vector), inverse))


def trajectory(
    spec: EvolutionSpec, vector, t_start: float, t_end: float, steps: int
) -> list[TrajectorySample]:
    """Sample the evolution on a uniform grid including both endpoints.

    Schrodinger and Heisenberg samples are labeled with the physical time t;
    heisenberg-reversed samples carry label -t while keeping the Heisenberg
    vector at physical time t.
    """
    if steps < 2:
        raise TooFewStepsError(f"steps must be >= 2, got {steps}")
    if not (float(t_start) < float(t_end)):
        raise BadRangeError(f"need t_start < t_end, got [{t_start}, {t_end}]")
    reversed_labels = spec.picture is Picture.HEISENBERG_REVERSED
    samples = []
    for t in np.linspace(float(t_start), float(t_end), int(steps)):
        t = float(t)
        # 0.0 - t rather than -t keeps the t = 0 label from printing as -0.
        label = 0.0 - t if reversed_labels else t
        samples.append(TrajectorySample(label, evolve(spec, vector, t), spec.picture))
    return samples


def reversed_label_equivalence(axis, rate, vector, t_grid) -> bool:
    """Check that the reversed-label Heisenberg trace has the Schrodinger form.

    For every t in the grid, the Heisenberg vector at physical time t (which
    the reversed reading labels tau = -t) must match, within 1e-12, the
    Schrodinger evolution of the same input evaluated at time tau with the
    same generator.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise EmptyGridError("time grid must be non-empty")
    vector = bloch_vector(vector)
    heis = EvolutionSpec(axis, rate, Picture.HEISENBERG)
    schro = EvolutionSpec(axis, rate, Picture.SCHRODINGER)
    for t in grid:
        at_reversed_label = evolve(heis, vector, t)
        schrodinger_form = evolve(schro, vector, -t)
        if float(np.max(np.abs(at_reversed_label - schrodinger_form))) > 1e-12:
            return False
    return True
