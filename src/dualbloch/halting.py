"""A one-qubit halting machine executed in both dynamical pictures.

The machine rotates its system vector by a fixed angle about a fixed axis
and unconditionally flips its halt qubit by conjugation with sigma_x, so
the halt expectation drops from +1 to -1 on every run, in either picture.

Feeding the observer's own basis vector in as the system input exposes the
disagreement between the pictures: the Schrodinger reading returns the
basis vector rotated by +angle, the Heisenberg reading by -angle.  The two
outputs coincide exactly when the basis sits on the rotation axis or the
angle is a multiple of pi, and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bloch import _bloch3, _rotation, _transport, bloch_vector, expectation
from .bloch import rotate_observable, rotate_state
from .pictures import Picture
from .su2 import SIGMA_X, _entries, make_unitary, unit_axis

HALT_POLE = np.array([0.0, 0.0, 1.0])
HALT_POLE.setflags(write=False)

FIXED_POINT_TOL = 1e-9  # default angular tolerance for classifying agreement


class UnsupportedPictureError(ValueError):
    """The halting machine is defined only in the two standard pictures."""


@dataclass(frozen=True)
class HaltingMachine:
    """Rotation parameters plus the four unit vectors the machine acts on.

    The halt qubit and its observable are both the read-only HALT_POLE,
    (0, 0, 1), shared by every machine; the sigma_x flip applied by run()
    is what drives their expectation to -1.
    """

    axis: np.ndarray
    angle: float
    system: np.ndarray
    system_basis: np.ndarray = (0.0, 0.0, 1.0)
    halt: ClassVar[np.ndarray] = HALT_POLE
    halt_basis: ClassVar[np.ndarray] = HALT_POLE

    def __post_init__(self):
        object.__setattr__(self, "axis", unit_axis(self.axis))
        if not math.isfinite(float(self.angle)):
            raise ValueError("angle must be finite")
        object.__setattr__(self, "angle", float(self.angle))
        object.__setattr__(self, "system", bloch_vector(self.system))
        object.__setattr__(self, "system_basis", bloch_vector(self.system_basis))


@dataclass(frozen=True)
class RunReport:
    picture: Picture
    system_out: np.ndarray
    halt_out: np.ndarray
    system_basis_out: np.ndarray
    halt_basis_out: np.ndarray
    system_expectation: float
    halt_expectation: float


@dataclass(frozen=True)
class SelfRefReport:
    schrodinger_output: np.ndarray
    heisenberg_output: np.ndarray
    discrepancy_angle: float
    halted_in_both: bool


def run(machine: HaltingMachine, picture: Picture) -> RunReport:
    """Execute one run of the machine in the given picture.

    Schrodinger: the system and halt vectors evolve (rotation, then sigma_x
    flip of the halt qubit) while both observables stay put.  Heisenberg:
    the vectors stay put while both observables evolve the opposite way.
    Expectations are picture independent; the halt expectation is -1 after
    every run.
    """
    u = make_unitary(machine.axis, machine.angle)
    if picture is Picture.SCHRODINGER:
        system_out = rotate_state(u, machine.system)
        halt_out = rotate_state(SIGMA_X, machine.halt)
        system_basis_out = machine.system_basis
        halt_basis_out = machine.halt_basis
    elif picture is Picture.HEISENBERG:
        system_out = machine.system
        halt_out = machine.halt
        system_basis_out = rotate_observable(u, machine.system_basis)
        halt_basis_out = rotate_observable(SIGMA_X, machine.halt_basis)
    else:
        raise UnsupportedPictureError(
            f"halting machine supports schrodinger and heisenberg only, got {picture!r}"
        )
    return RunReport(
        picture=picture,
        system_out=system_out,
        halt_out=halt_out,
        system_basis_out=system_basis_out,
        halt_basis_out=halt_basis_out,
        system_expectation=expectation(system_basis_out, system_out),
        halt_expectation=expectation(halt_basis_out, halt_out),
    )


def self_reference(axis, angle, basis) -> SelfRefReport:
    """Run the machine on the observer's own basis vector in both pictures.

    Returns the two outputs (rotation by +angle and by -angle about the
    axis), the geodesic angle between them, and the halt status, which is
    true in both pictures regardless.  One SO(3) matrix R gives both: R b
    and R^T b, the transports of rotate_state and rotate_observable.
    """
    r = _rotation(*_entries(axis, angle))
    basis = _bloch3(basis)
    s0, s1, s2 = schrodinger_output = _transport(r, basis, inverse=False)
    h0, h1, h2 = heisenberg_output = _transport(r, basis, inverse=True)
    dot = s0 * h0 + s1 * h1 + s2 * h2
    cross = math.hypot(s1 * h2 - s2 * h1, s2 * h0 - s0 * h2, s0 * h1 - s1 * h0)
    # atan2(|s x h|, s . h) equals arccos(s . h) but keeps angles near 0 and
    # pi at full precision; acos alone has a ~1e-8 noise floor there.
    gap = math.atan2(cross, dot)
    return SelfRefReport(
        schrodinger_output=np.array(schrodinger_output),
        heisenberg_output=np.array(heisenberg_output),
        discrepancy_angle=gap,
        halted_in_both=True,
    )


def is_fixed_point(axis, angle, basis, tol: float = FIXED_POINT_TOL) -> bool:
    """True when the two pictures agree on this input within angular tol.

    Geometrically this holds exactly for basis = +-axis or angle = k*pi;
    the implementation only compares the computed discrepancy against tol.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return self_reference(axis, angle, basis).discrepancy_angle < tol


def discrepancy_closed_form(theta: float, delta: float) -> float:
    """Disagreement angle for a basis at polar angle theta from the axis.

    Both outputs lie on the cone of half-angle theta about the axis,
    separated by azimuth 2*delta, so the geodesic gap satisfies
    cos(gap) = cos(theta)^2 + sin(theta)^2 cos(2*delta).  Closed form only;
    no conjugation machinery is involved.
    """
    c = math.cos(theta)
    s = math.sin(theta)
    val = c * c + s * s * math.cos(2.0 * delta)
    return math.acos(min(1.0, max(-1.0, val)))
