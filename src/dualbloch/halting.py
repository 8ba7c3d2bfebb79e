"""A one-qubit halting machine executed in both dynamical pictures.

The machine rotates its system vector by a fixed angle about a fixed axis
and unconditionally flips its halt qubit by conjugation with sigma_x, so
the halt expectation drops from +1 to -1 on every run, in either picture.

Feeding the observer's own basis vector in as the system input exposes the
disagreement between the pictures: the Schrodinger reading returns the
basis vector rotated by +angle, the Heisenberg reading by -angle.  The two
outputs coincide exactly when the basis sits on the rotation axis or the
angle is a multiple of pi, and nowhere else.  Vectors are float triples.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections import namedtuple

from ._kernel import _axis_rotation, _finite, _shown, _transport, bloch_vector, expectation
from ._kernel import unit_axis
from .pictures import Picture

HALT_POLE = (0.0, 0.0, 1.0)
_FLIP = (1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0)  # the SO(3) matrix of SIGMA_X

FIXED_POINT_TOL = 1e-9  # default angular tolerance for classifying agreement


class HaltingMachine(namedtuple("HaltingMachine", "axis angle system system_basis")):
    """Rotation parameters plus the four unit vectors it acts on.

    The halt qubit and its observable are both HALT_POLE, (0, 0, 1), shared
    by every machine; the sigma_x flip applied by run() is what drives their
    expectation to -1.  Every field is checked on construction, and
    _replace, copy and pickle all construct anew.
    """

    __slots__ = ()
    halt = halt_basis = HALT_POLE

    def __new__(cls, axis, angle, system, system_basis=(0.0, 0.0, 1.0)):
        axis, angle = unit_axis(axis), _finite(angle, "angle")
        return super().__new__(cls, axis, angle, bloch_vector(system), bloch_vector(system_basis))

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


RunReport = namedtuple(
    "RunReport",
    "picture system_out halt_out system_basis_out halt_basis_out"
    " system_expectation halt_expectation",
)
SelfRefReport = namedtuple(
    "SelfRefReport", "schrodinger_output heisenberg_output discrepancy_angle halted_in_both"
)


def run(machine: HaltingMachine, picture: Picture) -> RunReport:
    """Execute one run of the machine in the given picture.

    Schrodinger: the system and halt vectors evolve (rotation, then sigma_x
    flip of the halt qubit) while both observables stay put.  Heisenberg:
    the vectors stay put while both observables evolve the opposite way.
    Expectations are picture independent; the halt expectation is -1 after
    every run.
    """
    r = _axis_rotation(machine.axis, machine.angle)
    if picture is Picture.SCHRODINGER:
        system_out = _transport(r, machine.system, inverse=False)
        halt_out = _transport(_FLIP, machine.halt, inverse=False)
        system_basis_out = machine.system_basis
        halt_basis_out = machine.halt_basis
    elif picture is Picture.HEISENBERG:
        system_out = machine.system
        halt_out = machine.halt
        system_basis_out = _transport(r, machine.system_basis, inverse=True)
        halt_basis_out = _transport(_FLIP, machine.halt_basis, inverse=True)
    else:
        raise ValueError(
            f"halting machine supports schrodinger and heisenberg only, got {_shown(picture)}"
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


def self_reference(axis, angle, basis, *, rotation=None) -> SelfRefReport:
    """Run the machine on the observer's own basis vector in both pictures.

    Returns the two outputs (rotation by +angle and by -angle about the
    axis), the geodesic angle between them, and the halt status, which is
    true in both pictures regardless.  Both readings come from one pass over
    R's nine entries: R b, then R^T b, each with _transport's expressions, so
    rotate_state and rotate_observable bit for bit.  tuple.__new__ builds the
    report without the Python frame of namedtuple's __new__.

    A caller that already holds R, _axis_rotation of the checked axis and
    angle, passes it as rotation; it is used as given, not checked.
    """
    axis, angle = unit_axis(axis), _finite(angle, "angle")
    r = _axis_rotation(axis, angle) if rotation is None else rotation
    x, y, z = bloch_vector(basis)
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    wx = r00 * x + r01 * y + r02 * z
    wy = r10 * x + r11 * y + r12 * z
    wz = r20 * x + r21 * y + r22 * z
    norm = math.hypot(wx, wy, wz)
    s0, s1, s2 = wx / norm, wy / norm, wz / norm
    wx = r00 * x + r10 * y + r20 * z
    wy = r01 * x + r11 * y + r21 * z
    wz = r02 * x + r12 * y + r22 * z
    norm = math.hypot(wx, wy, wz)
    h0, h1, h2 = wx / norm, wy / norm, wz / norm
    dot = s0 * h0 + s1 * h1 + s2 * h2
    cross = math.hypot(s1 * h2 - s2 * h1, s2 * h0 - s0 * h2, s0 * h1 - s1 * h0)
    # atan2(|s x h|, s . h) equals arccos(s . h) but keeps angles near 0 and
    # pi at full precision; acos alone has a ~1e-8 noise floor there.
    return tuple.__new__(SelfRefReport, ((s0, s1, s2), (h0, h1, h2), math.atan2(cross, dot), True))


def is_fixed_point(axis, angle, basis, tol: float = FIXED_POINT_TOL) -> bool:
    """True when the two pictures agree on this input within angular tol.

    Geometrically this holds exactly for basis = +-axis or angle = k*pi;
    the implementation only compares the computed discrepancy against tol.
    """
    with contextlib.suppress(OverflowError):  # an int past the largest float fails below
        math.isfinite(tol)  # a string raises math's TypeError, as every scalar check does
    if not 0.0 < tol <= sys.float_info.max:  # an int past the largest float is not finite
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return self_reference(axis, angle, basis).discrepancy_angle < tol


def discrepancy_closed_form(theta: float, delta: float) -> float:
    """Disagreement angle for a basis at polar angle theta from the axis.

    Both outputs lie on the cone of half-angle theta about the axis,
    separated by azimuth 2*delta, so half the gap has sine (half chord)
    sin(theta) |sin(delta)| and cosine hypot(cos(theta), sin(theta) cos(delta));
    atan2 keeps full precision near gap 0 and pi.  Closed form only; no
    conjugation machinery is involved.
    """
    s = math.sin(theta)
    half_chord = abs(s * math.sin(delta))
    return 2.0 * math.atan2(half_chord, math.hypot(math.cos(theta), s * math.cos(delta)))
