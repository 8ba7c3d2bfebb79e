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

import math
from collections import namedtuple

from ._kernel import _entries, _finite, _rotation, _transport, bloch_vector, expectation, unit_axis
from .pictures import Picture

HALT_POLE = (0.0, 0.0, 1.0)

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
    r = _rotation(*_entries(machine.axis, machine.angle))
    flip = _rotation(0j, 1 + 0j, 1 + 0j, 0j)  # the entries of SIGMA_X, row by row
    if picture is Picture.SCHRODINGER:
        system_out = _transport(r, machine.system, inverse=False)
        halt_out = _transport(flip, machine.halt, inverse=False)
        system_basis_out = machine.system_basis
        halt_basis_out = machine.halt_basis
    elif picture is Picture.HEISENBERG:
        system_out = machine.system
        halt_out = machine.halt
        system_basis_out = _transport(r, machine.system_basis, inverse=True)
        halt_basis_out = _transport(flip, machine.halt_basis, inverse=True)
    else:
        raise ValueError(
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
    r = _rotation(*_entries(unit_axis(axis), angle))
    basis = bloch_vector(basis)
    s0, s1, s2 = schrodinger_output = _transport(r, basis, inverse=False)
    h0, h1, h2 = heisenberg_output = _transport(r, basis, inverse=True)
    dot = s0 * h0 + s1 * h1 + s2 * h2
    cross = math.hypot(s1 * h2 - s2 * h1, s2 * h0 - s0 * h2, s0 * h1 - s1 * h0)
    # atan2(|s x h|, s . h) equals arccos(s . h) but keeps angles near 0 and
    # pi at full precision; acos alone has a ~1e-8 noise floor there.
    gap = math.atan2(cross, dot)
    return SelfRefReport(
        schrodinger_output=schrodinger_output,
        heisenberg_output=heisenberg_output,
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
    separated by azimuth 2*delta, so half the gap has sine (half chord)
    sin(theta) |sin(delta)| and cosine hypot(cos(theta), sin(theta) cos(delta));
    atan2 keeps full precision near gap 0 and pi.  Closed form only; no
    conjugation machinery is involved.
    """
    s = math.sin(theta)
    half_chord = abs(s * math.sin(delta))
    return 2.0 * math.atan2(half_chord, math.hypot(math.cos(theta), s * math.cos(delta)))
