import _thread
import contextlib
import io
import math
import struct
import subprocess
import sys
import textwrap
import threading
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualbloch import _kernel, bloch, cli, halting, pictures, su2
from dualbloch._kernel import _linspace
from helpers import cli_env
from matrices import CORNERS, bits


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _draws(rng, n):
    """(start, stop, num) over plain, negative, descending, narrow and subnormal ranges."""
    for i in range(n):
        num = int(rng.integers(2, 40))
        kind = i % 4
        if kind == 0:
            start, stop = rng.uniform(-1e3, 1e3, size=2)
        elif kind == 1:  # narrow, down to a few ulps of start
            start = rng.uniform(-10.0, 10.0)
            stop = start + rng.uniform(0.0, 1.0) * 10.0 ** rng.integers(-16, 3)
        elif kind == 2:  # subnormal widths, step == 0 included
            start, stop = rng.integers(-20, 20, size=2) * 5e-324
        else:
            start, stop = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.integers(-300, 300)
        yield float(start), float(stop), num


def test_linspace_is_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(70)
    zero_steps = 0
    for start, stop, num in _draws(rng, 10_000):
        zero_steps += (stop - start) / (num - 1) == 0.0
        want = np.linspace(start, stop, num)
        got = list(_linspace(start, stop, num))
        assert np.array_equal(_bits(got), _bits(want)), (start, stop, num)
    assert zero_steps > 100  # the divide-first branch ran


@pytest.mark.parametrize(
    "start, stop, num",
    [(0.0, 5e-324, 3), (0.0, 1.0, 2), (-3.0, -1.0, 5), (2.0, -2.0, 4), (-0.0, 1.0, 3)],
)
def test_linspace_named_cases(start, stop, num):
    got = list(_linspace(start, stop, num))
    assert np.array_equal(_bits(got), _bits(np.linspace(start, stop, num)))
    assert got[-1] == stop and len(got) == num


def test_linspace_yields_the_first_point_of_a_huge_grid_at_once():
    # 10^17 points: each is computed as it is drawn, none allocated up front.
    grid = _linspace(0.0, 1.0, 10**17)
    assert next(grid) == 0.0
    assert 0.0 < next(grid) < 1e-16


_HUGE = 10**400  # an int beyond the largest float
_AXIS = (0.0, 1.0, 0.0)
_Z = (0.0, 0.0, 1.0)
_Z_SPEC = pictures.EvolutionSpec(_AXIS)
_Z_MACHINE = halting.HaltingMachine(_AXIS, 1.0, _Z)
_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "huge": _HUGE}

# Each check of a scalar, as a call on the value, and the name its message gives it
# (trajectory's are in _BAD_TRAJECTORIES).
_SCALARS = {
    "make_unitary": (lambda x: su2.make_unitary(_AXIS, x), "angle"),
    "rodrigues": (lambda x: bloch.rodrigues(_AXIS, x, _Z), "angle"),
    "EvolutionSpec": (lambda x: pictures.EvolutionSpec(_AXIS, x), "rate"),
    "evolve": (lambda x: pictures.evolve(_Z_SPEC, _Z, x), "t"),
    "reversed_label_equivalence": (
        lambda x: pictures.reversed_label_equivalence(_AXIS, 1.0, _Z, [x]), "t"
    ),
    "reversed_label_equivalence-rate": (
        lambda x: pictures.reversed_label_equivalence(_AXIS, x, _Z, [0.0]), "rate"
    ),
    "HaltingMachine": (lambda x: halting.HaltingMachine(_AXIS, x, _Z), "angle"),
    "self_reference": (lambda x: halting.self_reference(_AXIS, x, _Z), "angle"),
    "is_fixed_point": (lambda x: halting.is_fixed_point(_AXIS, x, _Z), "angle"),
}
_VECTOR_CHECKS = {
    su2.unit_axis: "axis", bloch.bloch_vector: "Bloch vector", bloch.normalized: "vector"
}
_GENERATOR = (c for c in (1.0, 0.0, 0.0))  # refused before it is read, so all rows share it
_NOT_VECTORS = {  # no vector check takes these: each, and the end of the message
    "shape": (np.zeros(4), "must be a 3-vector, got shape (4,)"),
    "length": ([1.0, 0.0], "must be a 3-vector, got [1.0, 0.0]"),
    "length-4": ((1.0, 0.0, 0.0, 0.0), "must be a 3-vector, got (1.0, 0.0, 0.0, 0.0)"),
    "not-real": (["1", 0, 0], "must be a 3-vector of real numbers"),
    # Each rejected before any float() call: float() of a 1-element array warns.
    "text": ("abc", "must be a 3-vector, got 'abc'"),
    "text-digits": ("100", "must be a 3-vector, got '100'"),  # not unpacked to (1, 0, 0)
    "bytes": (b"abc", "must be a 3-vector, got b'abc'"),
    "text-components": (["1", "0", "0"], "must be a 3-vector of real numbers"),
    "complex": ([1j, 0, 0], "must be a 3-vector of real numbers"),
    "text-component": ([1, "a", 0], "must be a 3-vector of real numbers"),
    "generator": (_GENERATOR, f"must be a 3-vector, got {_GENERATOR!r:.40}"),
    "set": ({1.0, 0.0, -1.0}, "must be a 3-vector, got {0.0, 1.0, -1.0}"),
    "nested-lists": ([[1.0], [0.0], [0.0]], "must be a 3-vector of real numbers"),
    "shape-3x1": (np.array([[1.0], [0.0], [0.0]]), "must be a 3-vector, got shape (3, 1)"),
    "shape-0d": (np.array(1.0), "must be a 3-vector, got shape ()"),
    "array-component": ([np.array([1.0]), 0, 0], "must be a 3-vector of real numbers"),
    **{label: ([x, 0.0, 1.0], "components must be finite") for label, x in _NONFINITE.items()},
}
_OFF_UNIT = {  # unit_axis and bloch_vector reject these, which normalized scales
    "zero": ((0, 0, 0), "norm 0.0 deviates from 1 by 1"),
    "long": ((0.0, 2.0, 0.0), "norm 2.0 deviates from 1 by 1"),
    "short": ((0.0, 0.9, 0.0), "norm 0.9 deviates from 1 by 0.1"),
    "near": ((0.0, 1.0 - 2e-6, 0.0), "norm 0.999998 deviates from 1 by 2e-06"),
    "norm-past-the-largest-float": ((1.7e308, 1.7e308, 0.0), "norm inf deviates from 1 by inf"),
}
_AXIS_TAKERS = {  # each call that takes an axis, on the axis
    "make_unitary": lambda axis: su2.make_unitary(axis, 1.0),
    "rodrigues": lambda axis: bloch.rodrigues(axis, 1.0, _Z),
    "EvolutionSpec": pictures.EvolutionSpec,
    "HaltingMachine": lambda axis: halting.HaltingMachine(axis, 1.0, _Z),
    "self_reference": lambda axis: halting.self_reference(axis, 1.0, _Z),
    "is_fixed_point": lambda axis: halting.is_fixed_point(axis, 1.0, _Z),
    "reversed_label_equivalence": (
        lambda axis: pictures.reversed_label_equivalence(axis, 1.0, _Z, [0.0])
    ),
}
# Each call that takes a Bloch vector, on the vector (trajectory's is in _BAD_TRAJECTORIES).
_STATE_TAKERS = {
    "state_to_density-vector": bloch.state_to_density,
    "expectation-vector": lambda v: bloch.expectation(_Z, v),
    "expectation-observable": lambda e: bloch.expectation(e, _Z),
    "measure_sample-vector": lambda v: bloch.measure_sample(_Z, v, rng_seed=1, shots=1),
    "measure_sample-observable": lambda e: bloch.measure_sample(e, _Z, rng_seed=1, shots=1),
    "rotate_state-vector": lambda v: bloch.rotate_state(np.eye(2), v),
    "rotate_observable-vector": lambda e: bloch.rotate_observable(np.eye(2), e),
    "rodrigues-vector": lambda v: bloch.rodrigues(_AXIS, 1.0, v),
    "evolve-vector": lambda v: pictures.evolve(_Z_SPEC, v, 1.0),
    "reversed_label_equivalence-vector": (
        lambda v: pictures.reversed_label_equivalence(_AXIS, 1.0, v, [0.0])
    ),
    "HaltingMachine-system": lambda v: halting.HaltingMachine(_AXIS, 1.0, v),
    "HaltingMachine-basis": lambda v: halting.HaltingMachine(_AXIS, 1.0, _Z, v),
    "self_reference-basis": lambda v: halting.self_reference(_AXIS, 1.0, v),
    "is_fixed_point-basis": lambda v: halting.is_fixed_point(_AXIS, 1.0, v),
}
_NOT_NUMBERS = {  # no matrix check takes these, though numpy reads "1" and b"1" as 1
    "text": [[1, 0], [0, "x"]],
    "text-number": [[1, 0], [0, "1"]],
    "bytes": [[b"1", 0], [0, 1]],
    "ragged": [[1, 0], [0]],
    "object": [[1, 0], [0, object()]],
}
_NOT_PURE_STATES = {
    "shape": (np.eye(3), "density matrix must be a finite 2x2 matrix"),
    "nan": ([[math.nan, 0], [0, 1]], "density matrix must be a finite 2x2 matrix"),
    "hermitian": ([[1, 0.5], [0, 0]], "density matrix must be Hermitian"),
    "trace": ([[1, 0], [0, 0.5]], f"density matrix trace {np.complex128(1.5)!r} must be 1"),
    "mixed": ([[0.5, 0], [0, 0.5]], "pure-state Bloch vector norm 0.0 deviates from 1 by 1"),
    **{case: (m, "density matrix must be a finite 2x2 matrix") for case, m in _NOT_NUMBERS.items()},
}
_NOT_UNITARY = {
    "2I": (2 * np.eye(2), "matrix is not unitary: row norms^2 4.0, 4.0, overlap 0.0"),
    "zeros": (np.zeros((2, 2)), "matrix is not unitary: row norms^2 0.0, 0.0, overlap 0.0"),
    "nan": ([[math.nan, 0], [0, 1]], "matrix is not unitary: row norms^2 nan, 1.0, overlap nan"),
    "3x3": (np.eye(3), "matrix must be 2x2, got shape (3, 3)"),
    "shear": ([[1, 1], [0, 1]], "matrix is not unitary: row norms^2 2.0, 1.0, overlap 1.0"),
    **{
        case: (u, f"matrix must be a 2x2 array of numbers, got {u!r}")
        for case, u in _NOT_NUMBERS.items()
    },
}
_TRANSPORTS = {
    "rotate_state": lambda u: bloch.rotate_state(u, _Z),
    "rotate_observable": lambda u: bloch.rotate_observable(u, _Z),
    "adjoint_rotation": bloch.adjoint_rotation,
}
_FAST_SPEC = pictures.EvolutionSpec(_AXIS, 1e300)  # rate * t overflows at |t| = 1e300
_NOT_AN_INT = "'float' object cannot be interpreted as an integer"
_NOT_REAL = "must be real number, not str"
_GRID = {"spec": _Z_SPEC, "vector": _Z, "t_start": 0.0, "t_end": 1.0, "steps": 3}
# Each rejected trajectory call: the arguments it changes in _GRID, the type and the message.
_BAD_TRAJECTORIES = {
    **{
        f"{end}-{label}": ({end: x}, ValueError, f"{end} must be finite")
        for end in ("t_start", "t_end")
        for label, x in _NONFINITE.items()
    },
    **{f"{end}-text": ({end: "1.5"}, TypeError, _NOT_REAL) for end in ("t_start", "t_end")},
    "trajectory-vector": (
        {"vector": (0, 0, 3)}, ValueError, "Bloch vector norm 3.0 deviates from 1 by 2"
    ),
    "steps": ({"steps": 1}, ValueError, "steps must be >= 2, got 1"),
    "steps-2.9": ({"steps": 2.9}, TypeError, _NOT_AN_INT),  # not truncated to a count
    **{  # each end finite
        case: (
            {"t_start": lo, "t_end": hi},
            ValueError,
            f"need t_start < t_end and a finite width, got [{lo}, {hi}]",
        )
        for case, lo, hi in (
            ("range", 1.0, 1.0),
            ("range-descending", 2.0, 1.0),
            ("range-width-overflows", -1e308, 1e308),
        )
    },
    **{  # rate * t overflows at either end of the grid
        f"trajectory-angle-at-{end}": (
            {"spec": _FAST_SPEC, "t_start": lo, "t_end": hi}, ValueError, "angle must be finite"
        )
        for end, lo, hi in (("t_start", -1e300, 0.0), ("t_end", 0.0, 1e300))
    },
}

# Every input the library rejects, one bad input a row: the call, the type it
# must raise and its message.  A ValueError's message names the input, word
# for word; a TypeError's is Python's own, so a row gives a fragment of it.
# Every check that takes a float or a matrix has a NaN row.  A row that calls
# trajectory draws no sample, so a check made only as samples are drawn fails.
_REJECTED = {
    **{
        f"{case}-{label}": (lambda call=call, x=x: call(x), ValueError, f"{name} must be finite")
        for case, (call, name) in _SCALARS.items()
        for label, x in _NONFINITE.items()
    },
    **{  # a number written as a string is not a real number, as for vector components
        f"{case}-text": (lambda call=call: call("1.5"), TypeError, _NOT_REAL)
        for case, (call, _) in _SCALARS.items()
    },
    **{
        f"{check.__name__}-{label}": (lambda c=check, v=v: c(v), ValueError, f"{noun} {end}")
        for check, noun in _VECTOR_CHECKS.items()
        for label, (v, end) in _NOT_VECTORS.items()
    },
    **{
        f"{check.__name__}-{label}": (lambda c=check, v=v: c(v), ValueError, f"{noun} {end}")
        for check, noun in ((su2.unit_axis, "axis"), (bloch.bloch_vector, "Bloch vector"))
        for label, (v, end) in _OFF_UNIT.items()
    },
    "normalized-zero": (
        lambda: bloch.normalized((0, 0, 0)), ValueError, "zero vector has no direction"
    ),
    **{
        f"{case}-axis": (
            lambda c=call: c((0.0, 0.5, 0.0)), ValueError, "axis norm 0.5 deviates from 1 by 0.5"
        )
        for case, call in _AXIS_TAKERS.items()
    },
    **{
        case: (
            lambda c=call: c((0, 0, 3)), ValueError, "Bloch vector norm 3.0 deviates from 1 by 2"
        )
        for case, call in _STATE_TAKERS.items()
    },
    "self_reference-axis-first": (
        lambda: halting.self_reference((2.0, 0.0, 0.0), math.inf, (0, 0, 3)),
        ValueError,
        "axis norm 2.0 deviates from 1 by 1",
    ),
    **{
        f"density-{case}": (lambda m=m: bloch.density_to_state(m), ValueError, message)
        for case, (m, message) in _NOT_PURE_STATES.items()
    },
    **{
        f"{transport}-{case}": (lambda call=call, u=u: call(u), ValueError, message)
        for transport, call in _TRANSPORTS.items()
        for case, (u, message) in _NOT_UNITARY.items()
    },
    "shots": (
        lambda: bloch.measure_sample(_Z, _Z, rng_seed=1, shots=0),
        ValueError,
        "shots must be >= 1, got 0",
    ),
    **{  # 2**60 float64 draws would take 2**63 bytes, past numpy's largest array
        f"shots-{label}": (
            lambda shots=shots: bloch.measure_sample(_Z, _Z, rng_seed=1, shots=shots),
            ValueError,
            f"shots must be <= {2**60 - 1}, got {shots}",
        )
        for label, shots in (("2**60", 2**60), ("2**63", 2**63))
    },
    **{
        f"shots-{shots}": (
            lambda shots=shots: bloch.measure_sample(_Z, _Z, rng_seed=1, shots=shots),
            TypeError,
            _NOT_AN_INT,
        )
        for shots in (2.5, 0.5)
    },
    "rng_seed": (
        lambda: bloch.measure_sample(_Z, _Z, rng_seed=-1, shots=1),
        ValueError,
        "rng_seed must be >= 0, got -1",
    ),
    **{
        f"rng_seed-{seed}": (
            lambda seed=seed: bloch.measure_sample(_Z, _Z, rng_seed=seed, shots=1),
            TypeError,
            _NOT_AN_INT,
        )
        for seed in (1.5, math.nan)
    },
    "EvolutionSpec-picture": (
        lambda: pictures.EvolutionSpec(_AXIS, 1.0, "schrodinger"),
        ValueError,
        "picture must be a Picture, got 'schrodinger'",
    ),
    "evolve-angle": (  # finite t, but rate * t overflows
        lambda: pictures.evolve(_FAST_SPEC, _Z, 1e300), ValueError, "angle must be finite"
    ),
    **{  # the CLI writes _rows, not trajectory, so each row is made on both
        prefix + case: (lambda s=sample, a=args: s(**{**_GRID, **a}), kind, message)
        for prefix, sample in (("", pictures.trajectory), ("_rows-", pictures._rows))
        for case, (args, kind, message) in _BAD_TRAJECTORIES.items()
    },
    "grid": (
        lambda: pictures.reversed_label_equivalence(_AXIS, 1.0, _Z, []),
        ValueError,
        "time grid must be non-empty",
    ),
    "picture": (
        lambda: halting.run(_Z_MACHINE, pictures.Picture.HEISENBERG_REVERSED),
        ValueError,
        "halting machine supports schrodinger and heisenberg only,"
        " got <Picture.HEISENBERG_REVERSED: 'heisenberg-reversed'>",
    ),
    "picture-text": (
        lambda: halting.run(_Z_MACHINE, "schrodinger"),
        ValueError,
        "halting machine supports schrodinger and heisenberg only, got 'schrodinger'",
    ),
    **{
        f"tol-{label}": (
            lambda tol=tol: halting.is_fixed_point(_AXIS, 1.0, _Z, tol=tol),
            ValueError,
            f"tol must be positive and finite, got {tol}",
        )
        for label, tol in {"0.0": 0.0, "-1.0": -1.0, **_NONFINITE}.items()
    },
    "tol-text": (lambda: halting.is_fixed_point(_AXIS, 1.0, _Z, tol="1.5"), TypeError, _NOT_REAL),
}


@pytest.mark.parametrize("case", _REJECTED)
def test_every_rejected_input_raises_its_exact_error(case):
    call, kind, message = _REJECTED[case]
    with pytest.raises(kind) as excinfo:
        call()
    assert excinfo.type is kind  # the type itself, no subclass
    if kind is ValueError:
        assert str(excinfo.value) == message
    else:
        assert message in str(excinfo.value)


_SPEC = pictures.EvolutionSpec(np.array([0, 1, 0]), 2, pictures.Picture.HEISENBERG)
_MACHINE = halting.HaltingMachine(np.array([0, 1, 0]), 1, [0, 0, 1])
_VECTORS = {
    "su2.unit_axis": lambda: su2.unit_axis(np.array([0, 0, 1])),
    "bloch.bloch_vector": lambda: bloch.bloch_vector([0, 1, 0]),
    "bloch.normalized": lambda: bloch.normalized(np.array([3.0, 0.0, 4.0])),
    "bloch.density_to_state": lambda: bloch.density_to_state(np.diag([1.0, 0.0])),
    "bloch.rotate_state": lambda: bloch.rotate_state(np.eye(2), [1, 0, 0]),
    "bloch.rotate_observable": lambda: bloch.rotate_observable(su2.SIGMA_X, np.array([0, 0, 1])),
    "bloch.random_unit_vector": lambda: bloch.random_unit_vector(np.random.default_rng(8)),
    "bloch.rodrigues": lambda: bloch.rodrigues(np.array([0, 0, 1]), 1, [1, 0, 0]),
    "pictures.EvolutionSpec.axis": lambda: _SPEC.axis,
    "pictures.evolve": lambda: pictures.evolve(_SPEC, np.array([1, 0, 0]), 1),
    "pictures.TrajectorySample.vector": lambda: next(
        pictures.trajectory(_SPEC, [1, 0, 0], 0, 1, 2)
    ).vector,
    "halting.HALT_POLE": lambda: halting.HALT_POLE,
    **{
        f"halting.HaltingMachine.{f}": (lambda f=f: getattr(_MACHINE, f))
        for f in ("axis", "system", "system_basis", "halt", "halt_basis")
    },
    **{
        f"halting.RunReport.{f}({picture.value})": (
            lambda f=f, picture=picture: getattr(halting.run(_MACHINE, picture), f)
        )
        for picture in (pictures.Picture.SCHRODINGER, pictures.Picture.HEISENBERG)
        for f in halting.RunReport._fields
        if f.endswith("_out")
    },
    **{
        f"halting.SelfRefReport.{f}": (
            lambda f=f: getattr(halting.self_reference(np.array([0, 1, 0]), 1, [0, 0, 1]), f)
        )
        for f in ("schrodinger_output", "heisenberg_output")
    },
}


@pytest.mark.parametrize("name", sorted(_VECTORS))
def test_every_public_vector_is_a_float_triple(name):
    # su2 and bloch export the kernel's validators, the objects that every
    # module calls, so a tracer that patches by identity counts every call.
    assert su2.unit_axis is _kernel.unit_axis
    assert bloch.bloch_vector is _kernel.bloch_vector
    assert bloch.normalized is _kernel.normalized
    vector = _VECTORS[name]()
    assert type(vector) is tuple and len(vector) == 3, vector
    assert all(type(c) is float for c in vector), vector


# ------------------------------------------- the validators on repeated input

_VALIDATORS = [(su2.unit_axis, "axis"), (bloch.bloch_vector, "Bloch vector")]
_VALIDATOR_IDS = ["unit_axis", "bloch_vector"]


@pytest.mark.parametrize("validate, noun", _VALIDATORS, ids=_VALIDATOR_IDS)
@pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
def test_a_vector_changed_in_place_is_checked_again(validate, noun, make):
    vector = make([1.0, 0.0, 0.0])
    assert validate(vector) == (1.0, 0.0, 0.0)
    vector[0] = 2.0
    with pytest.raises(ValueError, match=f"^{noun} norm 2.0 deviates from 1"):
        validate(vector)


@pytest.mark.parametrize("validate, noun", _VALIDATORS, ids=_VALIDATOR_IDS)
def test_a_tuple_normalized_accepts_is_still_rejected_by_the_validators(validate, noun):
    long = (2.0, 0.0, 0.0)
    assert bloch.normalized(long) == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=f"^{noun} norm 2.0 deviates from 1"):
        validate(long)


@pytest.mark.parametrize("validate, noun", _VALIDATORS, ids=_VALIDATOR_IDS)
@pytest.mark.parametrize("bad", [(2.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (0.0, 0.0, 0.0)])
def test_an_invalid_tuple_raises_on_every_call(validate, noun, bad):
    for _ in range(3):
        with pytest.raises(ValueError, match=f"^{noun} (norm|components must be finite)"):
            validate(bad)


@pytest.mark.parametrize("validate", [su2.unit_axis, bloch.bloch_vector], ids=_VALIDATOR_IDS)
@pytest.mark.parametrize("one", [Fraction(1), np.float64(1.0)], ids=["Fraction", "float64"])
def test_a_tuple_of_other_reals_still_validates(validate, one):
    vector = (0.0, one, 0.0)
    for _ in range(2):
        unit = validate(vector)
        assert unit == (0.0, 1.0, 0.0) and all(type(c) is float for c in unit)


def _near_unit_tuples(seed, n):
    rng = np.random.default_rng(seed)
    for v in rng.normal(size=(n, 3)):
        scale = 1.0 + rng.uniform(-1e-7, 1e-7)
        yield tuple((v / np.linalg.norm(v) * scale).tolist())


@pytest.mark.parametrize("validate, noun", _VALIDATORS, ids=_VALIDATOR_IDS)
def test_a_repeated_call_returns_the_bits_of_a_fresh_check(validate, noun):
    for v in _near_unit_tuples(90, 10_000):
        first, again = validate(v), validate(v)
        fresh = _kernel._unit3(v, noun, _kernel.NORM_SLACK)
        assert _bits(first).tolist() == _bits(again).tolist() == _bits(fresh).tolist(), v


_SUBNORMAL = 2.0**-1022  # components below this take normalized's rescale branch
_ordinary = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
_near_unit = st.tuples(
    _ordinary.filter(lambda v: math.hypot(*v) > 1e-3),
    st.floats(-0.9 * _kernel.NORM_SLACK, 0.9 * _kernel.NORM_SLACK),
).map(lambda vs: tuple(c / math.hypot(*vs[0]) * (1.0 + vs[1]) for c in vs[0]))
_huge = st.tuples(*[st.floats(1e300, 1.7e308) | st.floats(-1.7e308, -1e300) | st.just(0.0)] * 3)
_subnormal = st.tuples(*[st.floats(-_SUBNORMAL, _SUBNORMAL)] * 3)


def _scaled_by_ulps(direction, k):
    """direction scaled to norm 1 + k ulps (2**-52 above 1, 2**-53 below)."""
    scale = 1.0 + k * 2.0 ** (-52 - (k < 0))
    return tuple(c / math.hypot(*direction) * scale for c in direction)


# Norms within 4 ulps of 1, either side of where _unit3's fast path ends.
_ulps_from_unit = st.builds(
    _scaled_by_ulps, _ordinary.filter(lambda v: math.hypot(*v) > 1e-3), st.integers(-6, 6)
).filter(lambda v: -4 * 2.0**-53 <= math.hypot(*v) - 1.0 <= 4 * 2.0**-52)


@settings(max_examples=500, deadline=None)
@given((_ordinary | _near_unit | _huge | _subnormal | _ulps_from_unit).filter(any))
def test_a_checked_vector_is_a_fixed_point_of_every_validator(raw):
    # Whatever vector one validator returns, each of the three returns again
    # as the same object, so a second check never has to be counted.
    validators = (_kernel.unit_axis, _kernel.bloch_vector, _kernel.normalized)
    checked = []
    for validate in validators:
        with contextlib.suppress(ValueError):  # only normalized takes any length
            checked.append(validate(raw))
    assert checked
    for vector in checked:
        for validate in validators:
            assert validate(vector) is vector, (raw, validate)


_Triple = namedtuple("_Triple", "x y z")


def _outcome(validate, vector):
    """The bits validate returns for vector, or the message it raises."""
    try:
        return _bits(validate(vector)).tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_ordinary | _near_unit | _huge | _subnormal | _ulps_from_unit)
def test_every_container_gives_the_outcome_of_a_plain_float_triple(raw):
    # A plain float tuple within one ulp of unit norm comes back as it is; a
    # tuple subclass, a list and an array take the general path, which must
    # agree bit for bit and message for message.
    for validate in (_kernel.unit_axis, _kernel.bloch_vector, _kernel.normalized):
        expected = _outcome(validate, raw)
        for make in (_Triple._make, list, np.array):
            assert _outcome(validate, make(raw)) == expected, (raw, validate, make)


def test_none_is_rejected_in_a_fresh_interpreter():
    # A validator that kept state between calls could answer None from its
    # initial state, before it had checked anything; a fresh process has
    # nothing cached.
    code = textwrap.dedent(
        """
        from dualbloch.bloch import bloch_vector
        from dualbloch.pictures import EvolutionSpec
        from dualbloch.su2 import unit_axis
        for call, noun in ((unit_axis, "axis"), (bloch_vector, "Bloch vector"),
                           (EvolutionSpec, "axis")):
            try:
                call(None)
            except ValueError as exc:
                assert str(exc).startswith(f"{noun} must be a 3-vector"), exc
            else:
                raise SystemExit(f"{call.__name__}(None) did not raise")
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()


# ------------------------------------------------- self_reference's rotation

_directions = st.sampled_from(CORNERS) | _near_unit
_angles = (
    st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2, 5e-324, -5e-324, 2.0**-1030])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(10**6), 10**6)
    | st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6)
    | st.floats(-1e3, 1e3).map(np.float64)
)


def _outputs_bits(schrodinger, heisenberg) -> bytes:
    return struct.pack("6d", *schrodinger, *heisenberg)


def _fresh_outputs_bits(axis, angle, basis) -> bytes:
    """The bits of self_reference's two outputs, from a rotation built afresh."""
    r = bloch._rotation_of(su2.make_unitary(axis, float(angle)))
    basis = bloch.bloch_vector(basis)
    return _outputs_bits(_kernel._transport(r, basis, False), _kernel._transport(r, basis, True))


@settings(max_examples=300, deadline=None)
@given(axis=_directions, angle=_angles, basis=_directions)
@example(axis=(1.0, 0.0, -0.0), angle=0.0, basis=(1.0, -0.0, 0.0))
def test_self_reference_returns_the_bits_of_a_rotation_built_afresh(axis, angle, basis):
    # With every zero made +0.0 first: a memo keyed on ==, where -0.0 == 0.0,
    # would hand the drawn signs the +0.0 matrix, whose bits can differ.
    plus = (tuple(c if c else 0.0 for c in axis), angle if angle else 0.0)
    for axis, angle in (plus, (axis, angle)):
        fresh = _fresh_outputs_bits(axis, angle, basis)
        for _ in range(2):  # a first call, then a repeated one
            report = halting.self_reference(axis, angle, basis)
            assert _outputs_bits(report.schrodinger_output, report.heisenberg_output) == fresh


@settings(max_examples=300, deadline=None)
@given(axis=_directions, angle=_angles, basis=_directions)
@example(axis=(0.0, -0.0, -1.0), angle=-0.0, basis=(-0.0, 1.0, 0.0))
@example(axis=(-1.0, 0.0, -0.0), angle=5e-324, basis=(0.0, -0.0, -1.0))
def test_a_given_rotation_gives_the_bits_of_none(axis, angle, basis):
    r = _kernel._axis_rotation(su2.unit_axis(axis), _kernel._finite(angle, "angle"))
    plain = halting.self_reference(axis, angle, basis)
    given = halting.self_reference(axis, angle, basis, rotation=r)
    bits = [
        _outputs_bits(report.schrodinger_output, report.heisenberg_output)
        + struct.pack("d", report.discrepancy_angle)
        for report in (plain, given)
    ]
    assert bits[0] == bits[1]


@pytest.mark.parametrize("delta_steps", [2, 7])
def test_a_sweep_builds_each_delta_rotation_once(monkeypatch, delta_steps):
    # The sweep builds each column's R, and self_reference uses it as given.
    built = {cli: [], halting: []}
    rotation = _kernel._axis_rotation
    for module, calls in built.items():
        monkeypatch.setattr(
            module, "_axis_rotation", lambda *u, c=calls: c.append(u) or rotation(*u)
        )
    argv = ["self-ref-sweep", "--theta-steps", "3", "--delta-steps", str(delta_steps)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (len(built[cli]), len(built[halting])) == (delta_steps, 0)


def test_the_kernel_holds_no_state():
    # Nothing in the kernel or in halting outlives a call.
    mutable = (dict, list, set, type(threading.Lock()), type(threading.RLock()))
    for module in (_kernel, halting):
        names = {k: v for k, v in vars(module).items() if not k.startswith("__")}
        assert [k for k, v in names.items() if isinstance(v, mutable)] == [], module
        assert [k for k, v in names.items() if v is _thread or v is struct] == [], module


# ------------------------------------------------------ the axis-angle kernel

_TINY = [5e-324, 2.0**-1022, 1e-300, 1e-17]
_ZEROS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022)])
_kernel_axes = st.one_of(
    st.builds(  # a coordinate axis whose zeros are signed or subnormal
        lambda i, one, zeros: (*zeros[:i], one, *zeros[i:]),
        st.integers(0, 2),
        st.sampled_from([1.0, -1.0]),
        st.tuples(_ZEROS, _ZEROS),
    ),
    _near_unit,
).map(su2.unit_axis)
_kernel_angles = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, *_TINY, *(-t for t in _TINY)]),
    st.integers(-(10**6), 10**6).map(lambda k: k * math.pi),
    st.integers(-64, 64).map(lambda k: k * math.pi / 4),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=1000, deadline=None)
@given(axis=_kernel_axes, angle=_kernel_angles)
@example(axis=(0.0, 1.0, -0.0), angle=-0.0)
@example(axis=(-1.0, 5e-324, -0.0), angle=math.pi)
def test_axis_rotation_has_the_bits_of_the_rotation_of_the_entries(axis, angle):
    # struct.pack, not ==, so signs of zero count: _rotation_of's mirror
    # property, and with it time reversal, carries over bit for bit.
    want = struct.pack("9d", *bloch._rotation_of(su2.make_unitary(axis, angle)))
    assert struct.pack("9d", *_kernel._axis_rotation(axis, angle)) == want


def _unit_quaternion(q):
    norm = math.hypot(*q)
    return tuple(x / norm for x in q)


# Each component signed zero, subnormal, tiny or ordinary, then the whole scaled to unit norm.
_quaternions = (
    st.tuples(*[_ZEROS | st.floats(-1e-300, 1e-300) | st.floats(-1.0, 1.0)] * 4)
    .filter(lambda q: math.hypot(*q) > 1e-300)
    .map(_unit_quaternion)
)


@settings(max_examples=1000, deadline=None)
@given(q=_quaternions)
@example(q=(1.0, -0.0, 0.0, -0.0))
@example(q=(-0.0, 5e-324, -1.0, -(2.0**-1022)))
def test_quaternion_rotation_has_the_bits_of_the_rotation_of_its_su2_matrix(q):
    # Any SU(2) matrix, not only make_unitary's: equiv-check builds each R
    # from a Haar draw's entries this way.  struct.pack, so signs of zero count.
    ar, ai, br, bi = q
    alpha, beta = complex(ar, ai), complex(br, bi)
    want = bloch._rotation_of([[alpha, beta], [-beta.conjugate(), alpha.conjugate()]])
    got = _kernel._quaternion_rotation(alpha.real, -beta.imag, -beta.real, -alpha.imag)
    assert struct.pack("9d", *got) == struct.pack("9d", *want)


# ---------------------------------------------------- time reversal, bit for bit

_LIBM = "time reversal is bit for bit only where libm's cos is even and its sin odd"
_times = st.sampled_from([0.0, -0.0]) | st.floats(-1e12, 1e12)


@settings(max_examples=500, deadline=None)
@given(axis=_directions, rate=st.floats(-10.0, 10.0), vector=_directions, t=_times)
@example(axis=(1.0, 0.0, -0.0), rate=1.0, vector=(1.0, 0.0, -0.0), t=0.0)  # exact zeros out
def test_heisenberg_at_minus_t_has_the_bits_of_schrodinger_at_t(axis, rate, vector, t):
    # The paper's closing claim: the Heisenberg picture run backwards in time
    # is the observer's frame.  struct.pack, not ==, so signs of zero count.
    heisenberg = pictures.EvolutionSpec(axis, rate, pictures.Picture.HEISENBERG)
    schrodinger = pictures.EvolutionSpec(axis, rate, pictures.Picture.SCHRODINGER)
    backward = pictures.evolve(heisenberg, vector, -t)
    assert bits(backward) == bits(pictures.evolve(schrodinger, vector, t)), _LIBM


@settings(max_examples=500, deadline=None)
@given(axis=_directions, delta=_times, basis=_directions)
@example(axis=(-1.0, 0.0, -0.0), delta=0.0, basis=(0.0, -0.0, 1.0))  # exact zeros out
def test_self_reference_at_minus_delta_swaps_its_outputs_bit_for_bit(axis, delta, basis):
    forward = halting.self_reference(axis, delta, basis)
    backward = halting.self_reference(axis, -delta, basis)
    assert bits(backward.heisenberg_output) == bits(forward.schrodinger_output), _LIBM
    assert bits(backward.schrodinger_output) == bits(forward.heisenberg_output), _LIBM
    gaps = (backward.discrepancy_angle, forward.discrepancy_angle)
    assert struct.pack("d", gaps[0]) == struct.pack("d", gaps[1]), _LIBM
