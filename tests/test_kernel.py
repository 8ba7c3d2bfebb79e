import contextlib
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbloch import _kernel, bloch, halting, pictures, su2
from dualbloch._kernel import _linspace
from helpers import cli_env


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


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: su2.unit_axis([_HUGE, 0, 0]), su2.AxisNotUnitError),
        (lambda: su2.make_unitary(_AXIS, _HUGE), ValueError),
        (lambda: pictures.EvolutionSpec(_AXIS, rate=_HUGE), ValueError),
        (lambda: halting.HaltingMachine(_AXIS, _HUGE, (0.0, 0.0, 1.0)), ValueError),
        (lambda: pictures.evolve(pictures.EvolutionSpec(_AXIS), (0, 0, 1), _HUGE), ValueError),
        (
            lambda: pictures.trajectory(pictures.EvolutionSpec(_AXIS), (0, 0, 1), 0, _HUGE, 3),
            pictures.BadRangeError,
        ),
        (lambda: pictures.reversed_label_equivalence(_AXIS, 1.0, (0, 0, 1), [_HUGE]), ValueError),
        (lambda: bloch.rodrigues(_AXIS, _HUGE, (0, 0, 1)), ValueError),
    ],
    ids=[
        "unit_axis",
        "make_unitary",
        "EvolutionSpec",
        "HaltingMachine",
        "evolve",
        "trajectory",
        "reversed_label_equivalence",
        "rodrigues",
    ],
)
def test_huge_integers_raise_the_validators_error(call, error):
    with pytest.raises(error, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: su2.make_unitary(_AXIS, "1.5"),
        lambda: pictures.EvolutionSpec(_AXIS, rate="1.5"),
        lambda: halting.HaltingMachine(_AXIS, "1.5", (0.0, 0.0, 1.0)),
        lambda: pictures.evolve(pictures.EvolutionSpec(_AXIS), (0, 0, 1), "1.5"),
    ],
    ids=["make_unitary", "EvolutionSpec", "HaltingMachine", "evolve"],
)
def test_a_number_written_as_a_string_is_not_a_real_number(call):
    # As for vector components: a scalar must be a real number, not text.
    with pytest.raises(TypeError):
        call()


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

_VALIDATORS = [(su2.unit_axis, su2.AxisNotUnitError), (bloch.bloch_vector, ValueError)]
_VALIDATOR_IDS = ["unit_axis", "bloch_vector"]


@pytest.mark.parametrize("validate, error", _VALIDATORS, ids=_VALIDATOR_IDS)
@pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
def test_a_vector_changed_in_place_is_checked_again(validate, error, make):
    vector = make([1.0, 0.0, 0.0])
    assert validate(vector) == (1.0, 0.0, 0.0)
    vector[0] = 2.0
    with pytest.raises(error, match="deviates from 1"):
        validate(vector)


@pytest.mark.parametrize("validate, error", _VALIDATORS, ids=_VALIDATOR_IDS)
def test_a_tuple_normalized_accepts_is_still_rejected_by_the_validators(validate, error):
    long = (2.0, 0.0, 0.0)
    assert bloch.normalized(long) == (1.0, 0.0, 0.0)
    with pytest.raises(error, match="deviates from 1"):
        validate(long)


@pytest.mark.parametrize("validate, error", _VALIDATORS, ids=_VALIDATOR_IDS)
@pytest.mark.parametrize("bad", [(2.0, 0.0, 0.0), (math.nan, 0.0, 1.0), (0.0, 0.0, 0.0)])
def test_an_invalid_tuple_raises_on_every_call(validate, error, bad):
    for _ in range(3):
        with pytest.raises(error):
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


@pytest.mark.parametrize("validate, error", _VALIDATORS, ids=_VALIDATOR_IDS)
def test_a_repeated_call_returns_the_bits_of_a_fresh_check(validate, error):
    name = "axis" if validate is su2.unit_axis else "Bloch vector"
    for v in _near_unit_tuples(90, 10_000):
        first, again = validate(v), validate(v)
        fresh = _kernel._unit3(v, name, error, _kernel.NORM_SLACK)
        assert _bits(first).tolist() == _bits(again).tolist() == _bits(fresh).tolist(), v


_SUBNORMAL = 2.0**-1022  # components below this take normalized's rescale branch
_ordinary = st.tuples(*[st.floats(-1e3, 1e3)] * 3)
_near_unit = st.tuples(
    _ordinary.filter(lambda v: math.hypot(*v) > 1e-3),
    st.floats(-0.9 * _kernel.NORM_SLACK, 0.9 * _kernel.NORM_SLACK),
).map(lambda vs: tuple(c / math.hypot(*vs[0]) * (1.0 + vs[1]) for c in vs[0]))
_huge = st.tuples(*[st.floats(1e300, 1.7e308) | st.floats(-1.7e308, -1e300) | st.just(0.0)] * 3)
_subnormal = st.tuples(*[st.floats(-_SUBNORMAL, _SUBNORMAL)] * 3)


@settings(max_examples=500, deadline=None)
@given((_ordinary | _near_unit | _huge | _subnormal).filter(any))
def test_a_checked_vector_is_a_fixed_point_of_every_validator(raw):
    # Whatever vector one validator returns, each of the three returns again
    # bit for bit, so a second check never has to be counted.
    validators = (_kernel.unit_axis, _kernel.bloch_vector, _kernel.normalized)
    checked = []
    for validate in validators:
        with contextlib.suppress(ValueError):  # only normalized takes any length
            checked.append(validate(raw))
    assert checked
    for vector in checked:
        for validate in validators:
            assert _bits(validate(vector)).tolist() == _bits(vector).tolist(), (raw, validate)


def test_none_is_rejected_in_a_fresh_interpreter():
    # A validator that kept state between calls could answer None from its
    # initial state, before it had checked anything; a fresh process has
    # nothing cached.
    code = textwrap.dedent(
        """
        from dualbloch.bloch import bloch_vector
        from dualbloch.pictures import EvolutionSpec
        from dualbloch.su2 import AxisNotUnitError, unit_axis
        for call, error in ((unit_axis, AxisNotUnitError), (bloch_vector, ValueError),
                            (EvolutionSpec, AxisNotUnitError)):
            try:
                call(None)
            except error as exc:
                assert "must be a 3-vector" in str(exc), exc
            else:
                raise SystemExit(f"{call.__name__}(None) did not raise")
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
