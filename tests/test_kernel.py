import numpy as np
import pytest

from dualbloch._kernel import _linspace


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
        assert np.array_equal(_bits(_linspace(start, stop, num)), _bits(want)), (start, stop, num)
    assert zero_steps > 100  # the divide-first branch ran


@pytest.mark.parametrize(
    "start, stop, num",
    [(0.0, 5e-324, 3), (0.0, 1.0, 2), (-3.0, -1.0, 5), (2.0, -2.0, 4), (-0.0, 1.0, 3)],
)
def test_linspace_named_cases(start, stop, num):
    got = _linspace(start, stop, num)
    assert np.array_equal(_bits(got), _bits(np.linspace(start, stop, num)))
    assert got[-1] == stop and len(got) == num

