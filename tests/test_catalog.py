"""The catalog's circle oracles evaluate cos u and sin u once per grid, and
never hand back the values of a grid that has changed since."""

import math

import numpy as np
import pytest

from ruledgeom import catalog

SURFACES = {
    "cone": lambda: catalog.cone(math.pi / 4, (0.0, 3.0), 101),
    "small_circle": lambda: catalog.small_circle(math.pi / 6, 1.5, (0.0, 3.0),
                                                 101),
    "helicoid": lambda: catalog.helicoid(0.4, (0.0, 3.0), 101),
}
ORACLES = ("director", "director_d1", "director_d2", "base", "base_d1",
           "base_d2")


def oracles(spec):
    return [getattr(spec, name) for name in ORACLES]


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_same_values(spec, u):
    """Every oracle of spec at u equals that of a fresh spec, bit for bit."""
    fresh = SURFACES[spec.name.split("(")[0]]()
    for got, want in zip(oracles(spec), oracles(fresh)):
        assert np.array_equal(bits(got(u)), bits(want(u)))


@pytest.fixture
def trig_calls(monkeypatch):
    """The cos and sin evaluations made while the test runs."""
    made = []
    for name in ("cos", "sin"):
        fn = getattr(np, name)

        def counted(x, *args, fn=fn, name=name, **kwargs):
            made.append(name)
            return fn(x, *args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    return made


@pytest.mark.parametrize("name", list(SURFACES))
def test_trig_is_evaluated_once_per_grid(name, trig_calls):
    spec = SURFACES[name]()
    u = np.linspace(0.0, 3.0, 101)
    trig_calls.clear()          # the cone's sin(alpha), cos(alpha)
    for fn in oracles(spec):
        fn(u)
    assert sorted(trig_calls) == ["cos", "sin"]
    for fn in oracles(spec):
        fn(u.copy())            # the same grid, another array
    assert sorted(trig_calls) == ["cos", "sin"]
    spec.director(u[::2])
    assert sorted(trig_calls) == ["cos", "cos", "sin", "sin"]


@pytest.mark.parametrize("name", list(SURFACES))
def test_a_grid_changed_in_place_is_evaluated_again(name):
    spec = SURFACES[name]()
    u = np.linspace(0.0, 3.0, 101)
    assert_same_values(spec, u)
    u[40] = 7.25
    assert_same_values(spec, u)
    u[0] = -0.0                 # equal to 0.0, but sin(-0.0) is -0.0
    assert_same_values(spec, u)


def test_the_shared_values_are_read_only():
    oracle = catalog._trig_oracles()
    u = np.linspace(0.0, 3.0, 101)
    for values in (oracle(lambda u, cos, sin: (cos, sin))(u),
                   oracle(lambda u, cos, sin: (cos, sin))(0.5)):
        for x in values:
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 1.0
