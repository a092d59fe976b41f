"""Property: the 3-vector kernels equal numpy bit for bit.

cross3, dot3 and norm3 replace np.cross, np.sum(u * v, axis=0) and
np.linalg.norm(u, axis=0) on every hot path, over (3,) vectors and
component-major (3, n) batches, so any difference would change emitted
bytes.  Results are compared as int64 bit patterns, which tells -0.0 from
+0.0 and one NaN from another.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ruledgeom
from ruledgeom import catalog
from ruledgeom.dual import cross3, dot3, norm3
from ruledgeom.surface import analyze, sampled_surface

EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, -1e-310, 1e308, -1e308, 1.0, -1.0]

cells = st.one_of(st.sampled_from(EDGE_VALUES),
                  st.floats(allow_nan=True, allow_infinity=True,
                            allow_subnormal=True))
# "fortran" is the transposed view of an (n, 3) row-major array.
LAYOUTS = ("contiguous", "sample_stride", "component_stride", "fortran")


def laid_out(a: np.ndarray, layout: str) -> np.ndarray:
    """A view with a's values in the given memory layout."""
    if layout == "contiguous":
        return a
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "sample_stride" and a.ndim == 2:
        out = np.full((3, 2 * a.shape[1]), 7.0)   # every other sample
        out[:, ::2] = a
        return out[:, ::2]
    out = np.full((6,) + a.shape[1:], 7.0)       # every other component
    out[::2] = a
    return out[::2]


# Operand shapes: one vector, a batch, and a one-vector batch against a
# batch.
pairs = st.integers(1, 9).flatmap(lambda n: st.sampled_from(
    [((3,), (3,)), ((3, n), (3, n)), ((3, 1), (3, n)),
     ((3, n), (3, 1))])).flatmap(
    lambda shapes: st.tuples(arrays(np.float64, shapes[0], elements=cells),
                             arrays(np.float64, shapes[1], elements=cells),
                             st.sampled_from(LAYOUTS),
                             st.sampled_from(LAYOUTS)))


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (got, want)


# -0.0 * 1.0 summed three times: a plain a*b sum gives -0.0, np.sum +0.0.
NEG_ZERO_ROW = (np.array([[-0.0], [-0.0], [-0.0]]),
                np.array([[1.0], [1.0], [1.0]]), "contiguous", "contiguous")


@settings(deadline=None, max_examples=300)
@given(case=pairs)
@example(case=NEG_ZERO_ROW)
@example(case=(NEG_ZERO_ROW[0][:, 0], NEG_ZERO_ROW[1][:, 0], "contiguous",
               "component_stride"))
@example(case=(*NEG_ZERO_ROW[:2], "fortran", "sample_stride"))
@example(case=(np.full((3, 2), -0.0), np.ones((3, 2)), "contiguous",
               "contiguous"))   # two vectors: the elementwise-add path
# 0*inf is a NaN of the other sign than nan: the sum must pass on the same
# one as numpy, for one vector and for a batch of one vector.
@example(case=(np.zeros(3), np.array([np.inf, np.nan, np.nan]),
               "contiguous", "contiguous"))
@example(case=(np.zeros((3, 1)), np.array([[np.inf], [np.nan], [np.nan]]),
               "contiguous", "contiguous"))
def test_kernels_equal_numpy_bitwise(case):
    a, b, layout_a, layout_b = case
    a, b = laid_out(a, layout_a), laid_out(b, layout_b)
    with np.errstate(all="ignore"):
        assert_bitwise(cross3(a, b), np.cross(a, b, axis=0))
        assert_bitwise(dot3(a, b), np.sum(a * b, axis=0))
        assert_bitwise(norm3(a), np.linalg.norm(a, axis=0))
        assert_bitwise(norm3(b), np.linalg.norm(b, axis=0))


def test_kernels_equal_numpy_bitwise_on_random_rows():
    """Finite vectors of mixed magnitude, where summing in another order
    would round differently."""
    rng = np.random.default_rng(7)
    a, b = (rng.normal(size=(3, 2000)) * 10.0 ** rng.integers(-8, 8, (3, 2000))
            for _ in range(2))
    for u, v in ((a, b), (a[:, ::2], b[:, 1::2]), (a[:, :1], b),
                 (np.asfortranarray(a), b)):
        assert_bitwise(cross3(u, v), np.cross(u, v, axis=0))
        assert_bitwise(dot3(u, v), np.sum(u * v, axis=0))
        assert_bitwise(norm3(u), np.linalg.norm(u, axis=0))


SURFACES = [
    catalog.hyperbolic_paraboloid((-1.0, 1.0), 201),
    catalog.cone(0.6, (0.0, 5.0), 201),
    catalog.small_circle(0.4, 1.5, (0.0, 5.0), 201),
    catalog.helicoid(0.7, (0.0, 5.0), 201),
]


@pytest.mark.parametrize("spec", SURFACES, ids=lambda s: s.name)
def test_dual_frame_moments_equal_np_cross(spec):
    a = analyze(spec)
    for vec, moment in zip((a.e, a.t, a.g), a.dual_frame()):
        assert moment.real is vec
        assert_bitwise(moment.dual, np.cross(a.c, vec, axis=0))
    b = analyze(sampled_surface(a.u, a.e.T, a.c.T))
    for vec, moment in zip((b.e, b.t, b.g), b.dual_frame()):
        assert_bitwise(moment.dual, np.cross(b.c, vec, axis=0))


def test_package_uses_no_copying_generic_kernels():
    """np.cross copies both inputs and np.linalg.norm builds x*x through a
    generic reduction; the package uses cross3 and norm3 instead."""
    src = Path(ruledgeom.__file__).parent
    found = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "np.cross(" in line or "np.linalg.norm(" in line]
    assert found == []
