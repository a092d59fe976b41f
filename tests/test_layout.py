"""Component-major storage: every per-sample vector field is (3, n).

The analysis, the constructed offset and the dual Darboux axis store each
vector field as a C-contiguous, read-only (3, n) array, one row per
coordinate, while the public curve callables keep mapping (n,) parameters
to (n, 3) arrays.
"""

import numpy as np
import pytest

from ruledgeom import catalog
from ruledgeom.dual import DualScalar
from ruledgeom.offsets import OffsetSpec, construct_offset
from ruledgeom.surface import SurfaceSpec, analyze, sampled_surface

ANALYSIS_VECTORS = ("c", "e", "t", "g", "e_star", "t_star", "g_star",
                    "e_u", "e_uu", "c_u")
MOMENTS = ("e_star", "t_star", "g_star")


def vector(a, name):
    """The whole (3, n) field `name` of the analysis a: stored, a moment
    of its dual frame, or a derivative."""
    if name in MOMENTS:
        return a.dual_frame()[MOMENTS.index(name)].dual
    if name in ("e_u", "e_uu", "c_u"):
        return a.derivative(name)
    return getattr(a, name)


def assert_component_major(x, n):
    assert x.shape == (3, n)
    assert x.flags.c_contiguous
    assert not x.flags.writeable


def _cone():
    return catalog.cone(np.pi / 4, (0.0, 3.0), 101)


def _sampled_cone():
    a = analyze(_cone())
    return sampled_surface(a.u, a.e.T, a.c.T)


SPECS = {   # oracles; finite differences; the normalized saddle director
    "analytic": _cone,
    "sampled": _sampled_cone,
    "normalized": lambda: catalog.hyperbolic_paraboloid((-1.0, 1.0), 101),
}


@pytest.mark.parametrize("build", SPECS.values(), ids=SPECS.keys())
def test_vector_fields_are_component_major(build):
    a = analyze(build())
    for name in ANALYSIS_VECTORS:
        assert_component_major(vector(a, name), a.n)
    inv, (e_t, _, g_t) = a.invariants(), a.dual_frame()
    d0 = inv.cos_rho * e_t + inv.R * g_t
    assert_component_major(d0.real, a.n)
    assert_component_major(d0.dual, a.n)
    built = construct_offset(a, OffsetSpec.constant(0.5, 1.0))
    assert_component_major(built.e1, a.n)
    assert_component_major(built.c1, a.n)


def test_dual_vector_parts_are_read_only_views():
    real = np.zeros((3, 4))
    v = DualScalar(real, real)
    assert real.flags.writeable and not v.real.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v.dual[0, 0] = 1.0


def test_row_major_user_callables_still_analyze():
    """A user callable that returns a plain (n, 3) row-major array gives
    bitwise the analysis of the catalog's cone."""
    alpha = 0.6
    sa, ca = np.sin(alpha), np.cos(alpha)

    def rows(*cols):
        return np.ascontiguousarray(np.stack(np.broadcast_arrays(*cols),
                                             axis=-1), dtype=float)

    zero = lambda u: np.zeros((len(u), 3))    # noqa: E731
    spec = SurfaceSpec(
        director=lambda u: rows(sa * np.cos(u), sa * np.sin(u),
                                ca * np.ones_like(u)),
        director_d1=lambda u: rows(-sa * np.sin(u), sa * np.cos(u), 0.0),
        director_d2=lambda u: rows(-sa * np.cos(u), -sa * np.sin(u), 0.0),
        base=zero, base_d1=zero, base_d2=zero,
        param_range=(0.0, 3.0), sample_count=101)
    assert spec.director(np.zeros(4)).flags.c_contiguous
    a = analyze(spec)
    b = analyze(catalog.cone(alpha, (0.0, 3.0), 101))
    for name in ANALYSIS_VECTORS:
        assert_component_major(vector(a, name), a.n)
    for name in ANALYSIS_VECTORS + ("s", "s_star", "Delta", "gamma"):
        assert np.array_equal(vector(a, name), vector(b, name))
