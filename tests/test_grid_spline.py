"""The offset's and a sampled surface's curve callables read their samples
at the grid: `grid_spline` must equal an independently fitted
interpolating spline bit for bit, at the grid and off it."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly

from ruledgeom import catalog, io, surface
from ruledgeom.dual import norm3
from ruledgeom.offsets import OffsetSpec, construct_offset, verify_offset
from ruledgeom.surface import (analyze, grid_spline, sampled_surface,
                               spline_surface)

N = 20001
SQ2 = math.sqrt(2.0)

# the four surface/offset job shapes of the benchmark's pipeline workload
JOBS = {
    "cone": (lambda: catalog.cone(
        math.pi / 4, (0.0, 2.5 / math.sin(math.pi / 4)), N),
        OffsetSpec.theorem(2.8, 0.7)),
    "small_circle": (lambda: catalog.small_circle(
        math.pi / 6, 1.0, (0.0, 2.5 / math.sin(math.pi / 6)), N),
        OffsetSpec.theorem(2.8, 1.0)),
    "hyperbolic_paraboloid": (lambda: catalog.hyperbolic_paraboloid(
        (-1.0, 1.0), N), OffsetSpec.constant(math.pi / 4, 2.0 * SQ2)),
    "helicoid": (lambda: catalog.helicoid(0.4, (0.0, 2 * math.pi), N),
                 OffsetSpec.constant(0.5, 1.0)),
}


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def check(u, y):
    """grid_spline of the (3, n) samples y equals a spline fitted to them
    here, at the grid (the same and a copied grid) and off it."""
    spline = CubicSpline(u, y.T, axis=0)
    curve = grid_spline(u, y)
    for x in (u, u.copy()):
        assert_bitwise(curve(x), spline(x))
    mid = 0.5 * (u[1:] + u[:-1])
    for x in (mid, u[::2], u[:-1], u[1:], np.nextafter(u, np.inf),
              u[len(u) // 3]):
        assert_bitwise(curve(x), spline(x))
    return spline, curve


@pytest.mark.parametrize("job", list(JOBS))
def test_offset_curves_equal_their_splines(job):
    make, spec = JOBS[job]
    a = analyze(make())
    built = construct_offset(a, spec)
    for y in (built.e1, built.c1):
        check(a.u, y)


def test_sampled_csv_curves_equal_their_splines(tmp_path):
    a = analyze(catalog.small_circle(math.pi / 6, 1.0, (0.0, 3.0), 2001))
    path = tmp_path / "sampled.csv"
    with open(path, "wb") as fh:
        fh.write((",".join(io.SAMPLED_COLUMNS) + "\n").encode())
        io._write_table(fh, np.vstack([a.u, a.e, a.c]).T, b"", b",")
    u, e, p = io.read_sampled_csv(path)
    spec = sampled_surface(u, e, p)
    e_unit = e.T / norm3(e.T)      # sampled_surface renormalizes
    for fn, y in ((spec.director, e_unit), (spec.base, p.T)):
        spline, _ = check(u, y)
        for x in (u, 0.5 * (u[1:] + u[:-1])):
            assert_bitwise(fn(x), spline(x))



def test_only_sampled_surface_renormalizes():
    """The two spline_surface callers differ in one step: sampled_surface
    renormalizes its directors, while the offset's re-analysis reads e1
    as constructed."""
    a = analyze(catalog.cone(math.pi / 4, (0.0, 2.5 / math.sin(math.pi / 4)),
                             2001))
    e1 = construct_offset(a, OffsetSpec.theorem(2.8, 0.7)).e1
    unit = e1 / norm3(e1)
    assert not np.array_equal(unit, e1)      # some last bits move
    zeros = np.zeros_like(e1)
    sampled = sampled_surface(a.u, e1.T, zeros.T).director(a.u)
    offset = spline_surface(a.u, e1, zeros, "offset").director(a.u)
    assert_bitwise(sampled[:-1], unit.T[:-1] + 0.0)
    assert_bitwise(offset[:-1], e1.T[:-1] + 0.0)

def test_negative_zero_reads_as_its_spline_does():
    u = np.linspace(0.0, 1.0, 11)
    y = np.vstack([np.sin(u), np.cos(u), u * u])
    y[0, 0] = y[1, 4] = y[2, 7] = y[2, 10] = -0.0
    spline, curve = check(u, y)
    assert np.isfinite(spline.c).all()
    out = curve(u)
    assert not np.signbit(out[[0, 4, 7], [0, 1, 2]]).any()   # -0.0 -> +0.0


def test_overflowing_fit_is_evaluated_as_is():
    # a +-1e300 pair on a fine grid: the slopes and the spline's
    # coefficients overflow, and its pieces read NaN at their nodes
    u = np.linspace(0.0, 1e-3, 9)
    y = np.vstack([np.zeros(9), np.linspace(-1.0, 1.0, 9), np.ones(9)])
    y[0, 3], y[0, 4], y[2, 5] = 1e300, -1e300, -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        spline, curve = check(u, y)
        out = curve(u)
    assert not np.isfinite(spline.c).all()
    assert np.isnan(out).any()


def test_verify_offset_calls_no_ppoly():
    a = analyze(JOBS["small_circle"][0]())
    calls = []
    call = PPoly.__call__

    def spy(self, x, *args, **kwargs):
        calls.append(np.size(x))
        return call(self, x, *args, **kwargs)

    with mock.patch.object(PPoly, "__call__", spy):
        verify_offset(a, JOBS["small_circle"][1])
    assert calls == []      # the last nodes of e1 and c1 need no spline


# --- the not-a-knot band solve (its input errors: test_grid_kernels.py) ---

def test_a_singular_band_system_raises_lin_alg_error():
    # increasing, finite nodes whose steps span 370 decades: an exact zero
    # pivot in LAPACK's elimination, for CubicSpline's solve as well
    u = np.array([0.0, 1e-90, 1e-40, 1e280])
    y = np.zeros((3, 4))
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            CubicSpline(u, y.T, axis=0)
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            surface._not_a_knot_slopes(u, y)


def test_band_solve_writes_the_slopes_into_its_right_hand_side():
    """The (n, 3) slopes are the transpose of the (3, n) right-hand side,
    solved in place: besides its outputs (the steps, the (3, n - 1) secant
    slopes and the slopes, 7 arrays of n floats) the solve holds the band
    (3 such arrays) and one row temporary; a copy of the right-hand side
    in the (n, 3) layout would add 3 more."""
    n = 40001
    u = np.linspace(0.0, 3.0, n)
    y = np.vstack([np.cos(u), np.sin(u), u * u])
    surface._not_a_knot_slopes(u, y)       # warm caches outside the trace
    tracemalloc.start()
    try:
        _, _, s = surface._not_a_knot_slopes(u, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.shape == (n, 3) and s.T.flags.c_contiguous
    assert peak < 12 * 8 * n
