"""The grid kernels of surface.py against the scipy calls they replace,
bit for bit: `simpson_integrator` against `cumulative_simpson`, the
slopes and last node of `grid_spline` against `CubicSpline`, and the
Hermite coefficients and PPoly evaluation of the chain-rule check against
`CubicHermiteSpline` and its `derivative()`.  The byte pins hold for the
pinned scipy (1.17.1), whose arithmetic the kernels repeat."""

import math

import numpy as np
import pytest
from scipy import interpolate
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from ruledgeom import catalog, io, surface, verify
from ruledgeom.offsets import OffsetSpec, construct_offset
from ruledgeom.surface import (Reparametrization, analyze, grid_spline,
                               sampled_surface, simpson_integrator)

SQ2 = math.sqrt(2.0)
N_LARGE = 200001

# the four surface/offset jobs of the benchmark's pipeline workload
JOBS = {
    "cone": (lambda n: catalog.cone(
        math.pi / 4, (0.0, 2.5 / math.sin(math.pi / 4)), n),
        OffsetSpec.theorem(2.8, 0.7)),
    "small_circle": (lambda n: catalog.small_circle(
        math.pi / 6, 1.0, (0.0, 2.5 / math.sin(math.pi / 6)), n),
        OffsetSpec.theorem(2.8, 1.0)),
    "hyperbolic_paraboloid": (lambda n: catalog.hyperbolic_paraboloid(
        (-1.0, 1.0), n), OffsetSpec.constant(math.pi / 4, 2.0 * SQ2)),
    "helicoid": (lambda n: catalog.helicoid(0.4, (0.0, 2 * math.pi), n),
                 OffsetSpec.constant(0.5, 1.0)),
}


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def grids(n, rng):
    """A linspace grid and two non-uniform ones of n nodes."""
    return (np.linspace(0.0, 3.7, n),
            np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-3,
            np.geomspace(1e-3, 10.0, n))


def simpson_samples(u, rng):
    """Smooth, random, signed-zero, NaN and near-overflow/-underflow y."""
    n = len(u)
    smooth = 2.0 + np.sin(u)
    signed_zero = rng.standard_normal(n)
    signed_zero[::3] = -0.0
    signed_zero[1::5] = 0.0
    nan = rng.standard_normal(n)
    nan[n // 2] = np.nan
    sign = rng.choice([-1.0, 1.0], n)
    huge = sign * 10.0 ** rng.uniform(299.0, 308.0, n)
    tiny = sign * 10.0 ** rng.uniform(-308.0, -299.0, n)
    return smooth, rng.standard_normal(n), signed_zero, nan, huge, tiny


def check_simpson(u, ys):
    integrate = simpson_integrator(u)
    with np.errstate(all="ignore"):
        for y in ys:
            assert_same_bits(integrate(y),
                             cumulative_simpson(y, x=u, initial=0.0))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12, 13, 100, 101,
                               2000, 2001, 20000, 20001, 200000, N_LARGE])
def test_simpson_kernel_matches_cumulative_simpson(n):
    rng = np.random.default_rng(n)
    for u in grids(n, rng):
        check_simpson(u, simpson_samples(u, rng))


def test_simpson_kernel_rejects_what_cumulative_simpson_rejects():
    for u in (np.linspace(1.0, 0.0, 9), np.array([0.0, 1.0, 1.0, 2.0, 3.0])):
        y = np.ones_like(u)
        with pytest.raises(ValueError) as want:
            cumulative_simpson(y, x=u, initial=0.0)
        with pytest.raises(ValueError) as got:
            simpson_integrator(u)
        assert str(got.value) == str(want.value)


def check_spline(u, y):
    """grid_spline's slopes, last node and grid values equal those of a
    spline fitted here."""
    spline = CubicSpline(u, y.T, axis=0)
    _, _, s = surface._not_a_knot_slopes(u, y)
    assert_same_bits(s[:-1], spline.c[2])
    assert_same_bits(surface._spline_last_node(u, y), spline(u[-1:])[0])
    assert_same_bits(grid_spline(u, y)(u), spline(u))


def spline_samples(u, rng):
    n = len(u)
    smooth = np.vstack([np.cos(u), np.sin(u), 0.3 * u * u])
    signed_zero = rng.standard_normal((3, n))
    signed_zero[:, ::4] = -0.0
    return smooth, rng.standard_normal((3, n)), signed_zero


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 2001, 20001, N_LARGE])
def test_spline_slopes_and_last_node_match_cubic_spline(n):
    rng = np.random.default_rng(n)
    for u in grids(n, rng):
        for y in spline_samples(u, rng):
            check_spline(u, y)


@pytest.mark.parametrize("job", list(JOBS))
def test_kernels_match_scipy_on_the_pipeline_job_grids(job):
    make, spec = JOBS[job]
    a = analyze(make(N_LARGE))
    check_simpson(a.u, (a.sigma, a.Delta * a.sigma))
    assert_same_bits(a.s, cumulative_simpson(a.sigma, x=a.u, initial=0.0))
    built = construct_offset(a, spec)
    for y in (built.e1, built.c1):
        check_spline(a.u, y)


def test_kernels_match_scipy_on_a_sampled_csv_grid(tmp_path):
    a = analyze(catalog.small_circle(math.pi / 6, 1.0, (0.0, 3.0), 2001))
    path = tmp_path / "sampled.csv"
    with open(path, "wb") as fh:
        fh.write((",".join(io.SAMPLED_COLUMNS) + "\n").encode())
        io._write_table(fh, np.vstack([a.u, a.e, a.c]).T, b"", b",")
    u, e, p = io.read_sampled_csv(path)
    check_simpson(u, (a.sigma, a.Delta * a.sigma))
    for y in (e.T, p.T):
        check_spline(u, np.ascontiguousarray(y))
    b = analyze(sampled_surface(u, e, p))
    assert_same_bits(b.s, cumulative_simpson(b.sigma, x=u, initial=0.0))


@pytest.mark.parametrize("case", ["nan_y", "inf_y", "nan_u", "repeated_u",
                                  "decreasing_u", "short_nan_y", "one_node"])
def test_spline_input_errors_are_cubic_splines(case):
    n = 3 if case == "short_nan_y" else 1 if case == "one_node" else 9
    u = np.linspace(0.0, 1.0, n)
    y = np.vstack([u, u * u, np.ones(n)])
    if case in ("nan_y", "short_nan_y"):
        y[1, n // 2] = np.nan
    elif case == "inf_y":
        y[2, -1] = -np.inf
    elif case == "nan_u":
        u[4] = np.nan
    elif case == "repeated_u":
        u[5] = u[4]
    elif case == "decreasing_u":
        u = u[::-1].copy()
    with pytest.raises(ValueError) as want:
        CubicSpline(u, y.T, axis=0)
    with pytest.raises(ValueError) as got:
        grid_spline(u, y)       # at construction, not at the first call
    assert str(got.value) == str(want.value)


def hexes(x):
    return [float(v).hex() for v in np.ravel(x)]


def hermite_probes(x):
    """The nodes, the interval midpoints, both ends again, and points just
    and far outside [x_0, x_-1]."""
    span = x[-1] - x[0]
    outside = [x[0] - span, np.nextafter(x[0], -np.inf),
               np.nextafter(x[-1], np.inf), x[-1] + 0.5 * span]
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]), x[[0, -1]], outside])


def check_hermite(x, y, dydx):
    """The Hermite coefficients, and the values and first derivatives of
    the kernel's PPoly at hermite_probes(x), as float.hex of scipy's."""
    spline = CubicHermiteSpline(x, y, dydx, axis=-1)
    rows = surface._hermite_coefficients(x, y, dydx)
    assert len(rows) == 4
    for got, want in zip(rows, spline.c):
        assert hexes(got) == hexes(np.moveaxis(want, 0, -1))
    probe = hermite_probes(x)
    for got, want in ((rows, spline), (surface._derivative(rows),
                                       spline.derivative())):
        assert hexes(surface._ppoly_evaluate(x, got, probe)) == hexes(
            want(probe))


def scipy_chain_rule_residual(r: Reparametrization) -> float:
    """chain_rule_residual through CubicHermiteSpline and PPoly."""
    s_of_u = CubicHermiteSpline(r.u, r.s, r.sigma)
    u_of_s = CubicHermiteSpline(r.s, r.u, 1.0 / r.sigma)
    probe = np.concatenate([r.u, 0.5 * (r.u[1:] + r.u[:-1])])
    res = s_of_u.derivative()(probe) * u_of_s.derivative()(s_of_u(probe))
    return float(np.max(np.abs(res - 1.0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 100, 2001])
def test_hermite_kernel_matches_cubic_hermite_spline(n):
    rng = np.random.default_rng(n)
    _, cumulative, geometric = grids(n, rng)
    for x in (cumulative, geometric, -geometric[::-1]):
        for shape in ((n,), (3, n)):
            smooth = np.cos(np.broadcast_to(x, shape) * 0.3)
            signed_zero = rng.standard_normal(shape)
            signed_zero[..., ::3] = -0.0
            for y in (smooth, rng.standard_normal(shape), signed_zero):
                check_hermite(x, y, rng.standard_normal(shape))


@pytest.mark.parametrize("label,key", verify.PIPELINE_CASES
                         + (("theorem cone", verify.THEOREM_CONE),
                            ("theorem hyperboloid",
                             verify.THEOREM_HYPERBOLOID)))
def test_chain_rule_residual_matches_scipy_on_the_verify_analyses(label, key):
    name, *args = key
    r = analyze(getattr(catalog, name)(*args)).reparam
    check_hermite(r.u, r.s, r.sigma)
    check_hermite(r.s, r.u, 1.0 / r.sigma)
    assert (r.chain_rule_residual().hex()
            == scipy_chain_rule_residual(r).hex())


@pytest.mark.parametrize("case", ["nan_x", "inf_y", "nan_dydx", "inf_dydx",
                                  "repeated_x", "decreasing_x", "one_node"])
def test_hermite_input_errors_are_cubic_hermite_splines(case):
    n = 1 if case == "one_node" else 9
    x = np.linspace(0.0, 1.0, n)
    y, dydx = np.sin(x), np.cos(x)
    if case == "nan_x":
        x[4] = np.nan
    elif case == "inf_y":
        y[-1] = np.inf
    elif case == "nan_dydx":
        dydx[0] = np.nan
    elif case == "inf_dydx":
        dydx[3] = -np.inf
    elif case == "repeated_x":
        x[5] = x[4]
    elif case == "decreasing_x":
        x = x[::-1].copy()
    with pytest.raises(ValueError) as want:
        CubicHermiteSpline(x, y, dydx)
    with pytest.raises(ValueError) as got:
        surface._hermite_coefficients(x, y, dydx)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", ["nan_sigma", "zero_sigma", "flat_s"])
def test_chain_rule_residual_raises_instead_of_reading_nan(case):
    u = np.linspace(0.0, 1.0, 9)
    s, sigma = 2.0 * u, np.full(9, 2.0)
    if case == "nan_sigma":
        sigma[4] = np.nan
    elif case == "zero_sigma":      # du/ds = 1/sigma is infinite
        sigma[4] = 0.0
    else:
        s[5] = s[4]
    with pytest.raises(ValueError) as want, np.errstate(divide="ignore"):
        scipy_chain_rule_residual(Reparametrization(u, s, sigma))
    with pytest.raises(ValueError) as got, np.errstate(divide="ignore"):
        Reparametrization(u, s, sigma).chain_rule_residual()
    assert str(got.value) == str(want.value)


@pytest.fixture
def fits(monkeypatch):
    """The CubicSpline fits that surface makes while the test runs."""
    made = []
    fit = interpolate.CubicSpline

    def counted(*args, **kwargs):
        made.append(None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(interpolate, "CubicSpline", counted)
    return made


def test_the_spline_is_fitted_on_the_first_off_grid_call_only(fits):
    u = np.linspace(0.0, 2.0, 101)
    y = np.vstack([np.cos(u), np.sin(u), u])
    spline = CubicSpline(u, y.T, axis=0)
    mid = 0.5 * (u[1:] + u[:-1])
    curve = grid_spline(u, y)
    assert_same_bits(curve(u), spline(u))
    assert_same_bits(curve(u.copy()), spline(u))
    assert fits == []
    assert_same_bits(curve(mid), spline(mid))
    assert len(fits) == 1
    for x in (u[::2], mid, u, u[:-1]):
        assert_same_bits(curve(x), spline(x))
    assert len(fits) == 1       # later calls reuse the one fit


def test_an_unbounded_fit_is_made_once_and_read_at_the_grid(fits):
    # secant slopes of 1e300 / 1.25e-4 overflow, so the bound cannot show
    # that the coefficients are finite: the grid reads the spline itself
    u = np.linspace(0.0, 1e-3, 9)
    y = np.vstack([np.zeros(9), np.linspace(-1.0, 1.0, 9), np.ones(9)])
    y[0, 3], y[0, 4] = 1e300, -1e300
    with np.errstate(over="ignore", invalid="ignore"):
        assert surface._spline_last_node(u, y) is None
        spline = CubicSpline(u, y.T, axis=0)
        curve = grid_spline(u, y)
        assert fits == []
        for _ in range(2):
            assert_same_bits(curve(u), spline(u))
    assert len(fits) == 1
