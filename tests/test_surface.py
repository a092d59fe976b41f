"""Analysis pipeline on surfaces with hand-derived invariants.

Closed forms used below (derived by direct differentiation):

* saddle, base (u/2, u/2, 0), director (1,-1,2u)/sqrt(2+4u^2):
  sigma = sqrt(2)/(1+2u^2), striction = base, g = (-s2/2, -s2/2, 0),
  gamma = delta = 0, Delta = -(1+2u^2)/2.
* cone, half-angle a: striction = apex, Delta = delta = 0, gamma = cot a.
* one-sheet hyperboloid (small_circle beta, radius r): striction = base,
  gamma = cot b, delta = -r, Delta = r cot b.
* helicoid pitch p: striction = axis, gamma = delta = 0, Delta = p.
"""

import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ruledgeom import catalog, verify
from ruledgeom.config import Tolerances
from ruledgeom.errors import DegenerateIndicatrix
from ruledgeom.io import render_offset_report, surface_grid
from ruledgeom.offsets import OffsetSpec, verify_offset
from ruledgeom.surface import (SurfaceSpec, analyze, dual_invariants,
                               frame_ode_residual, sampled_surface)

SQ2 = np.sqrt(2.0)


def saddle(n=2001, oracles=True):
    s = catalog.hyperbolic_paraboloid((-1.0, 1.0), n)
    if oracles:
        return s
    return SurfaceSpec(director=s.director, base=s.base,
                       param_range=s.param_range, sample_count=n)


# --- reparametrization ---

def test_great_circle_is_unit_speed():
    spec = SurfaceSpec(
        director=lambda u: np.stack(
            [np.cos(u), np.sin(u), np.zeros_like(np.asarray(u, float))],
            axis=-1),
        director_d1=lambda u: np.stack(
            [-np.sin(u), np.cos(u), np.zeros_like(np.asarray(u, float))],
            axis=-1),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 2.0), sample_count=501)
    a = analyze(spec)
    assert np.max(np.abs(a.s - a.u)) < 1e-10
    assert np.max(np.abs(a.sigma - 1.0)) < 1e-12


def test_great_circle_sampled_close_to_unit_speed():
    # without oracles the speed carries only finite-difference truncation
    spec = SurfaceSpec(
        director=lambda u: np.stack(
            [np.cos(u), np.sin(u), np.zeros_like(np.asarray(u, float))],
            axis=-1),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 2.0), sample_count=501)
    a = analyze(spec)
    assert np.max(np.abs(a.s - a.u)) < 1e-4


def test_saddle_speed_at_center():
    a = analyze(saddle())
    assert a.u[a.n // 2] == 0.0
    assert abs(a.sigma[a.n // 2] - SQ2) < 1e-12


def test_constant_director_degenerates():
    spec = SurfaceSpec(
        director=lambda u: np.broadcast_to(
            [1.0, 0.0, 0.0], np.asarray(u, float).shape + (3,)).copy(),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 1.0), sample_count=101)
    with pytest.raises(DegenerateIndicatrix):
        analyze(spec)


def test_chain_rule_consistency():
    a = analyze(saddle())
    assert a.reparam.chain_rule_residual() < 1e-8


# --- striction curve ---

def saddle_base(u):
    return np.stack([u / 2, u / 2, np.zeros_like(u)])


def test_saddle_striction_equals_base():
    a = analyze(saddle())
    assert np.max(np.abs(a.c - saddle_base(a.u))) < 1e-12


def test_cone_striction_is_apex():
    a = analyze(catalog.cone(np.pi / 4))
    assert np.max(np.abs(a.c)) < 1e-12


def test_striction_fixes_valid_base():
    # the hyperboloid base already satisfies the striction condition
    spec = catalog.small_circle(np.pi / 6, 1.0)
    a = analyze(spec)
    assert np.max(np.abs(a.c - spec.base(a.u).T)) < 1e-12


def test_striction_without_oracles():
    a = analyze(saddle(oracles=False))
    assert np.max(np.abs(a.c - saddle_base(a.u))) < 1e-8


# --- the dual spherical curve ---

def test_saddle_dual_ruling_at_center():
    a = analyze(saddle())
    e_t, _, _ = a.dual_frame()
    i0 = a.n // 2
    assert np.allclose(e_t.real[:, i0], [SQ2 / 2, -SQ2 / 2, 0.0], atol=1e-12)
    assert np.allclose(e_t.dual[:, i0], [0.0, 0.0, 0.0], atol=1e-12)


def test_cone_dual_part_vanishes():
    # every ruling passes through the origin
    e_t, _, _ = analyze(catalog.cone(0.6)).dual_frame()
    assert np.max(np.abs(e_t.dual)) < 1e-12


def test_dual_part_is_striction_cross_director():
    # the hyperboloid's base is its striction curve
    spec = catalog.small_circle(np.pi / 3, 2.0)
    a = analyze(spec)
    e_t, _, _ = a.dual_frame()
    want = np.cross(spec.base(a.u), spec.director(a.u)).T
    assert np.max(np.abs(e_t.dual - want)) < 1e-12


# --- frame and invariants ---

def test_saddle_frame_and_invariants():
    a = analyze(saddle())
    assert np.max(np.abs(a.gamma)) < 1e-12
    assert np.max(np.abs(a.delta)) < 1e-12
    assert np.max(np.abs(a.Delta + 0.5 * (1 + 2 * a.u ** 2))) < 1e-12
    g_want = np.array([[-SQ2 / 2], [-SQ2 / 2], [0.0]])
    assert np.max(np.abs(a.g - g_want)) < 1e-12


def test_cone_invariants():
    alpha = np.pi / 5
    a = analyze(catalog.cone(alpha, (0.0, 4.0), 1001))
    assert np.max(np.abs(a.Delta)) < 1e-12
    assert np.max(np.abs(a.delta)) < 1e-12
    assert np.max(np.abs(a.gamma - 1.0 / np.tan(alpha))) < 1e-12


def test_hyperboloid_invariants():
    beta, r = np.pi / 6, 1.5
    a = analyze(catalog.small_circle(beta, r, (0.0, 5.0), 1001))
    cot = 1.0 / np.tan(beta)
    assert np.max(np.abs(a.gamma - cot)) < 1e-12
    assert np.max(np.abs(a.delta + r)) < 1e-12
    assert np.max(np.abs(a.Delta - r * cot)) < 1e-12


def test_helicoid_invariants():
    a = analyze(catalog.helicoid(0.7))
    assert np.max(np.abs(a.Delta - 0.7)) < 1e-12
    assert np.max(np.abs(a.gamma)) < 1e-12
    assert np.max(np.abs(a.delta)) < 1e-12


def test_arc_length_strictly_increases():
    a = analyze(saddle())
    assert np.all(np.diff(a.s) > 0)


def test_sample_view():
    a = analyze(saddle(n=101))
    assert a.n == len(a.u) == len(a.gamma_dual) == 101
    assert a.u[50] == pytest.approx(0.0)
    assert a.gamma_dual[50] == pytest.approx(
        a.delta[50] - a.gamma[50] * a.Delta[50])


# --- frame evolution residuals ---

def test_frame_ode_analytic_cone():
    r = frame_ode_residual(analyze(catalog.cone(np.pi / 4, (0.0, 4.0), 1001)))
    assert r.real_max < 1e-9
    assert r.dual_max < 1e-9
    assert r.orthonormality_max < 1e-12


def test_frame_ode_sampled_saddle():
    r = frame_ode_residual(analyze(saddle(oracles=False)))
    assert r.real_max < 1e-5
    assert r.dual_max < 1e-5


def test_frame_orthonormal_and_right_handed():
    a = analyze(saddle())
    det = np.sum(np.cross(a.e, a.t, axis=0) * a.g, axis=0)
    assert np.max(np.abs(det - 1.0)) < 1e-9


# --- striction structure ---

def test_striction_decomposition():
    # c' = delta e + Delta g, which also pins <c', t> = 0
    for spec in (saddle(), catalog.small_circle(np.pi / 6, 1.0, (0.0, 5.0), 1001)):
        a = analyze(spec)
        c_s = a.derivative("c_u") / a.sigma
        res = c_s - a.delta * a.e - a.Delta * a.g
        assert np.max(np.linalg.norm(res[:, 2:-2], axis=0)) < 1e-5
        assert np.max(np.abs(np.sum(c_s * a.t, axis=0)[2:-2])) < 1e-6


def test_dual_arc_speed():
    a = analyze(saddle())
    ds, dss = np.diff(a.s), np.diff(a.s_star)
    mid = 0.5 * (a.Delta[1:] + a.Delta[:-1])
    assert np.max(np.abs(dss / ds - mid)) < 1e-5


def test_base_curve_slide_invariance():
    base = analyze(saddle())
    s = saddle()

    def mu(u):
        return 0.4 * np.cos(3.0 * np.asarray(u, float)) - 0.1

    def mu1(u):
        return -1.2 * np.sin(3.0 * np.asarray(u, float))

    def mu2(u):
        return -3.6 * np.cos(3.0 * np.asarray(u, float))

    shifted = SurfaceSpec(
        director=s.director, director_d1=s.director_d1,
        director_d2=s.director_d2,
        base=lambda u: s.base(u) + mu(u)[..., None] * s.director(u),
        base_d1=lambda u: (s.base_d1(u) + mu1(u)[..., None] * s.director(u)
                           + mu(u)[..., None] * s.director_d1(u)),
        base_d2=lambda u: (s.base_d2(u) + mu2(u)[..., None] * s.director(u)
                           + 2 * mu1(u)[..., None] * s.director_d1(u)
                           + mu(u)[..., None] * s.director_d2(u)),
        param_range=s.param_range, sample_count=s.sample_count)
    b = analyze(shifted)
    assert np.max(np.abs(b.c - base.c)) < 1e-6
    assert np.max(np.abs(b.Delta - base.Delta)) < 1e-6
    assert np.max(np.abs(b.delta - base.delta)) < 1e-6
    assert np.max(np.abs(b.gamma - base.gamma)) < 1e-6


# --- dual curvature invariants ---

def test_invariants_flat_axis():
    # helicoid: gamma_bar = 0 + eps*0 exactly, so R = 1 + eps*0,
    # rho = (pi/2, 0) and the Darboux axis is the dual g
    a = analyze(catalog.helicoid(0.3))
    inv = dual_invariants(a)
    assert np.max(np.abs(inv.R.real - 1.0)) < 1e-12
    assert np.max(np.abs(inv.R.dual)) < 1e-12
    assert np.max(np.abs(inv.rho.real - np.pi / 2)) < 1e-12
    assert np.max(np.abs(inv.rho.dual)) < 1e-12
    e_t, _, g_t = a.dual_frame()
    d0 = inv.cos_rho * e_t + inv.R * g_t
    assert np.max(np.abs(d0.real - g_t.real)) < 1e-12
    assert np.max(np.abs(d0.dual - g_t.dual)) < 1e-12


def test_invariants_unit_curvature():
    # cone with half-angle pi/4: gamma_bar = 1 + eps*0 -> R = 1/sqrt(2)
    a = analyze(catalog.cone(np.pi / 4, (0.0, 4.0), 1001))
    inv = dual_invariants(a)
    assert np.max(np.abs(inv.R.real - 1.0 / SQ2)) < 1e-12
    assert np.max(np.abs(inv.R.dual)) < 1e-12
    assert np.max(np.abs(inv.rho.real - np.pi / 4)) < 1e-12


def test_radius_identities():
    # verify's check of sin(rho) = R and cot(rho) = gamma_bar
    tol = Tolerances()
    for spec in (saddle(), catalog.small_circle(0.4, 1.0, (0.0, 5.0), 1001)):
        (check,) = [c for c in verify._pipeline_checks(
            "case", analyze(spec), tol, tol.frame_ode_analytic)
            if "sin(rho)=R" in c.name]
        assert check.measured < 1e-9


def test_dual_ruling_unit():
    from ruledgeom.dual import dual_dot
    a = analyze(saddle())
    e_t, _, _ = a.dual_frame()
    ee = dual_dot(e_t, e_t)
    assert np.max(np.abs(ee.real - 1.0)) < 1e-9
    assert np.max(np.abs(ee.dual)) < 1e-9


# --- evaluation and classification ---

def test_evaluate_surface():
    a = analyze(saddle())
    grid = surface_grid(a.c, a.e, (0.0, 2.0), 3)   # v = 0, 1, 2
    i0 = a.n // 2                                  # u = 0
    assert np.allclose(grid[i0, 0], [0, 0, 0], atol=1e-12)
    assert np.allclose(grid[i0, 1], [SQ2 / 2, -SQ2 / 2, 0.0], atol=1e-12)
    p0, p1, p2 = grid[:, 0], grid[:, 1], grid[:, 2]
    assert np.allclose(p2 - p0, 2 * (p1 - p0), atol=1e-10)


def test_is_developable():
    offset = OffsetSpec.constant(np.pi / 4, 1.0)

    def developable(spec):   # the report's verdict at developable_class=1e-8
        rep = verify_offset(analyze(spec), offset)
        text, _ = render_offset_report(
            0, offset, rep, Tolerances(developable_class=1e-8))
        return "developable: base=yes " in text, rep.base_max_abs_Delta

    flag, m = developable(catalog.cone(np.pi / 4))
    assert flag and m < 1e-12
    flag, m = developable(saddle())
    assert not flag and m >= 0.5


# --- sampled input path ---

def test_sampled_surface_reproduces_invariants():
    a = analyze(saddle())
    spec = sampled_surface(a.u, a.e.T, a.c.T)
    b = analyze(spec)
    assert np.max(np.abs(b.Delta - a.Delta)) < 1e-4
    assert np.max(np.abs(b.delta - a.delta)) < 1e-4
    assert np.max(np.abs(b.gamma - a.gamma)) < 1e-4


def test_sampled_surface_rejects_non_unit():
    u = np.linspace(0, 1, 11)
    e = np.tile([1.0, 1.0, 0.0], (11, 1))
    with pytest.raises(ValueError):
        sampled_surface(u, e, np.zeros((11, 3)))


def test_even_sample_count_rejected():
    spec = saddle()
    spec.sample_count = 2000
    with pytest.raises(ValueError, match="odd"):
        analyze(spec)


@pytest.mark.parametrize("director", [
    lambda u: np.array([1.0, 0.0, 0.0]),                          # (3,)
    lambda u: np.stack([np.cos(u), np.sin(u), np.zeros_like(u)]),  # (3, n)
])
def test_non_vectorized_callable_rejected(director):
    spec = SurfaceSpec(
        director=director,
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 1.0), sample_count=101)
    with pytest.raises(ValueError, match=r"got shape \(3,"):
        analyze(spec)


def test_analysis_is_frozen():
    a = analyze(saddle(n=101))
    with pytest.raises(FrozenInstanceError):
        a.Delta = np.zeros(101)


def test_analysis_arrays_are_read_only():
    a = analyze(saddle(n=101))
    with pytest.raises(ValueError, match="read-only"):
        a.dual_frame()[0].dual[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a.Delta[0] = 0.0


def test_analysis_leaves_the_callers_grid_writable():
    a = analyze(saddle(n=101))
    grid = np.array(a.u)
    spec = sampled_surface(grid, a.e.T, a.c.T)
    assert spec.grid is grid
    b = analyze(spec)
    assert grid.flags.writeable and not b.u.flags.writeable
    assert np.array_equal(b.u, grid)


def test_orthonormality_defect_propagates_nan():
    a = analyze(catalog.cone(0.6, (0.0, 5.0), 101))
    g = np.array(a.g)
    g[1, 50] = np.nan    # only the g terms: not the first of the six maxima
    assert np.isnan(frame_ode_residual(replace(a, g=g)).orthonormality_max)


def test_invariants_are_recomputed_equal():
    a = analyze(catalog.small_circle(0.4, 1.0, (0.0, 5.0), 101))
    first, second = a.invariants(), a.invariants()
    e_t, _, g_t = a.dual_frame()
    d0_first, d0_second = (inv.cos_rho * e_t + inv.R * g_t
                           for inv in (first, second))
    for x, y in [(first.R.real, second.R.real), (first.R.dual, second.R.dual),
                 (first.rho.real, second.rho.real),
                 (first.rho.dual, second.rho.dual),
                 (d0_first.real, d0_second.real),
                 (d0_first.dual, d0_second.dual)]:
        assert np.array_equal(x, y)


def test_non_unit_director_rejected():
    spec = SurfaceSpec(
        director=lambda u: np.stack(
            [np.cos(u) * 1.01, np.sin(u) * 1.01,
             np.zeros_like(np.asarray(u, float))], axis=-1),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 1.0), sample_count=101)
    with pytest.raises(ValueError, match="unit"):
        analyze(spec)


def _nan_at(fn, index):
    def poisoned(u):
        out = np.array(fn(u), dtype=float)
        out[index] = np.nan
        return out
    return poisoned


@pytest.mark.parametrize("field, error, message", [
    ("director", ValueError, "not a unit field"),
    ("director_d1", DegenerateIndicatrix, "indicatrix speed falls to nan"),
    ("base", ValueError, "non-finite"),
    ("base_d1", ValueError, "non-finite"),
    ("base_d2", ValueError, "non-finite"),
    ("director_d2", ValueError, "non-finite")],
    ids=["director", "director_d1", "base", "base_d1", "base_d2",
         "director_d2"])
def test_nan_sample_fails_closed(field, error, message):
    # a NaN compares False, so a guard written as `defect > tol` let it pass
    spec = catalog.cone(np.pi / 4, sample_count=201)
    spec = replace(spec, **{field: _nan_at(getattr(spec, field), 50)})
    with pytest.raises(error, match=message):
        analyze(spec)


@pytest.mark.parametrize("grid, span", [
    (np.nan, (0.0, 3.5)), (np.inf, (0.0, 3.5)), (None, (-1.7e308, 1.7e308))],
    ids=["nan_grid", "inf_grid", "overflowing_param_range"])
def test_non_finite_grid_fails_closed(grid, span):
    # a NaN step compares False, so the uniformity guard let it pass to the
    # unit-director check, which blamed the director
    spec = catalog.cone(np.pi / 4, span, 201)
    if grid is not None:
        u = np.linspace(*span, 201)
        u[2] = grid
        spec = replace(spec, grid=u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sample grid must be finite"):
            analyze(spec)


def test_inf_speed_sample_names_its_cause():
    # +inf passes the speed guard; past it the quadrature warned, then
    # blamed the arc length for failing to increase
    spec = catalog.small_circle(np.pi / 6, 1.0, (0.0, 3.0), 201)
    d1 = spec.director_d1

    def poisoned(u):
        out = np.array(d1(u), dtype=float)
        out[100, 0] = np.inf
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^surface oracles returned "
                                             "non-finite samples$"):
            analyze(replace(spec, director_d1=poisoned))


def test_sampled_surface_rejects_nan_director():
    u = np.linspace(0.0, 1.0, 11)
    e = np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=-1)
    e[4, 1] = np.nan
    with pytest.raises(ValueError, match="not unit vectors"):
        sampled_surface(u, e, np.zeros_like(e))


def test_frame_ode_nan_defect_propagates():
    # a NaN second derivative poisons the t and g rows at one sample; the
    # real maximum must not read it as a pass
    a = analyze(catalog.cone(np.pi / 4, (0.0, 3.0), 201))
    e_uu = np.array(a.derivative("e_uu"))
    e_uu[:, 100] = np.nan
    res = frame_ode_residual(replace(a, e_uu=e_uu))
    assert np.isnan(res.real_max) and np.isnan(res.dual_max)
