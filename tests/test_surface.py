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

import numpy as np
import pytest

from ruledgeom import catalog
from ruledgeom.errors import DegenerateIndicatrix
from ruledgeom.surface import (SurfaceSpec, analyze, dual_curve,
                               dual_invariants, evaluate_surface,
                               frame_ode_residual, is_developable,
                               reparametrize, sampled_surface,
                               striction_curve)

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
    rep = reparametrize(spec)
    assert np.max(np.abs(rep.s - rep.u)) < 1e-10
    assert np.max(np.abs(rep.sigma - 1.0)) < 1e-12


def test_great_circle_sampled_close_to_unit_speed():
    # without oracles the speed carries only finite-difference truncation
    spec = SurfaceSpec(
        director=lambda u: np.stack(
            [np.cos(u), np.sin(u), np.zeros_like(np.asarray(u, float))],
            axis=-1),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 2.0), sample_count=501)
    rep = reparametrize(spec)
    assert np.max(np.abs(rep.s - rep.u)) < 1e-4


def test_saddle_speed_at_center():
    rep = reparametrize(saddle())
    assert abs(rep.ds_du(0.0) - SQ2) < 1e-12


def test_constant_director_degenerates():
    spec = SurfaceSpec(
        director=lambda u: np.broadcast_to(
            [1.0, 0.0, 0.0], np.asarray(u, float).shape + (3,)).copy(),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 1.0), sample_count=101)
    with pytest.raises(DegenerateIndicatrix):
        reparametrize(spec)
    with pytest.raises(DegenerateIndicatrix):
        analyze(spec)


def test_chain_rule_consistency():
    rep = reparametrize(saddle())
    assert rep.chain_rule_residual() < 1e-8


# --- striction curve ---

def test_saddle_striction_equals_base():
    c = striction_curve(saddle())
    u = np.linspace(-1, 1, 17)
    want = np.stack([u / 2, u / 2, np.zeros_like(u)], axis=1)
    assert np.max(np.abs(c(u) - want)) < 1e-12


def test_cone_striction_is_apex():
    c = striction_curve(catalog.cone(np.pi / 4))
    u = np.linspace(0, 2 * np.pi, 13)
    assert np.max(np.abs(c(u))) < 1e-12


def test_striction_fixes_valid_base():
    # the hyperboloid base already satisfies the striction condition
    spec = catalog.small_circle(np.pi / 6, 1.0)
    c = striction_curve(spec)
    u = np.linspace(0, 2 * np.pi, 13)
    assert np.max(np.abs(c(u) - spec.base(u))) < 1e-12


def test_striction_without_oracles():
    c = striction_curve(saddle(oracles=False))
    u = np.linspace(-0.9, 0.9, 7)
    want = np.stack([u / 2, u / 2, np.zeros_like(u)], axis=1)
    assert np.max(np.abs(c(u) - want)) < 1e-8


# --- the dual spherical curve ---

def test_saddle_dual_ruling_at_center():
    k = dual_curve(saddle())
    v = k(0.0)
    assert np.allclose(v.real, [SQ2 / 2, -SQ2 / 2, 0.0], atol=1e-12)
    assert np.allclose(v.dual, [0.0, 0.0, 0.0], atol=1e-12)


def test_cone_dual_part_vanishes():
    # every ruling passes through the origin
    k = dual_curve(catalog.cone(0.6))
    v = k(np.linspace(0, 6, 25))
    assert np.max(np.abs(v.dual)) < 1e-12


def test_dual_part_is_striction_cross_director():
    spec = catalog.small_circle(np.pi / 3, 2.0)
    k = dual_curve(spec)
    u = np.linspace(0.2, 5.8, 9)
    c = striction_curve(spec)(u)
    e = spec.director(u)
    assert np.max(np.abs(k(u).dual - np.cross(c, e))) < 1e-12


# --- frame and invariants ---

def test_saddle_frame_and_invariants():
    a = analyze(saddle())
    assert np.max(np.abs(a.gamma)) < 1e-12
    assert np.max(np.abs(a.delta)) < 1e-12
    assert np.max(np.abs(a.Delta + 0.5 * (1 + 2 * a.u ** 2))) < 1e-12
    assert np.max(np.abs(a.g - np.array([-SQ2 / 2, -SQ2 / 2, 0.0]))) < 1e-12


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
    det = np.sum(np.cross(a.e, a.t) * a.g, axis=1)
    assert np.max(np.abs(det - 1.0)) < 1e-9


# --- striction structure ---

def test_striction_decomposition():
    # c' = delta e + Delta g, which also pins <c', t> = 0
    for spec in (saddle(), catalog.small_circle(np.pi / 6, 1.0, (0.0, 5.0), 1001)):
        a = analyze(spec)
        c_s = a.c_u / a.sigma[:, None]
        res = c_s - a.delta[:, None] * a.e - a.Delta[:, None] * a.g
        assert np.max(np.linalg.norm(res[2:-2], axis=1)) < 1e-5
        assert np.max(np.abs(np.sum(c_s * a.t, axis=1)[2:-2])) < 1e-6


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
    assert np.max(np.abs(inv.rho.theta - np.pi / 2)) < 1e-12
    assert np.max(np.abs(inv.rho.theta_star)) < 1e-12
    _, _, g_t = a.dual_frame()
    assert np.max(np.abs(inv.d0.real - g_t.real)) < 1e-12
    assert np.max(np.abs(inv.d0.dual - g_t.dual)) < 1e-12


def test_invariants_unit_curvature():
    # cone with half-angle pi/4: gamma_bar = 1 + eps*0 -> R = 1/sqrt(2)
    a = analyze(catalog.cone(np.pi / 4, (0.0, 4.0), 1001))
    inv = dual_invariants(a)
    assert np.max(np.abs(inv.R.real - 1.0 / SQ2)) < 1e-12
    assert np.max(np.abs(inv.R.dual)) < 1e-12
    assert np.max(np.abs(inv.rho.theta - np.pi / 4)) < 1e-12


def test_radius_identities():
    for spec in (saddle(), catalog.small_circle(0.4, 1.0, (0.0, 5.0), 1001)):
        a = analyze(spec)
        inv = a.invariants()
        assert inv.radius_identity_residual(a.gamma_bar()) < 1e-9


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
    assert np.allclose(evaluate_surface(a, 0.0, 0.0), [0, 0, 0], atol=1e-12)
    assert np.allclose(evaluate_surface(a, 0.0, 1.0),
                       [SQ2 / 2, -SQ2 / 2, 0.0], atol=1e-12)
    p0 = evaluate_surface(a, 0.37, 0.0)
    p1 = evaluate_surface(a, 0.37, 0.8)
    p2 = evaluate_surface(a, 0.37, 1.6)
    assert np.allclose(p2 - p0, 2 * (p1 - p0), atol=1e-10)
    with pytest.raises(ValueError):
        evaluate_surface(a, 1.5, 0.0)


def test_is_developable():
    flag, m = is_developable(analyze(catalog.cone(np.pi / 4)), 1e-8)
    assert flag and m < 1e-12
    flag, m = is_developable(analyze(saddle()), 1e-8)
    assert not flag and m >= 0.5


# --- sampled input path ---

def test_sampled_surface_reproduces_invariants():
    a = analyze(saddle())
    spec = sampled_surface(a.u, a.e, a.c)
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


def test_non_unit_director_rejected():
    spec = SurfaceSpec(
        director=lambda u: np.stack(
            [np.cos(u) * 1.01, np.sin(u) * 1.01,
             np.zeros_like(np.asarray(u, float))], axis=-1),
        base=lambda u: np.zeros(np.asarray(u, float).shape + (3,)),
        param_range=(0.0, 1.0), sample_count=101)
    with pytest.raises(ValueError, match="unit"):
        analyze(spec)
