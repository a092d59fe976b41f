"""Ruled-surface analysis engine.

A ruled surface phi(u, v) = c(u) + v*e(u) is described by a unit director
field e(u) (its spherical indicatrix) and a base curve.  The pipeline

  1. samples director and base on a uniform grid,
  2. integrates the indicatrix arc length s (quadrature),
  3. replaces the base curve by the striction curve c (the unique base
     with <c', e'> = 0),
  4. builds the geodesic frame {e, t, g} with t = de/ds and g = e x t,
  5. computes the scalar invariants: distribution parameter Delta,
     delta = <dc/ds, e>, conical curvature gamma, and the dual arc-length
     part s* = integral of Delta ds,
  6. optionally derives the dual curvature quantities (curvature radius,
     spherical radius of curvature, unit Darboux axis) with exact dual
     arithmetic.

Derivatives come from analytic oracles when the spec provides them and
from second-order central differences on the grid otherwise; endpoint
samples use one-sided stencils and are excluded from residual claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from .dual import DualAngle, DualScalar, DualVector, dual_div, dual_sqrt
from .errors import DegenerateIndicatrix

# Indicatrix speeds below this mean the director is (locally) constant.
DEGENERATE_SIGMA = 1e-9
# Director samples must be unit vectors within this tolerance.
DIRECTOR_UNIT_TOL = 1e-9


@dataclass
class SurfaceSpec:
    """Parametric description of a ruled surface.

    director/base must be vectorized: they map a 1-D array of n parameters
    to an (n, 3) array.  The *_d1 / *_d2 entries are optional
    analytic derivative oracles with the same signature; when absent the
    engine falls back to finite differences on the sample grid.  `grid`
    pins the surface to a fixed uniform sample grid (used for surfaces
    defined by discrete samples); it overrides param_range/sample_count.
    """

    director: Callable
    base: Callable
    param_range: tuple[float, float]
    sample_count: int = 2001
    director_d1: Optional[Callable] = None
    director_d2: Optional[Callable] = None
    base_d1: Optional[Callable] = None
    base_d2: Optional[Callable] = None
    grid: Optional[np.ndarray] = None
    name: str = ""

    @property
    def has_analytic_frame(self) -> bool:
        """True when every derivative the frame needs has an oracle."""
        return all(fn is not None for fn in
                   (self.director_d1, self.director_d2,
                    self.base_d1, self.base_d2))


class Reparametrization:
    """Monotone Hermite maps between the native parameter u and the
    indicatrix arc length s; they back the chain-rule consistency check."""

    def __init__(self, u: np.ndarray, s: np.ndarray, sigma: np.ndarray):
        self.u = u
        self._s_of_u = CubicHermiteSpline(u, s, sigma)
        self._u_of_s = CubicHermiteSpline(s, u, 1.0 / sigma)

    def chain_rule_residual(self) -> float:
        """max |ds/du * du/ds - 1| over nodes and interval midpoints."""
        probe = np.concatenate([self.u, 0.5 * (self.u[1:] + self.u[:-1])])
        ds_du = self._s_of_u.derivative()
        du_ds = self._u_of_s.derivative()
        r = ds_du(probe) * du_ds(self._s_of_u(probe)) - 1.0
        return float(np.max(np.abs(r)))


@dataclass
class DualCurvatureInvariants:
    """Per-sample dual curvature R, dual spherical radius of curvature rho,
    and the unit vector along the dual Darboux axis."""

    R: DualScalar        # fields are (n,) arrays
    rho: DualAngle       # fields are (n,) arrays
    d0: DualVector       # fields are (n, 3) arrays

    def radius_identity_residual(self, gamma_bar: DualScalar) -> float:
        """max componentwise defect of sin(rho) = R and cot(rho) = gamma."""
        sin_rho = self.rho.sin()
        cos_rho = self.rho.cos()
        cot_rho = dual_div(cos_rho, sin_rho)
        res = [np.abs(sin_rho.real - self.R.real),
               np.abs(sin_rho.dual - self.R.dual),
               np.abs(cot_rho.real - gamma_bar.real),
               np.abs(cot_rho.dual - gamma_bar.dual)]
        return float(max(np.max(r) for r in res))


@dataclass(frozen=True)
class SurfaceAnalysis:
    """Full per-sample state of an analyzed ruled surface (immutable)."""

    spec: SurfaceSpec
    u: np.ndarray
    s: np.ndarray
    s_star: np.ndarray
    sigma: np.ndarray
    c: np.ndarray
    e: np.ndarray
    t: np.ndarray
    g: np.ndarray
    Delta: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    gamma_dual: np.ndarray
    reparam: Reparametrization
    analytic_frame: bool
    # raw derivative arrays kept for residual diagnostics
    e_u: np.ndarray = field(repr=False, default=None)
    e_uu: np.ndarray = field(repr=False, default=None)
    c_u: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.u)

    def gamma_bar(self) -> DualScalar:
        return DualScalar(self.gamma, self.gamma_dual)

    def dual_frame(self) -> tuple[DualVector, DualVector, DualVector]:
        """Dual Darboux frame: e, t, g with moments taken about the
        striction curve."""
        return (DualVector(self.e, np.cross(self.c, self.e)),
                DualVector(self.t, np.cross(self.c, self.t)),
                DualVector(self.g, np.cross(self.c, self.g)))

    def invariants(self) -> DualCurvatureInvariants:
        """Dual curvature invariants, computed afresh on every call."""
        return dual_invariants(self)


def _eval_curve(fn: Callable, u: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized curve callable: (n,) parameters -> (n, 3)."""
    out = np.asarray(fn(u), dtype=float)
    if out.shape != u.shape + (3,):
        raise ValueError(
            f"curve callables must be vectorized, mapping shape {u.shape} to "
            f"{u.shape + (3,)}; got shape {out.shape}")
    return out


def _fd1(y: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative on a uniform grid (axis 0)."""
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * h)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    return d


def _grid_of(spec: SurfaceSpec) -> tuple[np.ndarray, float]:
    if spec.grid is not None:
        u = np.asarray(spec.grid, dtype=float)
        if len(u) < 5:
            raise ValueError("need at least 5 samples")
        steps = np.diff(u)
        h = float(steps[0])
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-8 * abs(h):
            raise ValueError("sample grid must be uniform and increasing")
        return u, h
    lo, hi = spec.param_range
    n = spec.sample_count
    if n < 5 or n % 2 == 0:
        raise ValueError(
            f"sample_count must be odd and >= 5 (got {n}): the arc-length "
            "quadrature uses composite Simpson")
    u = np.linspace(float(lo), float(hi), n)
    return u, float(u[1] - u[0])


def analyze(spec: SurfaceSpec) -> SurfaceAnalysis:
    """Run the full pipeline: reparametrization, striction curve, geodesic
    frame and invariants on the sample grid."""
    u, h = _grid_of(spec)
    e = _eval_curve(spec.director, u)
    unit_defect = np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0))
    if unit_defect > DIRECTOR_UNIT_TOL:
        raise ValueError(
            f"director is not a unit field (max defect {unit_defect:.3e})")
    e_u = (_eval_curve(spec.director_d1, u) if spec.director_d1 is not None
           else _fd1(e, h))
    e_uu = (_eval_curve(spec.director_d2, u) if spec.director_d2 is not None
            else _fd1(e_u, h))

    sigma = np.linalg.norm(e_u, axis=1)
    if np.min(sigma) < DEGENERATE_SIGMA:
        raise DegenerateIndicatrix(
            f"indicatrix speed falls to {np.min(sigma):.3e}: the director "
            "is (locally) constant")

    p = _eval_curve(spec.base, u)
    p_u = (_eval_curve(spec.base_d1, u) if spec.base_d1 is not None
           else _fd1(p, h))

    sig2 = sigma * sigma
    lam = -np.sum(p_u * e_u, axis=1) / sig2
    c = p + lam[:, None] * e

    analytic = spec.has_analytic_frame
    if analytic:
        p_uu = _eval_curve(spec.base_d2, u)
        sig_u = np.sum(e_u * e_uu, axis=1) / sigma
        lam_u = (-(np.sum(p_uu * e_u, axis=1) + np.sum(p_u * e_uu, axis=1))
                 / sig2
                 + 2.0 * np.sum(p_u * e_u, axis=1) * sig_u / (sig2 * sigma))
        c_u = p_u + lam_u[:, None] * e + lam[:, None] * e_u
    else:
        c_u = _fd1(c, h)

    t = e_u / sigma[:, None]
    g = np.cross(e, t)
    c_s = c_u / sigma[:, None]

    delta = np.sum(c_s * e, axis=1)
    Delta = np.sum(c_s * g, axis=1)
    # conical curvature: det(e, e', e'') / sigma^3
    gamma = np.sum(np.cross(e, e_u) * e_uu, axis=1) / (sig2 * sigma)
    gamma_dual = delta - gamma * Delta

    s = cumulative_simpson(sigma, x=u, initial=0.0)
    s_star = cumulative_simpson(Delta * sigma, x=u, initial=0.0)
    if np.any(np.diff(s) <= 0.0):
        raise DegenerateIndicatrix("arc length failed to increase strictly")

    return SurfaceAnalysis(
        spec=spec, u=u, s=s, s_star=s_star, sigma=sigma, c=c, e=e, t=t, g=g,
        Delta=Delta, delta=delta, gamma=gamma, gamma_dual=gamma_dual,
        reparam=Reparametrization(u, s, sigma), analytic_frame=analytic,
        e_u=e_u, e_uu=e_uu, c_u=c_u)


def dual_invariants(analysis: SurfaceAnalysis) -> DualCurvatureInvariants:
    """Dual curvature 1/sqrt(1 + gamma_bar^2), the matching spherical
    radius of curvature, and the unit dual Darboux vector, all computed
    with exact dual arithmetic per sample."""
    gb = analysis.gamma_bar()
    R = dual_div(DualScalar(1.0, 0.0), dual_sqrt(gb * gb + 1.0))
    cos_rho = gb * R
    sin_rho = R
    rho = np.arctan2(sin_rho.real, cos_rho.real)
    # cos^2 + sin^2 = 1 as a dual identity, so the atan2 pushforward is exact
    rho_star = np.cos(rho) * sin_rho.dual - np.sin(rho) * cos_rho.dual

    e_t, _, g_t = analysis.dual_frame()
    d0 = e_t.scale(cos_rho) + g_t.scale(sin_rho)
    return DualCurvatureInvariants(R=R, rho=DualAngle(rho, rho_star), d0=d0)


@dataclass(frozen=True)
class FrameOdeResiduals:
    """Max finite-difference defects of the frame evolution equations."""

    real_max: float
    dual_max: float
    orthonormality_max: float
    per_equation: dict


def frame_ode_residual(analysis: SurfaceAnalysis,
                       trim: int = 2) -> FrameOdeResiduals:
    """Check the frame evolution de/ds = t, dt/ds = gamma*g - e,
    dg/ds = -gamma*t and its dual counterpart (derivatives taken with
    respect to the dual arc length).

    Frame derivatives are formed the same way the pipeline formed the
    frame: from analytic oracles when the spec has them, from grid
    differences otherwise.  `trim` samples at each end are excluded
    (one-sided stencils there)."""
    a = analysis
    h = float(a.u[1] - a.u[0])
    sl = slice(trim, a.n - trim if trim else a.n)

    if a.analytic_frame:
        sig_u = np.sum(a.e_u * a.e_uu, axis=1) / a.sigma
        t_u = a.e_uu / a.sigma[:, None] - a.e_u * (sig_u / (a.sigma ** 2))[:, None]
        g_u = np.cross(a.e_u, a.t) + np.cross(a.e, t_u)
        c_u = a.c_u
    else:
        t_u = _fd1(a.t, h)
        g_u = _fd1(a.g, h)
        c_u = a.c_u

    # real parts evolve in s
    e_s = a.e_u / a.sigma[:, None]
    t_s = t_u / a.sigma[:, None]
    g_s = g_u / a.sigma[:, None]
    gam = a.gamma[:, None]
    res_e = np.linalg.norm(e_s - a.t, axis=1)
    res_t = np.linalg.norm(t_s - (gam * a.g - a.e), axis=1)
    res_g = np.linalg.norm(g_s + gam * a.t, axis=1)

    # dual parts evolve in the dual arc length: divide by sigma*(1 + eps*Delta)
    e_t, t_t, g_t = a.dual_frame()
    speed = DualScalar(a.sigma, a.sigma * a.Delta)
    inv_speed = dual_div(DualScalar(1.0, 0.0), speed)

    def d_dsbar(real_u, dual_u) -> DualVector:
        return DualVector(real_u, dual_u).scale(inv_speed)

    def moment_u(vec_u, vec):
        return np.cross(c_u, vec) + np.cross(a.c, vec_u)

    de = d_dsbar(a.e_u, moment_u(a.e_u, a.e))
    dt = d_dsbar(t_u, moment_u(t_u, a.t))
    dg = d_dsbar(g_u, moment_u(g_u, a.g))
    gb = a.gamma_bar()
    rhs_t = g_t.scale(gb) - e_t
    rhs_g = -(t_t.scale(gb))
    dres_e = np.linalg.norm(de.dual - t_t.dual, axis=1)
    dres_t = np.linalg.norm(dt.dual - rhs_t.dual, axis=1)
    dres_g = np.linalg.norm(dg.dual - rhs_g.dual, axis=1)

    ortho = np.max(np.abs(np.stack([
        np.sum(a.e * a.t, axis=1), np.sum(a.t * a.g, axis=1),
        np.sum(a.e * a.g, axis=1),
        np.linalg.norm(a.e, axis=1) - 1.0,
        np.linalg.norm(a.t, axis=1) - 1.0,
        np.linalg.norm(a.g, axis=1) - 1.0])))

    per = {"e": float(np.max(res_e[sl])), "t": float(np.max(res_t[sl])),
           "g": float(np.max(res_g[sl])),
           "e_dual": float(np.max(dres_e[sl])),
           "t_dual": float(np.max(dres_t[sl])),
           "g_dual": float(np.max(dres_g[sl]))}
    return FrameOdeResiduals(
        real_max=max(per["e"], per["t"], per["g"]),
        dual_max=max(per["e_dual"], per["t_dual"], per["g_dual"]),
        orthonormality_max=float(ortho),
        per_equation=per)


def sampled_surface(u: np.ndarray, directors: np.ndarray,
                    bases: np.ndarray, name: str = "sampled") -> SurfaceSpec:
    """Build a spec from discrete samples (e.g. re-ingested CSV output).

    The analysis runs on the given grid, where the callables reproduce the
    samples exactly; off-grid queries use cubic interpolation.  Directors
    are renormalized (17-digit round trips drift below 1e-12)."""
    u = np.asarray(u, dtype=float)
    e = np.asarray(directors, dtype=float)
    p = np.asarray(bases, dtype=float)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.max(np.abs(norms - 1.0)) > DIRECTOR_UNIT_TOL:
        raise ValueError("sampled directors are not unit vectors")
    e = e / norms
    e_spline = CubicSpline(u, e, axis=0)
    p_spline = CubicSpline(u, p, axis=0)
    return SurfaceSpec(
        director=lambda x: e_spline(x), base=lambda x: p_spline(x),
        param_range=(float(u[0]), float(u[-1])), sample_count=len(u),
        grid=u, name=name)


def unit_normalized(raw: Callable, raw_d1: Optional[Callable] = None,
                    raw_d2: Optional[Callable] = None):
    """Normalize a raw space curve to a unit field, with chain-rule
    derivatives when the raw derivatives are available.

    Returns (fn, d1, d2); d1 needs raw_d1, d2 needs raw_d1 and raw_d2.
    """
    def _n(u):
        r = np.asarray(raw(u), dtype=float)
        return r / np.linalg.norm(r, axis=-1, keepdims=True)

    d1 = d2 = None
    if raw_d1 is not None:
        def d1(u):
            r = np.asarray(raw(u), dtype=float)
            r1 = np.asarray(raw_d1(u), dtype=float)
            rho = np.linalg.norm(r, axis=-1, keepdims=True)
            rr1 = np.sum(r * r1, axis=-1, keepdims=True)
            return r1 / rho - r * rr1 / rho ** 3

        if raw_d2 is not None:
            def d2(u):
                r = np.asarray(raw(u), dtype=float)
                r1 = np.asarray(raw_d1(u), dtype=float)
                r2 = np.asarray(raw_d2(u), dtype=float)
                rho = np.linalg.norm(r, axis=-1, keepdims=True)
                rr1 = np.sum(r * r1, axis=-1, keepdims=True)
                r1r1 = np.sum(r1 * r1, axis=-1, keepdims=True)
                rr2 = np.sum(r * r2, axis=-1, keepdims=True)
                return (r2 / rho
                        - (2.0 * r1 * rr1 + r * (r1r1 + rr2)) / rho ** 3
                        + 3.0 * r * rr1 ** 2 / rho ** 5)

    return _n, d1, d2
