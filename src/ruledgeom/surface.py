"""Ruled-surface analysis engine.

A ruled surface phi(u, v) = c(u) + v*e(u) is described by a unit director
field e(u) (its spherical indicatrix) and a base curve.  The pipeline

  1. samples director and base on a uniform grid,
  2. integrates the indicatrix arc length s (quadrature: the cumulative
     composite Simpson rule with the arithmetic of scipy 1.17.1's
     cumulative_simpson, bit for bit, its weights built once per grid and
     only for the windows that rule keeps),
  3. replaces the base curve by the striction curve c (the unique base
     with <c', e'> = 0),
  4. builds the geodesic frame {e, t, g} with t = de/ds and g = e x t,
  5. computes the scalar invariants: distribution parameter Delta,
     delta = <dc/ds, e>, conical curvature gamma, and the dual arc-length
     part s* = integral of Delta ds,
  6. optionally derives the dual curvature quantities (curvature radius,
     spherical radius of curvature, and, when read, the unit Darboux
     axis) with exact dual arithmetic.

Derivatives come from analytic oracles when the spec provides them and
from second-order central differences on the grid otherwise; endpoint
samples use one-sided stencils and are excluded from residual claims.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import solve_banded

from .dual import (DualScalar, DualVector, cross3, dot3, dual_cos, dual_div,
                   dual_sin, dual_sqrt, norm3, read_only)
from .errors import DegenerateIndicatrix

# Indicatrix speeds below this mean the director is (locally) constant.
DEGENERATE_SIGMA = 1e-9
# Director samples must be unit vectors within this tolerance.
DIRECTOR_UNIT_TOL = 1e-9
# Samples excluded from residuals at each grid end (one-sided stencils).
END_TRIM = 2


@dataclass
class SurfaceSpec:
    """Parametric description of a ruled surface.

    director/base must be vectorized: they map a 1-D array of n parameters
    to an (n, 3) array (the analysis stores every vector field transposed,
    as (3, n)).  The *_d1 / *_d2 entries are optional
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
    """The native parameter u, the indicatrix arc length s and the speed
    sigma = ds/du; they back the chain-rule consistency check."""

    def __init__(self, u: np.ndarray, s: np.ndarray, sigma: np.ndarray):
        self.u, self.s, self.sigma = u, s, sigma

    def chain_rule_residual(self) -> float:
        """max |ds/du * du/ds - 1| over nodes and interval midpoints of the
        monotone Hermite maps s(u) and u(s)."""
        s_of_u = CubicHermiteSpline(self.u, self.s, self.sigma)
        u_of_s = CubicHermiteSpline(self.s, self.u, 1.0 / self.sigma)
        probe = np.concatenate([self.u, 0.5 * (self.u[1:] + self.u[:-1])])
        ds_du = s_of_u.derivative()
        du_ds = u_of_s.derivative()
        r = ds_du(probe) * du_ds(s_of_u(probe)) - 1.0
        return float(np.max(np.abs(r)))


@dataclass(frozen=True)
class DualCurvatureInvariants:
    """Per-sample dual curvature R, dual spherical radius of curvature rho,
    and the unit vector d0 along the dual Darboux axis, built on first
    read from cos(rho) and the dual frame's e and g."""

    R: DualScalar        # fields are (n,) arrays; R = sin(rho)
    rho: DualScalar      # fields are (n,) arrays
    cos_rho: DualScalar = field(repr=False)
    frame_eg: tuple[DualVector, DualVector] = field(repr=False)

    @functools.cached_property
    def d0(self) -> DualVector:
        """cos(rho) e + sin(rho) g; fields are (3, n) arrays."""
        e_t, g_t = self.frame_eg
        return self.cos_rho * e_t + self.R * g_t

    def radius_identity_residual(self, gamma_bar: DualScalar) -> float:
        """max componentwise defect of sin(rho) = R and cot(rho) = gamma."""
        sin_rho = dual_sin(self.rho)
        cos_rho = dual_cos(self.rho)
        cot_rho = dual_div(cos_rho, sin_rho)
        # np.max, not max(): a NaN defect must propagate
        return float(np.max([np.max(np.abs(x - y)) for x, y in (
            (sin_rho.real, self.R.real), (sin_rho.dual, self.R.dual),
            (cot_rho.real, gamma_bar.real), (cot_rho.dual, gamma_bar.dual))]))


@dataclass(frozen=True)
class SurfaceAnalysis:
    """Full per-sample state of an analyzed ruled surface (immutable: every
    array field is a read-only view).  Scalar fields are (n,) arrays;
    vector fields are C-contiguous (3, n) arrays, one row per component."""

    spec: SurfaceSpec
    u: np.ndarray
    s: np.ndarray
    s_star: np.ndarray
    sigma: np.ndarray
    c: np.ndarray
    e: np.ndarray
    t: np.ndarray
    g: np.ndarray
    # moments c x e, c x t, c x g about the striction curve: the dual parts
    # of the dual Darboux frame
    e_star: np.ndarray
    t_star: np.ndarray
    g_star: np.ndarray
    Delta: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    gamma_dual: np.ndarray
    reparam: Reparametrization
    # raw derivative arrays kept for residual diagnostics
    e_u: np.ndarray = field(repr=False, default=None)
    e_uu: np.ndarray = field(repr=False, default=None)
    c_u: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, f.name, read_only(value))

    @property
    def n(self) -> int:
        return len(self.u)

    def gamma_bar(self) -> DualScalar:
        return DualScalar(self.gamma, self.gamma_dual)

    def dual_frame(self) -> tuple[DualVector, DualVector, DualVector]:
        """Dual Darboux frame: e, t, g with moments taken about the
        striction curve."""
        return (DualVector(self.e, self.e_star),
                DualVector(self.t, self.t_star),
                DualVector(self.g, self.g_star))

    def invariants(self) -> DualCurvatureInvariants:
        """Dual curvature invariants, computed afresh on every call."""
        return dual_invariants(self)


def _eval_curve(fn: Callable, u: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized curve callable, (n,) parameters -> (n, 3),
    and return its samples as a C-contiguous (3, n) array."""
    out = np.asarray(fn(u), dtype=float)
    if out.shape != u.shape + (3,):
        raise ValueError(
            f"curve callables must be vectorized, mapping shape {u.shape} to "
            f"{u.shape + (3,)}; got shape {out.shape}")
    return np.ascontiguousarray(out.T)


def _not_a_knot_slopes(u: np.ndarray, y: np.ndarray) -> tuple:
    """(dx, slope, s) of CubicSpline(u, y.T, axis=0) for (3, n) samples y,
    n >= 4: the steps, the (n - 1, 3) secant slopes and the (n, 3) slopes
    at the nodes, with its input checks, its not-a-knot band system and
    its solve_banded call (scipy 1.17.1)."""
    if not np.isfinite(u).all():
        raise ValueError("`x` must contain only finite values.")
    if not np.isfinite(y).all():
        raise ValueError("`y` must contain only finite values.")
    n = len(u)
    dx = np.diff(u)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    dxr = dx.reshape(-1, 1)
    slope = np.diff(y.T, axis=0) / dxr
    A = np.zeros((3, n))
    b = np.empty((n, 3))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    A[1, 0] = dx[1]
    A[0, 1] = d = u[2] - u[0]
    b[0] = ((dxr[0] + 2*d) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = d = u[-1] - u[-3]
    b[-1] = ((dxr[-1]**2*slope[-2] + (2*d + dxr[-1])*dxr[-2]*slope[-1]) / d)
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    return dx, slope, s


def _spline_last_node(u: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """The value at u[-1] of CubicSpline(u, y.T, axis=0) for (3, n) samples
    y, n >= 4, with its bits, without fitting the spline; None when a bound
    cannot show that every coefficient of the spline is finite.

    From the slopes it forms, as CubicHermiteSpline does, the coefficients
    of the last piece only, and evaluates that piece as PPoly does (scipy
    1.17.1): the power sum c3 + c2 z + c1 z^2 + c0 z^3, term by term."""
    dx, slope, s = _not_a_knot_slopes(u, y)
    # piece k has c3 = y_k, c2 = s_k, c1 = (slope_k - s_k)/h_k - t_k and
    # c0 = t_k/h_k with t_k = (s_k + s_k+1 - 2 slope_k)/h_k; with every
    # |s|, |slope| <= m and h_k >= h, every term is at most 4m, 6m/h or
    # 4m/h^2 (np.max, not max(): a NaN slope must fail the bound)
    m = float(np.max([np.max(np.abs(s)), np.max(np.abs(slope))]))
    h = float(np.min(dx))
    bound = 8.0 * m if h >= 1.0 else 8.0 * m / h / h
    if not bound < np.inf:   # NaN fails too
        return None
    h_last = dx[-1:]
    t = (s[-2] + s[-1] - 2 * slope[-1]) / h_last
    c0, c1 = t / h_last, (slope[-1] - s[-2]) / h_last - t
    z = u[-1] - u[-2]
    zz = z * z
    return (0.0 + y[:, -2]) + s[-2] * z + c1 * zz + c0 * (zz * z)


def grid_spline(u: np.ndarray, y: np.ndarray) -> Callable:
    """The curve callable of the interpolating (not-a-knot) cubic spline
    CubicSpline(u, y.T, axis=0) through the (3, n) samples y on the grid
    u, with its bits, that fits the spline only where it is read.

    PPoly evaluates a piece at its left end as 0.0 + y + 0*(...), so at
    every node but the last the spline reads y + 0.0 (y itself, with -0.0
    read as +0.0); the last node, the right end of the last piece, comes
    from _spline_last_node.  The spline itself is fitted, once, on the
    first call off the grid, when a coefficient may not be finite (such a
    piece reads NaN at its node), and for n < 4; CubicSpline's input
    errors are raised here either way."""
    spline = last = None
    if len(u) < 4:
        spline = CubicSpline(u, y.T, axis=0)
    else:
        last = _spline_last_node(u, y)

    def curve(x):
        nonlocal spline
        if last is None or not (x is u or np.array_equal(x, u)):
            if spline is None:
                spline = CubicSpline(u, y.T, axis=0)
            return spline(x)
        out = (y + 0.0).T
        out[-1] = last
        return out
    return curve


def _fd1(y: np.ndarray, h: float) -> np.ndarray:
    """Second-order d/du of a (3, n) field on a uniform grid."""
    d = np.empty_like(y)
    d[:, 1:-1] = (y[:, 2:] - y[:, :-2]) / (2.0 * h)
    d[:, 0] = (-3.0 * y[:, 0] + 4.0 * y[:, 1] - y[:, 2]) / (2.0 * h)
    d[:, -1] = (3.0 * y[:, -1] - 4.0 * y[:, -2] + y[:, -3]) / (2.0 * h)
    return d


def _simpson_weights(x21: np.ndarray, x32: np.ndarray) -> tuple:
    """scipy's four weights of the Simpson windows whose first steps are
    x21 and second steps x32: the window's integral over its first step
    is w * (a*f1 + b*f2 + c*f3) of its three samples f1, f2, f3."""
    x21_x31 = x21 / (x21 + x32)
    q = x21_x31 * (x21 / x32)
    return x21 / 6, 3 - x21_x31, 3 + q + x21_x31, -q


def _simpson_steps(weights: tuple, f1, f2, f3) -> np.ndarray:
    w, a, b, c = weights
    return w * (a * f1 + b * f2 + c * f3)


def simpson_integrator(u: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """y -> cumulative_simpson(y, x=u, initial=0.0), the cumulative
    composite Simpson integral of samples y on the increasing grid u
    (n >= 3), with the bits of scipy 1.17.1, whose arithmetic it repeats.

    scipy integrates every step [u_k, u_k+1] twice, from the window
    (k, k+1, k+2) (h1) and from the window (k-1, k, k+1) read backwards
    (h2), and keeps h1 on the even steps and h2 on the odd ones (and on
    the last step of an even n).  Here the weights are built once, from u,
    and only for the kept windows."""
    n = len(u)
    dx = np.diff(u)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    m = n - 2 + n % 2     # the steps that whole window pairs cover
    even, odd = dx[0:m:2], dx[1:m:2]
    h1, h2 = _simpson_weights(even, odd), _simpson_weights(odd, even)
    tail = _simpson_weights(dx[m:], dx[m - 1:m]) if n % 2 == 0 else None

    def integrate(y: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        out[0] = 0.0
        steps = out[1:]
        steps[0:m:2] = _simpson_steps(h1, y[0:m:2], y[1:m:2], y[2:m + 1:2])
        steps[1:m:2] = _simpson_steps(h2, y[2:m + 1:2], y[1:m:2], y[0:m:2])
        if tail is not None:
            steps[m:] = _simpson_steps(tail, y[m + 1:], y[m:m + 1],
                                       y[m - 1:m])
        np.cumsum(steps, out=steps)
        steps += 0.0
        return out
    return integrate


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
    unit_defect = np.max(np.abs(norm3(e) - 1.0))
    if not unit_defect <= DIRECTOR_UNIT_TOL:   # guards fail on NaN too
        raise ValueError(
            f"director is not a unit field (max defect {unit_defect:.3e})")
    e_u = (_eval_curve(spec.director_d1, u) if spec.director_d1 is not None
           else _fd1(e, h))
    e_uu = (_eval_curve(spec.director_d2, u) if spec.director_d2 is not None
            else _fd1(e_u, h))

    sigma = norm3(e_u)
    if not np.min(sigma) >= DEGENERATE_SIGMA:
        raise DegenerateIndicatrix(
            f"indicatrix speed falls to {np.min(sigma):.3e}: the director "
            "is (locally) constant")
    if not np.isfinite(sigma).all():   # +inf passes the guard above
        raise ValueError("surface oracles returned non-finite samples")

    p = _eval_curve(spec.base, u)
    p_u = (_eval_curve(spec.base_d1, u) if spec.base_d1 is not None
           else _fd1(p, h))

    sig2 = sigma * sigma
    sig3 = sig2 * sigma
    pu_eu = dot3(p_u, e_u)
    lam = -pu_eu / sig2
    c = p + lam * e

    if spec.has_analytic_frame:
        p_uu = _eval_curve(spec.base_d2, u)
        sig_u = dot3(e_u, e_uu) / sigma
        lam_u = (-(dot3(p_uu, e_u) + dot3(p_u, e_uu)) / sig2
                 + 2.0 * pu_eu * sig_u / sig3)
        c_u = p_u + lam_u * e + lam * e_u
    else:
        c_u = _fd1(c, h)

    t = e_u / sigma
    g = cross3(e, t)
    c_s = c_u / sigma

    delta = dot3(c_s, e)
    Delta = dot3(c_s, g)
    # conical curvature: det(e, e', e'') / sigma^3
    gamma = dot3(cross3(e, e_u), e_uu) / sig3
    gamma_dual = delta - gamma * Delta

    integrate = simpson_integrator(u)
    s = integrate(sigma)
    s_star = integrate(Delta * sigma)
    if not np.all(np.diff(s) > 0.0):
        raise DegenerateIndicatrix("arc length failed to increase strictly")
    # a NaN or inf from any oracle reaches c, gamma or the running s_star
    if not (np.isfinite(s_star[-1]) and np.isfinite(c).all()
            and np.isfinite(gamma).all()):
        raise ValueError("surface oracles returned non-finite samples")

    return SurfaceAnalysis(
        spec=spec, u=u, s=s, s_star=s_star, sigma=sigma, c=c, e=e, t=t, g=g,
        e_star=cross3(c, e), t_star=cross3(c, t), g_star=cross3(c, g),
        Delta=Delta, delta=delta, gamma=gamma, gamma_dual=gamma_dual,
        reparam=Reparametrization(u, s, sigma),
        e_u=e_u, e_uu=e_uu, c_u=c_u)


def dual_invariants(analysis: SurfaceAnalysis) -> DualCurvatureInvariants:
    """Dual curvature 1/sqrt(1 + gamma_bar^2) and the matching spherical
    radius of curvature, computed with exact dual arithmetic per sample;
    the unit dual Darboux vector is built from them when first read."""
    gb = analysis.gamma_bar()
    R = dual_div(DualScalar(1.0, 0.0), dual_sqrt(gb * gb + 1.0))
    cos_rho = gb * R
    sin_rho = R
    rho = np.arctan2(sin_rho.real, cos_rho.real)
    # cos^2 + sin^2 = 1 as a dual identity, so the atan2 pushforward is exact
    rho_star = np.cos(rho) * sin_rho.dual - np.sin(rho) * cos_rho.dual

    e_t, _, g_t = analysis.dual_frame()
    return DualCurvatureInvariants(R=R, rho=DualScalar(rho, rho_star),
                                   cos_rho=cos_rho, frame_eg=(e_t, g_t))


@dataclass(frozen=True)
class FrameOdeResiduals:
    """Max finite-difference defects of the frame evolution equations."""

    real_max: float
    dual_max: float
    orthonormality_max: float


def frame_ode_residual(analysis: SurfaceAnalysis) -> FrameOdeResiduals:
    """Check the frame evolution de/ds = t, dt/ds = gamma*g - e,
    dg/ds = -gamma*t and its dual counterpart (derivatives taken with
    respect to the dual arc length).

    Frame derivatives are formed the same way the pipeline formed the
    frame: from analytic oracles when the spec has them, from grid
    differences otherwise.  END_TRIM samples at each end are excluded.
    The real row de/ds = t is not formed: `analyze` defines t as e_u/sigma,
    so its defect is 0 by construction, and real_max comes from the t and
    g equations.  A NaN defect in any row reads as a NaN maximum."""
    a = analysis
    h = float(a.u[1] - a.u[0])
    sl = slice(END_TRIM, a.n - END_TRIM)

    if a.spec.has_analytic_frame:
        sig_u = dot3(a.e_u, a.e_uu) / a.sigma
        t_u = a.e_uu / a.sigma - a.e_u * (sig_u / (a.sigma ** 2))
        g_u = cross3(a.e_u, a.t) + cross3(a.e, t_u)
    else:
        t_u = _fd1(a.t, h)
        g_u = _fd1(a.g, h)

    # real parts evolve in s
    res_t = norm3(t_u / a.sigma - (a.gamma * a.g - a.e))
    res_g = norm3(g_u / a.sigma + a.gamma * a.t)

    # dual parts evolve in the dual arc length: divide by sigma*(1 + eps*Delta)
    inv_speed = dual_div(DualScalar(1.0, 0.0),
                         DualScalar(a.sigma, a.sigma * a.Delta))

    def d_dsbar_dual(vec_u, vec):
        """Dual part of d/dsbar of the dual vector (vec, c x vec)."""
        moment_u = cross3(a.c_u, vec) + cross3(a.c, vec_u)
        return inv_speed.real * moment_u + inv_speed.dual * vec_u

    # dual parts of the right-hand sides gamma_bar*g~ - e~ and
    # -gamma_bar*t~ (the latter as gbar_t, the dual part of gamma_bar*t~)
    rhs_t = (a.gamma * a.g_star + a.gamma_dual * a.g) - a.e_star
    gbar_t = a.gamma * a.t_star + a.gamma_dual * a.t
    dres_e = norm3(d_dsbar_dual(a.e_u, a.e) - a.t_star)
    dres_t = norm3(d_dsbar_dual(t_u, a.t) - rhs_t)
    dres_g = norm3(d_dsbar_dual(g_u, a.g) + gbar_t)

    # np.max, not max(): a NaN defect must propagate
    ortho = np.max([np.max(np.abs(x)) for x in (
        dot3(a.e, a.t), dot3(a.t, a.g), dot3(a.e, a.g),
        norm3(a.e) - 1.0, norm3(a.t) - 1.0, norm3(a.g) - 1.0)])

    return FrameOdeResiduals(
        real_max=float(np.max([np.max(r[sl]) for r in (res_t, res_g)])),
        dual_max=float(np.max([np.max(r[sl])
                               for r in (dres_e, dres_t, dres_g)])),
        orthonormality_max=float(ortho))


def spline_surface(u: np.ndarray, e: np.ndarray, p: np.ndarray,
                   name: str) -> SurfaceSpec:
    """The spec of the surface through (3, n) director samples e and base
    samples p on the uniform grid u.  Its callables are grid_splines: they
    return the samples at every node but the last, whose bits the
    interpolating splines decide and which is computed without fitting
    them; off the grid they fit the splines, once, and interpolate."""
    return SurfaceSpec(
        director=grid_spline(u, e), base=grid_spline(u, p),
        param_range=(float(u[0]), float(u[-1])), sample_count=len(u),
        grid=u, name=name)


def sampled_surface(u: np.ndarray, directors: np.ndarray,
                    bases: np.ndarray, name: str = "sampled") -> SurfaceSpec:
    """spline_surface of (n, 3) director and base-point samples, one row
    per sample (e.g. re-ingested CSV output), with the directors
    renormalized (17-digit round trips drift below 1e-12)."""
    u = np.asarray(u, dtype=float)
    e = np.asarray(directors, dtype=float).T
    norms = norm3(e)
    if not np.max(np.abs(norms - 1.0)) <= DIRECTOR_UNIT_TOL:   # NaN fails too
        raise ValueError("sampled directors are not unit vectors")
    return spline_surface(u, e / norms, np.asarray(bases, dtype=float).T, name)

