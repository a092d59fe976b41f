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

A SurfaceAnalysis stores the sampled fields (u, s, s*, sigma, c, e, t, g),
the four scalar invariants and the derivatives that an oracle or the
analytic striction formula produced.  Everything else is formed for the
columns a reader asks for: the moments c x e, c x t and c x g of the dual
frame (dual_frame(sl)), and every derivative without an oracle
(derivative(name, sl): grid differences of e or c on the block and the
halo its stencils read).  Each formed element goes through the same
ufuncs whatever the columns, so a block has the bits of the same columns
of the whole field.

The per-sample arithmetic (the grid differences, striction curve, frame
and invariants of `analyze`, all of `frame_ode_residual`, and in
offsets.py the offset construction and comparison rows) runs in column
blocks of BLOCK samples, whose (3, BLOCK) temporaries stay in a 2-MB L2
cache; results go into the full arrays, and block maxima and counts are
merged.  Each element goes through the same ufuncs either way, so the
block size changes no bit, only the speed: it is a constant, not a
setting (8192 measured faster than 2048 and 32768; n <= BLOCK is one
block).  Oracles and quadrature run on the whole grid.

scipy: scipy.linalg is imported with this module; its LAPACK dgtsv solves
the band system of an offset's or a sampled surface's spline last node
(`offset`, sampled configs), and `analyze`, `mesh` and `verify` on a
builtin only import it.  The Hermite maps of the chain-rule check and the
last piece of a spline are formed and evaluated by two kernels here that
repeat scipy 1.17.1's CubicHermiteSpline and PPoly arithmetic bit for bit
(_hermite_coefficients, _ppoly_evaluate).  A spline surface is grid-bound:
its callables read the spline at its sample grid and raise off it, so the
package fits no spline and never imports scipy's interpolation subpackage.
scipy.linalg stays eager on purpose: deferring it too made every job
faster but moved the heap state that the benchmark's reference pass runs
in (CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .dual import (DualScalar, cross3, dot3, dual_cos, dual_div, dual_sin,
                   dual_sqrt, norm3, read_only, sum3)
from .errors import DegenerateIndicatrix

# Indicatrix speeds below this mean the director is (locally) constant.
DEGENERATE_SIGMA = 1e-9
# Director samples must be unit vectors within this tolerance.
DIRECTOR_UNIT_TOL = 1e-9
# Samples excluded from residuals at each grid end (one-sided stencils).
END_TRIM = 2
# Samples per column block of the per-sample arithmetic (module docstring).
BLOCK = 8192
# Raised for a grid with a NaN or inf sample, or a span that overflows.
_NON_FINITE = "sample grid must be finite (no NaN, inf or overflowing span)"


def _blocks(n: int):
    """Column slices of [0, n), BLOCK samples each (the last may be
    shorter)."""
    for start in range(0, n, BLOCK):
        yield slice(start, min(start + BLOCK, n))


def _interior(sl: slice, n: int) -> slice:
    """The columns of the block sl, counted from its start, that lie
    outside the END_TRIM samples at each end of an n-sample grid."""
    return slice(max(END_TRIM - sl.start, 0), max(n - END_TRIM - sl.start, 0))


def _cols(sl: slice, *arrays) -> tuple:
    """The columns sl of (n,) and (3, n) arrays, as views (the arrays
    themselves for slice(None), the whole grid)."""
    if sl == slice(None):
        return arrays
    return tuple(x[..., sl] for x in arrays)


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
        monotone Hermite maps s(u) and u(s), with the bits of scipy
        1.17.1's CubicHermiteSpline and its derivative()."""
        u, s = self.u, self.s
        s_of_u = _hermite_coefficients(u, s, self.sigma)
        u_of_s = _hermite_coefficients(s, u, 1.0 / self.sigma)
        probe = np.concatenate([u, 0.5 * (u[1:] + u[:-1])])
        ds_du = _ppoly_evaluate(u, _derivative(s_of_u), probe)
        du_ds = _ppoly_evaluate(s, _derivative(u_of_s),
                                _ppoly_evaluate(u, s_of_u, probe))
        r = ds_du * du_ds - 1.0
        return float(np.max(np.abs(r)))


@dataclass(frozen=True)
class DualCurvatureInvariants:
    """Per-sample dual curvature R and dual spherical radius of curvature
    rho; d0_cols(sl) forms the unit vector d0 along the dual Darboux axis
    from cos(rho) and the dual frame of the analysis."""

    R: DualScalar        # fields are (n,) arrays; R = sin(rho)
    rho: DualScalar      # fields are (n,) arrays
    cos_rho: DualScalar = field(repr=False)
    analysis: SurfaceAnalysis = field(repr=False)

    def d0_cols(self, sl: slice, frame: Optional[tuple] = None) -> DualScalar:
        """The columns sl of d0 = cos(rho) e + sin(rho) g, formed from the
        columns sl of its factors; frame is the analysis's dual_frame(sl)
        when the caller has formed it."""
        e_t, _, g_t = self.analysis.dual_frame(sl) if frame is None else frame
        return self.cos_rho.cols(sl) * e_t + self.R.cols(sl) * g_t

    def radius_identity_residual(self, gamma_bar: DualScalar) -> float:
        """max componentwise defect of sin(rho) = R and cot(rho) = gamma."""
        sin_rho = dual_sin(self.rho)
        cos_rho = dual_cos(self.rho)
        cot_rho = dual_div(cos_rho, sin_rho)
        # np.max, not max(): a NaN defect must propagate
        return float(np.max([np.max(np.abs(x - y)) for x, y in (
            (sin_rho.real, self.R.real), (sin_rho.dual, self.R.dual),
            (cot_rho.real, gamma_bar.real), (cot_rho.dual, gamma_bar.dual))]))


# each derivative field: the sampled field it differentiates, and the held
# derivatives that _grid_derivative reads for it, lowest order first
_DERIVATIVES = {"e_u": ("e", ("e_u",)), "e_uu": ("e", ("e_u", "e_uu")),
                "c_u": ("c", ("c_u",))}


@dataclass(frozen=True)
class SurfaceAnalysis:
    """Full per-sample state of an analyzed ruled surface (immutable: every
    array field is a read-only view).  Scalar fields are (n,) arrays;
    vector fields are C-contiguous (3, n) arrays, one row per component.

    It stores the sampled fields, the scalar invariants and the derivatives
    that an oracle or the analytic striction formula produced (e_u, e_uu,
    c_u; None where none did).  dual_frame(sl) forms the dual moments and
    derivative(name, sl) reads every derivative, held or formed, on the
    columns sl (module docstring)."""

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
    # the held derivatives; read them through derivative(name, sl)
    e_u: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    e_uu: Optional[np.ndarray] = field(default=None, repr=False,
                                       compare=False)
    c_u: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, read_only(value))

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def h(self) -> float:
        """The grid step."""
        return float(self.u[1] - self.u[0])

    def gamma_bar(self) -> DualScalar:
        return DualScalar(self.gamma, self.gamma_dual)

    def dual_frame(self, sl: slice = slice(None)) -> tuple[
            DualScalar, DualScalar, DualScalar]:
        """The columns sl of the dual Darboux frame: e, t and g, with their
        moments about the striction curve formed here, c x v for each."""
        c, *vectors = _cols(sl, self.c, self.e, self.t, self.g)
        return tuple(DualScalar(v, cross3(c, v)) for v in vectors)

    def derivative(self, name: str, sl: slice = slice(None)) -> np.ndarray:
        """The columns sl of e_u, e_uu or c_u, read-only: a view of the held
        array, or formed from e or c (_grid_derivative)."""
        y, chain = _DERIVATIVES[name]
        return read_only(_grid_derivative(
            slice(*sl.indices(self.n)), self.h, getattr(self, y),
            *(getattr(self, k) for k in chain)))

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
    n >= 4: the steps, the (3, n - 1) secant slopes and the (n, 3) slopes
    at the nodes, with its input checks and its not-a-knot band system
    (scipy 1.17.1).  The right-hand side is built in the (3, n) layout; its
    transpose, a Fortran-ordered (n, 3) array, goes to LAPACK dgtsv (the
    routine solve_banded calls for a (1, 1) band), which solves it in
    place, and s is that transpose."""
    n = len(u)
    if n < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    if not np.isfinite(u).all():
        raise ValueError("`x` must contain only finite values.")
    if not np.isfinite(y).all():
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(u)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    if n < 4:
        raise ValueError(f"a grid spline needs at least 4 samples (got {n})")
    slope = np.diff(y, axis=1)
    slope /= dx
    # the sub-, main and super-diagonal of the band
    dl, d, du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    np.add(dx[:-1], dx[1:], out=d[1:-1])
    d[1:-1] *= 2
    du[1:] = dx[:-1]
    dl[:-1] = dx[1:]
    b = np.empty((3, n))
    inner = np.multiply(dx[1:], slope[:, :-1], out=b[:, 1:-1])
    for k in range(3):     # (n,) temporaries
        inner[k] += dx[:-1] * slope[k, 1:]
    inner *= 3
    # the not-a-knot rows, with scipy's (1,) step arrays
    h0, h1, h_1, h_2 = dx[:1], dx[1:2], dx[-1:], dx[-2:-1]
    d[0] = dx[1]
    du[0] = w = u[2] - u[0]
    b[:, 0] = ((h0 + 2*w) * h1 * slope[:, 0] + h0**2 * slope[:, 1]) / w
    d[-1] = dx[-2]
    dl[-1] = w = u[-1] - u[-3]
    b[:, -1] = (h_1**2 * slope[:, -2] + (2*w + h_1) * h_2 * slope[:, -1]) / w
    *_, s, info = dgtsv(dl, d, du, b.T, overwrite_dl=1, overwrite_d=1,
                        overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return dx, slope, s


def _spline_last_node(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The value at u[-1] of CubicSpline(u, y.T, axis=0) for (3, n) samples
    y, n >= 4, with its bits, without fitting the spline; a ValueError when
    a bound cannot show that every coefficient of the spline is finite.

    From the slopes it forms, as CubicHermiteSpline does, the coefficients
    of the last piece only, and evaluates that piece as PPoly does."""
    dx, slope, s = _not_a_knot_slopes(u, y)
    # with every |s|, |slope| <= m and h_k >= h, every term of the
    # _hermite_coefficients rows is at most 4m, 6m/h or 4m/h^2 (np.max,
    # not max(): a NaN slope must fail the bound)
    m = float(np.max([np.max(np.abs(s)), np.max(np.abs(slope))]))
    h = float(np.min(dx))
    bound = 8.0 * m if h >= 1.0 else 8.0 * m / h / h
    if not bound < np.inf:   # NaN fails too
        raise ValueError("the spline through the samples is unbounded: its "
                         "coefficients may leave the float range")
    last = slice(-2, None)
    return _ppoly_evaluate(
        u[last], _hermite_coefficients(u[last], y[:, last], s[last].T), u[-1])


def _hermite_coefficients(x: np.ndarray, y: np.ndarray,
                          dydx: np.ndarray) -> tuple:
    """The coefficient rows (c0, c1, c2, c3) of CubicHermiteSpline(x, y,
    dydx, axis=-1) for (n,) or (3, n) y and dydx, with its input errors
    (scipy 1.17.1): piece k has c0 = t_k/h_k, c1 = (slope_k - dydx_k)/h_k
    - t_k, c2 = dydx_k and c3 = y_k, with t_k = (dydx_k + dydx_k+1
    - 2 slope_k)/h_k; each row holds the n - 1 pieces on its last axis."""
    if len(x) < 2:
        raise ValueError("`x` must contain at least 2 elements.")
    for name, v in (("x", x), ("y", y), ("dydx", dydx)):
        if not np.isfinite(v).all():
            raise ValueError(f"`{name}` must contain only finite values.")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    slope = np.diff(y) / h
    left = dydx[..., :-1]
    t = (left + dydx[..., 1:] - 2 * slope) / h
    return t / h, (slope - left) / h - t, left, y[..., :-1]


def _derivative(c: tuple) -> tuple:
    """The coefficient rows of PPoly(c, x).derivative(): every row but the
    last times its power."""
    return tuple(row * (len(c) - 1 - k) for k, row in enumerate(c[:-1]))


def _ppoly_evaluate(x: np.ndarray, c: tuple, xp) -> np.ndarray:
    """PPoly(c, x)(xp) for coefficient rows c, highest power first, on the
    breakpoints x, extrapolating (scipy 1.17.1).  xp reads the piece i with
    x_i <= xp < x_i+1, the last piece closed, and points outside [x_0,
    x_-1] read the end pieces; the piece is the power sum 0.0 + c[-1] +
    c[-2] z + c[-3] z^2 + ... at z = xp - x_i, term by term."""
    i = np.clip(np.searchsorted(x, xp, side="right") - 1, 0, len(x) - 2)
    z = xp - x[i]
    out, power = 0.0 + c[-1][..., i], 1.0
    for row in c[-2::-1]:
        power = power * z
        out = out + row[..., i] * power
    return out


def grid_spline(u: np.ndarray, y: np.ndarray) -> Callable:
    """The curve callable, on the grid u only, of the interpolating
    (not-a-knot) cubic spline CubicSpline(u, y.T, axis=0) through the
    (3, n) samples y, with its bits, without fitting the spline.

    PPoly evaluates a piece at its left end as 0.0 + y + 0*(...), so at
    every node but the last the spline reads y + 0.0 (y itself, with -0.0
    read as +0.0); the last node, the right end of the last piece, comes
    from _spline_last_node, and CubicSpline's input errors are raised
    here.  A call at any other parameters raises a ValueError."""
    last = _spline_last_node(u, y)

    def curve(x):
        if not (x is u or np.array_equal(x, u)):
            raise ValueError(
                f"a spline surface is read only at its sample grid ({len(u)}"
                f" samples on [{u[0]:.17g}, {u[-1]:.17g}])")
        out = (y + 0.0).T
        out[-1] = last
        return out
    return curve


def _fd1(y: np.ndarray, h: float, cols: slice,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Second-order d/du of a (3, n) field on a uniform grid, on the
    columns of the slice cols, written into out when given: central
    differences, and one-sided stencils at the two ends."""
    n = y.shape[1]
    start, stop = cols.start, cols.stop
    d = np.empty((3, stop - start)) if out is None else out
    lo, hi = max(start, 1), min(stop, n - 1)
    if lo < hi:
        inner = np.subtract(y[:, lo + 1:hi + 1], y[:, lo - 1:hi - 1],
                            out=d[:, lo - start:hi - start])
        inner /= 2.0 * h
    if start == 0:
        d[:, 0] = (-3.0 * y[:, 0] + 4.0 * y[:, 1] - y[:, 2]) / (2.0 * h)
    if stop == n:
        d[:, -1] = (3.0 * y[:, -1] - 4.0 * y[:, -2] + y[:, -3]) / (2.0 * h)
    return d


def _grid_derivative(sl: slice, h: float, y: np.ndarray, *held) -> np.ndarray:
    """The columns sl of the k-th u-derivative of the (3, n) field y, k =
    len(held) (1 or 2): held[k - 1] is that derivative, and held[0] the
    first, as an oracle gave them, or None.  A derivative without one is
    _fd1 of the one below it; a second derivative differences the first on
    the block and a 2-column halo, which holds every column its stencils
    read (a block 1 column wide at the grid end reads 2 columns back), so
    each column has the bits of _fd1 of the whole first derivative."""
    if held[-1] is not None:
        return held[-1][:, sl]
    if len(held) == 1:
        return _fd1(y, h, sl)
    lo, hi = max(sl.start - 2, 0), min(sl.stop + 2, y.shape[1])
    first = _grid_derivative(slice(lo, hi), h, y, *held[:-1])
    return _fd1(first, h, slice(sl.start - lo, sl.stop - lo))


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
        if not np.isfinite(u).all():
            raise ValueError(_NON_FINITE)
        steps = np.diff(u)
        h = float(steps[0])
        if h <= 0 or np.max(np.abs(steps - h)) > 1e-8 * abs(h):
            raise ValueError("sample grid must be uniform and increasing")
        return u, h
    lo, hi = (float(x) for x in spec.param_range)
    n = spec.sample_count
    if n < 5 or n % 2 == 0:
        raise ValueError(
            f"sample_count must be odd and >= 5 (got {n}): the arc-length "
            "quadrature uses composite Simpson")
    if not np.isfinite(hi - lo):     # NaN, inf or an overflowing span
        raise ValueError(_NON_FINITE)
    u = np.linspace(lo, hi, n)
    return u, float(u[1] - u[0])


def analyze(spec: SurfaceSpec) -> SurfaceAnalysis:
    """Run the full pipeline: reparametrization, striction curve, geodesic
    frame and invariants on the sample grid."""
    u, h = _grid_of(spec)
    n = len(u)
    e = _eval_curve(spec.director, u)
    # np.max, not max(): a NaN defect must fail the guard below
    unit_defect = np.max([np.max(np.abs(norm3(e[:, sl]) - 1.0))
                          for sl in _blocks(n)])
    if not unit_defect <= DIRECTOR_UNIT_TOL:   # guards fail on NaN too
        raise ValueError(
            f"director is not a unit field (max defect {unit_defect:.3e})")
    # derivatives without an oracle are formed per block (_grid_derivative)
    e_u, e_uu = (None if fn is None else _eval_curve(fn, u)
                 for fn in (spec.director_d1, spec.director_d2))

    sigma = np.empty(n)
    for sl in _blocks(n):
        sigma[sl] = norm3(_grid_derivative(sl, h, e, e_u))
    if not np.min(sigma) >= DEGENERATE_SIGMA:
        raise DegenerateIndicatrix(
            f"indicatrix speed falls to {np.min(sigma):.3e}: the director "
            "is (locally) constant")
    if not np.isfinite(sigma).all():   # +inf passes the guard above
        raise ValueError("surface oracles returned non-finite samples")

    p = _eval_curve(spec.base, u)
    p_u = _eval_curve(spec.base_d1, u) if spec.base_d1 is not None else None
    analytic = spec.has_analytic_frame
    p_uu = _eval_curve(spec.base_d2, u) if analytic else None

    c, t, g = (np.empty((3, n)) for _ in range(3))
    c_u = np.empty((3, n)) if analytic else None
    delta, Delta, gamma, gamma_dual, Delta_sigma = (
        np.empty(n) for _ in range(5))
    finite = True

    def striction(sl):
        """c = p + lam e with lam = -<p', e'>/sigma^2, and its analytic
        derivative c_u when the oracles give one."""
        eb, sig = _cols(sl, e, sigma)
        eub = _grid_derivative(sl, h, e, e_u)
        pub = _grid_derivative(sl, h, p, p_u)
        sig2 = sig * sig
        pu_eu = dot3(pub, eub)
        lam = -pu_eu / sig2
        np.add(p[:, sl], lam * eb, out=c[:, sl])
        if analytic:
            euub = e_uu[:, sl]
            sig_u = dot3(eub, euub) / sig
            lam_u = (-(dot3(p_uu[:, sl], eub) + dot3(pub, euub)) / sig2
                     + 2.0 * pu_eu * sig_u / (sig2 * sig))
            np.add(pub + lam_u * eb, lam * eub, out=c_u[:, sl])

    def frame(sl):
        """t = de/ds, g = e x t and the invariants."""
        nonlocal finite
        eb, cb, sig = _cols(sl, e, c, sigma)
        eub = _grid_derivative(sl, h, e, e_u)
        euub = _grid_derivative(sl, h, e, e_u, e_uu)
        tb = np.divide(eub, sig, out=t[:, sl])
        gb = cross3(eb, tb, out=g[:, sl])
        c_s = _grid_derivative(sl, h, c, c_u) / sig
        db, Db, gmb = _cols(sl, delta, Delta, gamma)
        db[:] = dot3(c_s, eb)
        Db[:] = dot3(c_s, gb)
        # conical curvature: det(e, e', e'') / sigma^3
        np.divide(dot3(cross3(eb, eub), euub), sig * sig * sig, out=gmb)
        np.subtract(db, gmb * Db, out=gamma_dual[sl])
        np.multiply(Db, sig, out=Delta_sigma[sl])
        # a NaN or inf from any oracle reaches c or gamma (checked below,
        # after the arc length)
        finite = finite and np.isfinite(cb).all() and np.isfinite(gmb).all()

    if analytic:
        for sl in _blocks(n):
            striction(sl)
            frame(sl)
    else:
        # c_u is differenced from c, so every block of c comes first
        for sl in _blocks(n):
            striction(sl)
        for sl in _blocks(n):
            frame(sl)

    integrate = simpson_integrator(u)
    s = integrate(sigma)
    s_star = integrate(Delta_sigma)
    if not np.all(np.diff(s) > 0.0):
        raise DegenerateIndicatrix("arc length failed to increase strictly")
    # the running s_star carries a non-finite Delta sample to its end
    if not (np.isfinite(s_star[-1]) and finite):
        raise ValueError("surface oracles returned non-finite samples")

    return SurfaceAnalysis(
        spec=spec, u=u, s=s, s_star=s_star, sigma=sigma, c=c, e=e, t=t, g=g,
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

    return DualCurvatureInvariants(R=R, rho=DualScalar(rho, rho_star),
                                   cos_rho=cos_rho, analysis=analysis)


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
    g equations.  A NaN defect in any row reads as a NaN maximum.  Each
    column block holds three (3, BLOCK) temporaries at a time."""
    a = analysis
    real, dual, ortho = [], [], []
    for sl in _blocks(a.n):
        _frame_ode_block(a, sl, real, dual, ortho)
    # np.max, not max(): a NaN defect must propagate
    return FrameOdeResiduals(real_max=float(np.max(real)),
                             dual_max=float(np.max(dual)),
                             orthonormality_max=float(np.max(ortho)))


def _add_product(y: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
    """y += s * v for (3, w) y and v, a row at a time (a (w,) temporary)."""
    for k in range(3):
        y[k] += s * v[k]


def _subtract_cross(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """y -= a x b for (3, w) arrays, with the bits of y -= cross3(a, b): a
    third of the columns at a time, through one (3, w/3) buffer, and a row
    at a time (an in-place ufunc on a 2-D strided view takes two
    8192-element buffers)."""
    w = y.shape[1]
    step = -(-w // 3)
    buf = np.empty((3, step))
    for lo in range(0, w, step):
        hi = min(lo + step, w)
        m = cross3(a[:, lo:hi], b[:, lo:hi], out=buf[:, :hi - lo])
        for k in range(3):
            y[k, lo:hi] -= m[k]


def _frame_ode_block(a: SurfaceAnalysis, sl: slice, real: list,
                     dual: list, ortho: list) -> None:
    """Append the block maxima of frame_ode_residual's rows on the columns
    sl to real, dual and ortho (the first two only from samples outside
    the END_TRIM ends).  Every temporary is written in place, in the order
    of operations of the rows' formulas; each moment c x v of the dual
    frame is formed into a scratch array just before the row that reads
    it (the e moment a third at a time: the three scratch arrays are in
    use there)."""
    e, t, g, c, sigma, gamma, gamma_dual, Delta = _cols(
        sl, a.e, a.t, a.g, a.c, a.sigma, a.gamma, a.gamma_dual, a.Delta)
    c_u = a.derivative("c_u", sl)
    keep = _interior(sl, a.n)

    def norm_max(x, maxima):
        """Append max |x| over the kept samples; x, (3, w), is scratch."""
        r = sum3(np.multiply(x, x, out=x))
        np.sqrt(r, out=r)
        if r[keep].size:
            maxima.append(np.max(r[keep]))

    # dual parts evolve in the dual arc length: divide by
    # sigma*(1 + eps*Delta), whose inverse has real part 1/sigma
    inv_dual = dual_div(DualScalar(1.0, 0.0),
                        DualScalar(sigma, sigma * Delta)).dual

    def d_dsbar_dual(vec_u, vec, out, scratch):
        """Dual part of d/dsbar of the dual vector (vec, c x vec)."""
        cross3(c_u, vec, out=out)
        out += cross3(c, vec_u, out=scratch)   # the moment's derivative
        np.multiply(1.0 / sigma, out, out=out)
        out += np.multiply(inv_dual, vec_u, out=scratch)

    analytic = a.spec.has_analytic_frame
    if analytic:
        e_u, e_uu = a.derivative("e_u", sl), a.derivative("e_uu", sl)
        x = np.multiply(e_u, e_uu)
        sig_u = sum3(x)                        # dot3(e_u, e_uu)
        sig_u /= sigma
        q = sigma ** 2
        np.divide(sig_u, q, out=q)
        del sig_u
        t_u = np.divide(e_uu, sigma)           # e_uu/sigma - e_u*sig_u/sigma^2
        t_u -= np.multiply(e_u, q, out=x)
        del q
    else:
        t_u = _fd1(a.t, a.h, sl)
        x = np.empty_like(t_u)
    y = np.empty_like(t_u)

    # real part, dt/ds = gamma*g - e
    np.divide(t_u, sigma, out=x)
    np.multiply(gamma, g, out=y)
    y -= e
    x -= y
    norm_max(x, real)
    # dual part, against gamma_bar*g~ - e~
    d_dsbar_dual(t_u, t, x, y)
    g_s = cross3(c, g, out=y)
    np.multiply(gamma, g_s, out=y)
    _add_product(y, gamma_dual, g)
    _subtract_cross(y, c, e)
    x -= y
    norm_max(x, dual)

    if analytic:
        g_u = cross3(e_u, t, out=y)
        g_u += cross3(e, t_u, out=x)
    else:
        g_u = _fd1(a.g, a.h, sl, out=y)
    w = t_u                                    # t_u is no longer read
    # real part, dg/ds = -gamma*t
    np.divide(g_u, sigma, out=x)
    x += np.multiply(gamma, t, out=w)
    norm_max(x, real)
    # dual part, against -gamma_bar*t~, whose dual part is gbar_t
    d_dsbar_dual(g_u, g, x, w)
    t_s = cross3(c, t, out=y)                  # g_u is no longer read
    np.multiply(gamma, t_s, out=w)
    _add_product(w, gamma_dual, t)
    x += w
    norm_max(x, dual)
    # de/ds~ = t~ (dual part); on the sampled path e_u is formed here
    d_dsbar_dual(a.derivative("e_u", sl), e, x, w)
    x -= t_s
    norm_max(x, dual)

    def ortho_max(u, v=None):
        """Append max |<u, v>|, or max ||u| - 1| without v."""
        r = sum3(np.multiply(u, u if v is None else v, out=x))
        if v is None:
            np.sqrt(r, out=r)
            r -= 1.0
        ortho.append(np.max(np.abs(r, out=r)))

    for vectors in ((e, t), (t, g), (e, g), (e,), (t,), (g,)):
        ortho_max(*vectors)


def spline_surface(u: np.ndarray, e: np.ndarray, p: np.ndarray,
                   name: str) -> SurfaceSpec:
    """The spec of the surface through (3, n) director samples e and base
    samples p on the uniform grid u.  Its callables are grid_splines: they
    return the samples at every node but the last, whose bits the
    interpolating splines decide and which is computed without fitting
    them, and they raise off the grid."""
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

