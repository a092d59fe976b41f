"""Dual-number arithmetic for dual scalars and dual vectors alike.

A dual number is a + eps*b with eps^2 = 0; a dual vector is a triple of
them (the E. Study map), so `DualScalar` carries both, its
parts floats or read-only (N,), (3,) or (3, N) arrays.  Dual
unit vectors encode oriented lines: the real part is the line direction,
the dual part its moment about the origin.  Operations broadcast
elementwise; a scalar field times a vector field (s * v, scalar on the
left) rotates a whole sample grid at once.  Batches of vectors are stored
component-major: row k of a (3, N) array holds the k-th coordinate of
every vector, so an (N,) scalar field broadcasts against it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, PureDualDivisor, PureDualVector

# Real parts smaller than this are treated as exactly zero (non-invertible).
PURE_EPS = 1e-14

# Below this sine magnitude a line pair counts as parallel and the dual
# angle's distance part is taken from the moment difference instead.
PARALLEL_SIN_EPS = 1e-9

Scalar = Union[float, np.ndarray]


@dataclass(frozen=True)
class DualScalar:
    """a + eps*b. Fields are floats or broadcast-compatible arrays; an
    array field (lists and tuples become float arrays) is stored as a
    read-only view, so the caller's own array stays writable.

    A dual angle theta + eps*theta_star between two oriented lines is one:
    real part the angle, dual part the signed offset along their common
    perpendicular."""

    real: Scalar
    dual: Scalar

    def __post_init__(self):
        for name in ("real", "dual"):
            value = getattr(self, name)
            if np.ndim(value):
                object.__setattr__(self, name, read_only(value))

    def __add__(self, other: "DualScalar | float") -> "DualScalar":
        other = _as_dual(other)
        return DualScalar(self.real + other.real, self.dual + other.dual)

    def __mul__(self, other: "DualScalar | float") -> "DualScalar":
        return dual_mul(self, _as_dual(other))

    def cols(self, sl: slice) -> "DualScalar":
        """The columns sl (last axis) of both array parts, as read-only
        views: a column block of a sampled field."""
        return DualScalar(self.real[..., sl], self.dual[..., sl])


def _as_dual(x) -> DualScalar:
    if isinstance(x, DualScalar):
        return x
    return DualScalar(x if np.ndim(x) else float(x), 0.0)


def dual_mul(a: DualScalar, b: DualScalar) -> DualScalar:
    """Product with eps^2 = 0: dual part never sees a.dual*b.dual."""
    return DualScalar(a.real * b.real, a.real * b.dual + a.dual * b.real)


def dual_div(a: DualScalar, b: DualScalar) -> DualScalar:
    """Inverse of dual_mul; requires an invertible divisor."""
    if np.any(np.abs(b.real) < PURE_EPS):
        raise PureDualDivisor("divisor has (numerically) zero real part")
    return DualScalar(a.real / b.real,
                      (a.dual * b.real - a.real * b.dual) / (b.real * b.real))


def lift(f: Callable, fprime: Callable, x: DualScalar) -> DualScalar:
    """Extend a differentiable real function to dual arguments:
    f(a + eps*b) = f(a) + eps*b*f'(a)."""
    return DualScalar(f(x.real), x.dual * fprime(x.real))


def dual_cos(x: DualScalar) -> DualScalar:
    return DualScalar(np.cos(x.real), -x.dual * np.sin(x.real))


def dual_sin(x: DualScalar) -> DualScalar:
    return DualScalar(np.sin(x.real), x.dual * np.cos(x.real))


def dual_sqrt(x: DualScalar) -> DualScalar:
    if np.any(np.asarray(x.real) <= 0.0):
        raise DomainError("dual_sqrt requires a positive real part")
    r = np.sqrt(x.real)
    return DualScalar(r, x.dual / (2.0 * r))


def read_only(x) -> np.ndarray:
    """x as a read-only float array: a writable array is wrapped in a
    read-only view, so the caller's own array stays writable."""
    x = np.asarray(x, dtype=float)
    if x.flags.writeable:
        x = x.view()
        x.flags.writeable = False
    return x


# 3-vector kernels over the leading (component) axis of float arrays: (3,)
# or (3, ...), broadcasting.  They work component by component, without
# the input copies of np.cross, and reproduce numpy's results bit for bit,
# down to the sign of a zero and which of two NaN operands a sum passes on.


def _require_vectors(u: np.ndarray, v: np.ndarray) -> None:
    """A row-major (N, 3) batch is not N vectors: refuse it."""
    if np.shape(u)[:1] != (3,) or np.shape(v)[:1] != (3,):
        raise ValueError(f"3-vector kernels need (3,) or (3, ...) operands,"
                         f" got shapes {np.shape(u)} and {np.shape(v)}")


def cross3(a: np.ndarray, b: np.ndarray,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """a x b, bitwise equal to np.cross with axis=0: the same ufunc calls
    on the same component views ([k, ...] and out=... keep a single
    vector's parts arrays, not numpy scalars, whose arithmetic can pass on
    the other NaN).  Written into `out` when given (it must not overlap a
    or b)."""
    _require_vectors(a, b)
    a0, a1, a2 = a[0, ...], a[1, ...], a[2, ...]
    b0, b1, b2 = b[0, ...], b[1, ...], b[2, ...]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    x, y, z = out[0, ...], out[1, ...], out[2, ...]
    np.multiply(a1, b2, out=x)
    tmp = np.multiply(a2, b1, out=...)
    x -= tmp
    np.multiply(a2, b0, out=y)
    np.multiply(a0, b2, out=tmp)
    y -= tmp
    np.multiply(a0, b1, out=z)
    np.multiply(a1, b0, out=tmp)
    z -= tmp
    return out


def dot3(u: np.ndarray, v: np.ndarray):
    """<u, v>, bitwise equal to np.sum(u * v, axis=0)."""
    _require_vectors(u, v)
    p = u * v
    if p.size == 3:
        # One vector: numpy runs its reduction loop, which passes on a
        # different NaN than the elementwise adds of sum3 would.
        return np.add.reduce(p, axis=0)
    return sum3(p)


def sum3(p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """p[0] + p[1] + p[2] of a (3, N) batch, N > 1, bitwise equal to
    np.sum(p, axis=0), into out if given.  A column block of such a batch,
    even one column wide, keeps the batch's bits through it (dot3 would
    reduce a (3, 1) block as a single vector)."""
    out = np.add(p[0], p[1], out=out)
    out += p[2]
    out += 0.0   # np.sum starts from +0.0, so a sum of -0.0 terms is +0.0
    return out


def norm3(u: np.ndarray):
    """|u|, bitwise equal to numpy.linalg.norm with axis=0."""
    return np.sqrt(dot3(u, u))


def dual_dot(a: DualScalar, b: DualScalar) -> DualScalar:
    """Dual scalar product: real <a,b>, dual <a,b*> + <a*,b>."""
    return DualScalar(dot3(a.real, b.real),
                      dot3(a.real, b.dual) + dot3(a.dual, b.real))


def dual_cross(a: DualScalar, b: DualScalar) -> DualScalar:
    """Dual cross product: real a x b, dual a x b* + a* x b."""
    return DualScalar(cross3(a.real, b.real),
                      cross3(a.real, b.dual) + cross3(a.dual, b.real))


def dual_norm(a: DualScalar) -> DualScalar:
    """|a| + eps <a, a*>/|a|; undefined for a vanishing real part."""
    n = norm3(a.real)
    if np.any(n < PURE_EPS):
        raise PureDualVector("dual vector has (numerically) zero real part")
    return DualScalar(n, dot3(a.real, a.dual) / n)


def dual_normalize(a: DualScalar) -> DualScalar:
    """Rescale so the dual norm is exactly 1 + eps*0."""
    n = dual_norm(a)
    nr, nd = n.real, n.dual
    # v / (n + eps n*) expanded with eps^2 = 0
    return DualScalar(a.real / nr, a.dual / nr - a.real * nd / (nr * nr))


def dual_angle(a: DualScalar, b: DualScalar) -> DualScalar:
    """Dual angle theta + eps*theta_star between two dual unit vectors
    (oriented lines).

    theta is recovered from atan2 of the dual sine (norm of the dual cross
    product) and dual cosine (dual dot), which keeps theta in [0, pi] and
    the extraction stable near 0 and pi.  For (near-)parallel directions
    the sine route is singular, so theta snaps to 0 or pi and theta_star
    falls back to the distance between the parallel lines, which equals
    the norm of the moment difference (or sum, for antiparallel lines).
    """
    cos_bar = dual_dot(a, b)
    cross = dual_cross(a, b)
    sin_real = norm3(cross.real)

    scalar_input = np.ndim(sin_real) == 0
    sin_real = np.atleast_1d(sin_real)
    cos_real = np.atleast_1d(np.asarray(cos_bar.real, dtype=float))
    cos_dual = np.atleast_1d(np.asarray(cos_bar.dual, dtype=float))

    parallel = sin_real < PARALLEL_SIN_EPS
    safe_sin = np.where(parallel, 1.0, sin_real)
    sin_dual = dot3(cross.real, cross.dual) / safe_sin

    theta = np.arctan2(sin_real, cos_real)
    # d(atan2(s, c)) with s^2 + c^2 = 1 for unit inputs
    theta_star = np.cos(theta) * sin_dual - np.sin(theta) * cos_dual

    if np.any(parallel):
        same = cos_real > 0.0
        dist_same = norm3(b.dual - a.dual)
        dist_anti = norm3(b.dual + a.dual)
        theta = np.where(parallel, np.where(same, 0.0, np.pi), theta)
        theta_star = np.where(parallel, np.where(same, dist_same, dist_anti),
                              theta_star)

    if scalar_input:
        return DualScalar(float(theta[0]), float(theta_star[0]))
    return DualScalar(theta, theta_star)
