"""Built-in ruled surfaces with analytic derivative oracles.

All director/base callables are vectorized over the parameter and carry
first and second derivatives, so the analysis pipeline runs in its exact
(analytic) mode on these surfaces.  They return (n, 3) arrays built as
transposed views of (3, n) arrays, which the analysis reads without a copy.
"""

from __future__ import annotations

import numpy as np

from .dual import dot3, norm3, read_only
from .errors import ConfigError
from .surface import SurfaceSpec


def _xyz(x, y, z):
    return np.stack(np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(y, dtype=float),
        np.asarray(z, dtype=float))).T


def _zero3(u):
    u = np.asarray(u, dtype=float)
    return np.zeros((3,) + u.shape).T


def _trig_oracles():
    """A wrapper that turns f(u, cos u, sin u) into the oracle u -> f(...),
    with cos u and sin u evaluated once per grid for all the oracles it
    wraps: while u equals, byte for byte, a private copy of the last grid,
    that grid's read-only values are reused, so a grid changed in place
    is evaluated again."""
    last = {}

    def trig(u):
        u = np.asarray(u)
        key = (u.dtype, u.shape, u.tobytes())
        if last.get("key") != key:
            last.update(key=key,
                        values=(read_only(np.cos(u)), read_only(np.sin(u))))
        return last["values"]
    return lambda f: lambda u: f(u, *trig(u))


def _circle_director(oracle, b: float) -> dict:
    """The director (sin b cos u, sin b sin u, cos b) with d1 and d2."""
    sb, cb = np.sin(b), np.cos(b)
    return dict(
        director=oracle(lambda u, cos, sin: _xyz(sb * cos, sb * sin, cb)),
        director_d1=oracle(lambda u, cos, sin: _xyz(-sb * sin, sb * cos, 0.0)),
        director_d2=oracle(lambda u, cos, sin: _xyz(-sb * cos, -sb * sin, 0.0)))


def _unit_normalized(raw, raw_d1, raw_d2):
    """Normalize a raw space curve to a unit field; returns (fn, d1, d2),
    the field and its chain-rule derivatives.  Each refuses a grid on
    which |raw| ** 5, the highest power of |raw| that d2 divides by,
    overflows, with a ValueError that says so, before it forms anything
    from that norm."""
    def norm(r):
        with np.errstate(over="ignore"):
            rho = norm3(r)
            top = np.max(rho) ** 5
        if not top < np.inf:
            raise ValueError(
                "the normalized director overflows on the sample grid: "
                f"|raw director| reaches {np.max(rho):.3e}, and its 5th "
                "power exceeds the float range; shrink param_range")
        return rho

    def fn(u):
        r = raw(u).T
        return (r / norm(r)).T

    def d1(u):
        r, r1 = raw(u).T, raw_d1(u).T
        rho = norm(r)
        return (r1 / rho - r * dot3(r, r1) / rho ** 3).T

    def d2(u):
        r, r1, r2 = raw(u).T, raw_d1(u).T, raw_d2(u).T
        rho = norm(r)
        rr1 = dot3(r, r1)
        return (r2 / rho
                - (2.0 * r1 * rr1 + r * (dot3(r1, r1) + dot3(r, r2)))
                / rho ** 3
                + 3.0 * r * rr1 ** 2 / rho ** 5).T

    return fn, d1, d2


def hyperbolic_paraboloid(param_range=(-1.0, 1.0),
                          sample_count: int = 2001) -> SurfaceSpec:
    """Doubly ruled saddle: base (u/2, u/2, 0), rulings along the
    normalized direction (1/2, -1/2, u)."""
    director, d1, d2 = _unit_normalized(
        lambda u: _xyz(0.5, -0.5, u),
        lambda u: _xyz(0.0, 0.0, np.ones_like(np.asarray(u, dtype=float))),
        lambda u: _zero3(u))
    return SurfaceSpec(
        director=director, director_d1=d1, director_d2=d2,
        base=lambda u: _xyz(0.5 * np.asarray(u, float),
                            0.5 * np.asarray(u, float), 0.0),
        base_d1=lambda u: _xyz(0.5, 0.5, 0.0 * np.asarray(u, float)),
        base_d2=_zero3,
        param_range=param_range, sample_count=sample_count,
        name="hyperbolic_paraboloid")


def cone(alpha: float, param_range=(0.0, 2.0 * np.pi),
         sample_count: int = 2001) -> SurfaceSpec:
    """Right circular cone with half-angle alpha, apex at the origin.
    Developable: the striction curve degenerates to the apex."""
    if not 0.0 < alpha < 0.5 * np.pi:
        raise ConfigError("cone half-angle must lie in (0, pi/2)")
    return SurfaceSpec(
        **_circle_director(_trig_oracles(), alpha),
        base=_zero3, base_d1=_zero3, base_d2=_zero3,
        param_range=param_range, sample_count=sample_count,
        name=f"cone(alpha={alpha:g})")


def small_circle(beta: float, radius: float = 1.0,
                 param_range=(0.0, 2.0 * np.pi),
                 sample_count: int = 2001) -> SurfaceSpec:
    """One-sheet hyperboloid of revolution x^2 + y^2 = r^2 + z^2 tan^2(beta):
    director on the colatitude-beta circle, base tangent to the waist
    circle.  Constant invariants, none of them zero (for 0 < beta < pi/2),
    so it exercises the general offset formulas."""
    if not 0.0 < beta < 0.5 * np.pi:
        raise ConfigError("small_circle colatitude must lie in (0, pi/2)")
    r = float(radius)
    oracle = _trig_oracles()
    return SurfaceSpec(
        **_circle_director(oracle, beta),
        base=oracle(lambda u, cos, sin: _xyz(
            -r * sin, r * cos, 0.0 * np.asarray(u, float))),
        base_d1=oracle(lambda u, cos, sin: _xyz(-r * cos, -r * sin, 0.0)),
        base_d2=oracle(lambda u, cos, sin: _xyz(r * sin, -r * cos, 0.0)),
        param_range=param_range, sample_count=sample_count,
        name=f"small_circle(beta={beta:g})")


def helicoid(pitch: float, param_range=(0.0, 2.0 * np.pi),
             sample_count: int = 2001) -> SurfaceSpec:
    """Right helicoid: horizontal rulings through the z-axis, which is the
    striction line; constant distribution parameter equal to the pitch."""
    p = float(pitch)
    oracle = _trig_oracles()
    return SurfaceSpec(
        director=oracle(lambda u, cos, sin: _xyz(
            cos, sin, 0.0 * np.asarray(u, float))),
        director_d1=oracle(lambda u, cos, sin: _xyz(-sin, cos, 0.0)),
        director_d2=oracle(lambda u, cos, sin: _xyz(-cos, -sin, 0.0)),
        base=lambda u: _xyz(0.0, 0.0, p * np.asarray(u, float)),
        base_d1=lambda u: _xyz(0.0, 0.0, p * np.ones_like(np.asarray(u, float))),
        base_d2=_zero3,
        param_range=param_range, sample_count=sample_count,
        name=f"helicoid(pitch={pitch:g})")


# name -> (builder, required parameters, optional parameters)
_BUILDERS = {
    "hyperbolic_paraboloid": (hyperbolic_paraboloid, (), ()),
    "cone": (cone, ("alpha",), ()),
    "small_circle": (small_circle, ("beta",), ("radius",)),
    "helicoid": (helicoid, ("pitch",), ()),
}


def builtin_names() -> list[str]:
    return sorted(_BUILDERS)


def builtin_surface(name: str, params: dict, param_range,
                    sample_count: int) -> SurfaceSpec:
    """Instantiate a catalog surface by name; unknown names or parameters
    are configuration errors."""
    if name not in _BUILDERS:
        raise ConfigError(
            f"unknown builtin surface {name!r}; choose from {builtin_names()}")
    builder, required, optional = _BUILDERS[name]
    extra = set(params) - {*required, *optional}
    if extra:
        raise ConfigError(
            f"surface {name!r} does not accept parameters {sorted(extra)}")
    missing = [k for k in required if k not in params]
    if missing:
        raise ConfigError(f"surface {name!r} requires parameters {missing}")
    return builder(param_range=tuple(param_range), sample_count=sample_count,
                   **params)
