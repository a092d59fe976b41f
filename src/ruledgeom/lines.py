"""Oriented lines in 3-space and their dual-unit-vector representation.

An oriented line through point p with unit direction d maps to the dual
unit vector (d, p x d); the moment p x d does not depend on the choice of
p on the line.  The inverse map recovers the line with foot point d x m,
the point of the line nearest the origin.

Every function takes one line ((3,) fields) or a batch of N lines ((3, N)
fields, one row per coordinate, like every vector batch of the package);
per-line scalars are Python floats for one line, (N,) arrays else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualScalar, cross3, norm3
from .errors import NotALine

# Tolerance for accepting a dual vector as a line (unit direction,
# direction-orthogonal moment).
LINE_CONSTRAINT_TOL = 1e-9


def row_dot(a: np.ndarray, b: np.ndarray):
    """<a, b> of (3,) or (3, N) vectors, bitwise equal to each 1-D `a @ b`
    (a stacked matmul over the (N, 3) transposes reduces rows that way)."""
    return (a.T[..., None, :] @ b.T[..., :, None])[..., 0, 0]


def _row_norm(a: np.ndarray):
    """|a| of (3,) or (3, N) vectors, bitwise equal to 1-D np.linalg.norm."""
    return np.sqrt(row_dot(a, a))


def _scalar(x):
    """One line's scalar as a Python float; a batch's as an array."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class Line:
    """Oriented line, or batch of lines: a point on it, a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float)
        d = np.asarray(self.direction, dtype=float)
        n = _row_norm(d)
        if np.any(n < 1e-12):
            raise ValueError("line direction must be nonzero")
        d = np.where(np.abs(n - 1.0) > 1e-12, d / n, d)  # unit: keep bits
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "direction", d)

    def __getitem__(self, rows) -> "Line":
        """The lines of a batch selected by `rows` (an index or slice)."""
        return Line(self.point[:, rows], self.direction[:, rows])

    def distance_to_point(self, q):
        """Distance to the point q ((3,), or (3, N) for a batch)."""
        q = np.asarray(q, dtype=float)
        return _scalar(_row_norm(cross3(q - self.point, self.direction)))


def line_to_dual(line: Line) -> DualScalar:
    """E. Study image of an oriented line: (direction, point x direction)."""
    return DualScalar(line.direction, cross3(line.point, line.direction))


def dual_to_line(v: DualScalar) -> Line:
    """Recover the oriented line of a dual unit vector.

    Raises NotALine unless <a,a> = 1 and <a,a*> = 0 within
    LINE_CONSTRAINT_TOL on every row (a NaN defect fails), reporting the
    worst defects.  The returned point is the foot of the origin
    perpendicular, a x a*.
    """
    a, m = v.real, v.dual
    unit_defect = np.abs(row_dot(a, a) - 1.0)
    moment_defect = np.abs(row_dot(a, m))
    tol = LINE_CONSTRAINT_TOL
    if not np.all((unit_defect <= tol) & (moment_defect <= tol)):
        raise NotALine(
            f"constraint violation: |<a,a>-1|={np.max(unit_defect):.3e}, "
            f"|<a,a*>|={np.max(moment_defect):.3e} (tol {tol:.1e})")
    return Line(point=cross3(a, m), direction=a)


def common_perpendicular(l1: Line, l2: Line):
    """Shortest distance between two lines and a perpendicular foot pair.

    Returns (distance, (foot_on_l1, foot_on_l2)).  For parallel lines the
    distance is the point-to-line distance and the feet are one valid
    perpendicular pair: l1's point and its projection onto l2.
    """
    e1, e2 = l1.direction, l2.direction
    w = l1.point - l2.point
    b = row_dot(e1, e2)
    denom = 1.0 - b * b
    parallel = denom < 1e-12
    denom = np.where(parallel, 1.0, denom)
    d = row_dot(e1, w)
    e = row_dot(e2, w)
    t1 = (b * e - d) / denom
    t2 = np.where(parallel, e, (e - b * d) / denom)
    f1 = np.where(parallel, l1.point, l1.point + t1 * e1)
    f2 = l2.point + t2 * e2
    return _scalar(_row_norm(f1 - f2)), (f1, f2)


def sample_lines(rng: np.random.Generator, count: int) -> Line:
    """A batch of random oriented lines for property suites: directions
    uniform on the sphere, points uniform in [-10, 10]^3."""
    dirs = rng.normal(size=(count, 3)).T
    dirs /= norm3(dirs)
    pts = rng.uniform(-10.0, 10.0, size=(count, 3)).T
    return Line(point=pts, direction=dirs)
