"""Dual scalar/vector arithmetic against hand-expanded values."""

import numpy as np
import pytest

from ruledgeom.dual import (DualScalar, DualVector, cross3, dot3, dual_angle,
                            dual_cos, dual_cross, dual_div, dual_dot,
                            dual_mul, dual_norm, dual_normalize, dual_sin,
                            dual_sqrt, lift)
from ruledgeom.errors import DomainError, PureDualDivisor, PureDualVector

TOL = 1e-12


def eq(x: DualScalar, real, dual, tol=TOL):
    assert abs(x.real - real) <= tol and abs(x.dual - dual) <= tol


def test_mul_nilpotent():
    eq(dual_mul(DualScalar(0, 1), DualScalar(0, 1)), 0.0, 0.0)


def test_mul_hand_expansion():
    eq(dual_mul(DualScalar(2, 3), DualScalar(4, 5)), 8.0, 22.0)


def test_mul_identity():
    eq(dual_mul(DualScalar(-1.7, 0.3), DualScalar(1, 0)), -1.7, 0.3)


def test_div_inverts_mul():
    eq(dual_div(DualScalar(8, 22), DualScalar(4, 5)), 2.0, 3.0)
    a = DualScalar(1.25, -0.75)
    b = DualScalar(-2.5, 4.0)
    back = dual_div(dual_mul(a, b), b)
    eq(back, a.real, a.dual)


def test_div_identity():
    eq(dual_div(DualScalar(3.5, -2.0), DualScalar(1, 0)), 3.5, -2.0)


def test_div_by_pure_dual_raises():
    with pytest.raises(PureDualDivisor):
        dual_div(DualScalar(1, 0), DualScalar(0, 1))


def test_lift_specializations():
    eq(dual_cos(DualScalar(0.0, 7.3)), 1.0, 0.0)
    eq(dual_sin(DualScalar(np.pi / 2, 2.0)), 1.0, 0.0, tol=1e-15)
    eq(dual_sqrt(DualScalar(4.0, 4.0)), 2.0, 1.0)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        dual_sqrt(DualScalar(0.0, 1.0))
    with pytest.raises(DomainError):
        dual_sqrt(DualScalar(-2.0, 1.0))


def test_lift_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for f, fp, lo, hi in [(np.sin, np.cos, -3, 3),
                          (np.exp, np.exp, -2, 2),
                          (np.sqrt, lambda t: 0.5 / np.sqrt(t), 0.1, 10)]:
        for _ in range(200):
            x = DualScalar(rng.uniform(lo, hi), rng.uniform(0.5, 2.0))
            fd = (f(x.real + h) - f(x.real - h)) / (2 * h)
            assert abs(lift(f, fp, x).dual - x.dual * fd) < 1e-6 * abs(x.dual)


def test_dot_examples():
    a = DualVector((1, 0, 0), (0, 0, 0))
    eq(dual_dot(a, a), 1.0, 0.0)
    b = DualVector((1, 0, 0), (0, 1, 0))
    c = DualVector((0, 1, 0), (0, 0, 1))
    eq(dual_dot(b, c), 0.0, 1.0)


def test_dot_on_dual_unit_vector():
    # oriented line -> dual unit vector -> <v, v> = 1 + eps*0
    p, d = np.array([2.0, -1.0, 3.0]), np.array([0.6, 0.8, 0.0])
    v = DualVector(d, np.cross(p, d))
    eq(dual_dot(v, v), 1.0, 0.0)


def test_cross_examples():
    a = DualVector((1, 0, 0), (0, 0, 0))
    b = DualVector((0, 1, 0), (0, 0, 0))
    r = dual_cross(a, b)
    assert np.allclose(r.real, [0, 0, 1], atol=TOL)
    assert np.allclose(r.dual, [0, 0, 0], atol=TOL)

    a = DualVector((1, 0, 0), (0, 0, 1))
    b = DualVector((0, 1, 0), (0, 0, 0))
    r = dual_cross(a, b)
    assert np.allclose(r.real, [0, 0, 1], atol=TOL)
    assert np.allclose(r.dual, [-1, 0, 0], atol=TOL)


def test_cross_antisymmetry():
    rng = np.random.default_rng(11)
    a = DualVector(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
    r = dual_cross(a, a)
    assert np.max(np.abs(r.real)) <= TOL and np.max(np.abs(r.dual)) <= TOL


def test_norm_examples():
    eq(dual_norm(DualVector((3, 0, 0), (4, 0, 0))), 3.0, 4.0)
    p, d = np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0])
    eq(dual_norm(DualVector(d, np.cross(p, d))), 1.0, 0.0)
    with pytest.raises(PureDualVector):
        dual_norm(DualVector((0, 0, 0), (1, 0, 0)))


def test_normalize():
    r = dual_normalize(DualVector((2, 0, 0), (0, 0, 0)))
    assert np.allclose(r.real, [1, 0, 0], atol=TOL)
    assert np.allclose(r.dual, [0, 0, 0], atol=TOL)

    # the moment component along the direction is removed
    r = dual_normalize(DualVector((1, 0, 0), (0.5, 0, 0)))
    assert np.allclose(r.real, [1, 0, 0], atol=TOL)
    assert np.allclose(r.dual, [0, 0, 0], atol=TOL)

    rng = np.random.default_rng(3)
    for _ in range(50):
        v = DualVector(rng.uniform(-2, 2, 3) + [0, 0, 3],
                       rng.uniform(-2, 2, 3))
        n = dual_norm(dual_normalize(v))
        eq(n, 1.0, 0.0)
        again = dual_normalize(dual_normalize(v))
        once = dual_normalize(v)
        assert np.allclose(again.real, once.real, atol=TOL)
        assert np.allclose(again.dual, once.dual, atol=TOL)


def test_mul_dual_part_has_no_dual_dual_term():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        ar, ad, br, bd = rng.uniform(-10, 10, 4)
        d1 = dual_mul(DualScalar(ar, ad), DualScalar(br, bd)).dual
        d3 = dual_mul(DualScalar(ar, 3 * ad), DualScalar(br, 3 * bd)).dual
        # a 3x scaling of both duals scales the product dual part by exactly
        # 3 (an eps^2 term would contribute a factor-9 piece)
        assert abs(d3 - 3 * d1) <= TOL * max(1.0, abs(d1))


def test_lagrange_identity():
    rng = np.random.default_rng(17)
    a = DualVector(rng.uniform(-2, 2, (3, 500)), rng.uniform(-2, 2, (3, 500)))
    b = DualVector(rng.uniform(-2, 2, (3, 500)), rng.uniform(-2, 2, (3, 500)))
    cr = dual_cross(a, b)
    lhs = dual_dot(cr, cr) + dual_mul(dual_dot(a, b), dual_dot(a, b))
    rhs = dual_mul(dual_dot(a, a), dual_dot(b, b))
    assert np.max(np.abs(lhs.real - rhs.real)) < TOL
    assert np.max(np.abs(lhs.dual - rhs.dual)) < TOL


def test_row_major_batches_raise():
    rows = np.ones((500, 3))
    for kernel in (cross3, dot3):
        with pytest.raises(ValueError, match=r"\(500, 3\)"):
            kernel(rows, rows)
    with pytest.raises(ValueError, match=r"\(500, 3\)"):
        dual_cross(DualVector(rows, rows), DualVector(rows, rows))


# Operand bits for the product test: signed zeros, two NaNs with distinct
# payloads (so a swapped sum shows which NaN it passed on), an infinity
# and two ordinary values.
SPECIAL = np.array([0x0000000000000000, 0x8000000000000000,
                    0x7FF8000000000001, 0x7FF8000000000002,
                    0x7FF0000000000000, 0x3FF8000000000000,
                    0xC002000000000000], dtype=np.uint64).view(np.float64)


def scale_expansion(s, v):
    return s.real * v.real, s.real * v.dual + s.dual * v.real


def assert_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    assert np.array_equal(x.view(np.int64), y.view(np.int64))


def test_scalar_times_vector_is_the_scale_expansion_bit_for_bit():
    assert DualVector is DualScalar
    rng = np.random.default_rng(23)
    n = 2000

    def pick(*shape):
        return SPECIAL[rng.integers(0, SPECIAL.size, shape)]

    s = DualScalar(pick(n), pick(n))
    v = DualVector(pick(3, n), pick(3, n))
    cases = [(s, v),
             (DualScalar(-0.0, float(SPECIAL[3])),
              DualVector(SPECIAL[[0, 2, 5]], SPECIAL[[1, 3, 6]])),
             (DualScalar(1.5, 0.0), DualVector(pick(3), pick(3)))]
    for s, v in cases:
        with np.errstate(invalid="ignore"):   # 0 * inf, inf - inf
            prod = s * v
            real, dual = scale_expansion(s, v)
        assert isinstance(prod, DualScalar)
        assert_bits(prod.real, real)
        assert_bits(prod.dual, dual)
    # the batch case holds both-NaN sums whose payloads differ
    a, b = s.real * v.dual, s.dual * v.real
    both = np.isnan(a) & np.isnan(b) & (a.view(np.int64) != b.view(np.int64))
    assert np.any(both)


def test_angle_coincident_lines():
    v = DualVector((0, 1, 0), (0, 0, 0))
    ang = dual_angle(v, v)
    assert ang.real == 0.0 and abs(ang.dual) <= TOL


def test_angle_skew_perpendicular():
    # x-axis vs the y-parallel line through (0, 0, d): quarter turn at
    # distance d along the common perpendicular (the z-axis)
    d = 2.75
    a = DualVector((1, 0, 0), (0, 0, 0))
    p = np.array([0.0, 0.0, d])
    b = DualVector((0, 1, 0), np.cross(p, [0, 1, 0]))
    ang = dual_angle(a, b)
    assert abs(ang.real - np.pi / 2) <= TOL
    assert abs(ang.dual - d) <= TOL


def test_angle_antiparallel():
    a = DualVector((1, 0, 0), (0, 0, 0))
    p = np.array([0.0, 0.0, 1.5])
    b = DualVector((-1, 0, 0), np.cross(p, [-1, 0, 0]))
    ang = dual_angle(a, b)
    assert abs(ang.real - np.pi) <= TOL
    assert abs(ang.dual - 1.5) <= TOL


def test_angle_trig_helpers():
    th = dual_angle(DualVector((1, 0, 0), (0, 0, 0)),
                    DualVector((0, 1, 0), (0, 0, 0)))
    s, c = dual_sin(th), dual_cos(th)
    assert abs(s.real - 1.0) <= TOL and abs(c.real) <= TOL
