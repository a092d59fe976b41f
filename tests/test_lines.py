"""Oriented-line correspondence: images, round trips, distances."""

import numpy as np
import pytest

from ruledgeom.dual import DualScalar, dual_angle
from ruledgeom.errors import NotALine
from ruledgeom.lines import (Line, common_perpendicular, dual_to_line,
                             line_to_dual, row_dot, sample_lines)


def test_line_through_origin_has_zero_moment():
    v = line_to_dual(Line(point=(0, 0, 0), direction=(1, 0, 0)))
    assert np.allclose(v.real, [1, 0, 0], atol=1e-15)
    assert np.allclose(v.dual, [0, 0, 0], atol=1e-15)


def test_moment_by_hand():
    v = line_to_dual(Line(point=(0, 0, 1), direction=(1, 0, 0)))
    assert np.allclose(v.dual, [0, 1, 0], atol=1e-15)


def test_moment_independent_of_point():
    l1 = Line(point=(2, -3, 1), direction=(0.6, 0.8, 0))
    shifted = np.asarray(l1.point) + 4.2 * l1.direction
    l2 = Line(point=shifted, direction=l1.direction)
    v1, v2 = line_to_dual(l1), line_to_dual(l2)
    assert np.allclose(v1.dual, v2.dual, atol=1e-13)


def test_dual_to_line_examples():
    from ruledgeom.dual import DualScalar
    l = dual_to_line(DualScalar((1, 0, 0), (0, 0, 0)))
    assert np.allclose(l.point, [0, 0, 0]) and np.allclose(l.direction, [1, 0, 0])

    l = dual_to_line(DualScalar((1, 0, 0), (0, 1, 0)))
    assert np.allclose(l.point, [0, 0, 1], atol=1e-15)
    assert np.allclose(l.direction, [1, 0, 0])


def test_dual_to_line_rejects_bad_moment():
    from ruledgeom.dual import DualScalar
    with pytest.raises(NotALine):
        dual_to_line(DualScalar((1, 0, 0), (0.1, 0, 0)))
    with pytest.raises(NotALine):
        dual_to_line(DualScalar((1.1, 0, 0), (0, 0, 0)))


def test_common_perpendicular_cases():
    x_axis = Line(point=(0, 0, 0), direction=(1, 0, 0))
    crossing = Line(point=(0, 0, 0), direction=(0, 1, 0))
    d, _ = common_perpendicular(x_axis, crossing)
    assert abs(d) < 1e-14

    skew = Line(point=(0, 0, 2.0), direction=(0, 1, 0))
    d, (f1, f2) = common_perpendicular(x_axis, skew)
    assert abs(d - 2.0) < 1e-14
    assert np.allclose(f1, [0, 0, 0], atol=1e-14)
    assert np.allclose(f2, [0, 0, 2.0], atol=1e-14)

    d, _ = common_perpendicular(x_axis, x_axis)
    assert abs(d) < 1e-14


def test_round_trip_property():
    rng = np.random.default_rng(42)
    lines = sample_lines(rng, 1000)
    v = line_to_dual(lines)
    assert np.all(np.abs(row_dot(v.real, v.real) - 1.0) < 1e-12)
    assert np.all(np.abs(row_dot(v.real, v.dual)) < 1e-12)
    back = dual_to_line(v)
    assert np.array_equal(back.direction, lines.direction)
    assert np.all(lines.distance_to_point(back.point) < 1e-10)


def test_theta_star_matches_common_perpendicular():
    rng = np.random.default_rng(43)
    lines = sample_lines(rng, 1000)
    l1, l2 = lines[0::2], lines[1::2]
    dist, _ = common_perpendicular(l1, l2)
    ang = dual_angle(line_to_dual(l1), line_to_dual(l2))
    assert np.all(np.abs(np.abs(ang.dual) - dist) < 1e-9)


def _batch_with_parallel_pairs():
    """Ten random line pairs; pair 1 is parallel, pair 2 antiparallel."""
    lines = sample_lines(np.random.default_rng(44), 20)
    d = lines.direction.copy()
    d[:, 3] = d[:, 2]
    d[:, 5] = -d[:, 4]
    return Line(lines.point, d)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_batched_line_layer_equals_row_by_row_bitwise():
    lines = _batch_with_parallel_pairs()
    v = line_to_dual(lines)
    back = dual_to_line(v)
    for i in range(lines.point.shape[1]):
        vi = line_to_dual(lines[i])
        assert (_same_bits(v.real[:, i], vi.real)
                and _same_bits(v.dual[:, i], vi.dual))
        bi = dual_to_line(vi)
        assert _same_bits(back.point[:, i], bi.point)
        assert _same_bits(back.direction[:, i], bi.direction)

    l1, l2 = lines[0::2], lines[1::2]
    dist, (f1, f2) = common_perpendicular(l1, l2)
    b = row_dot(l1.direction, l2.direction)
    assert np.count_nonzero(1.0 - b * b < 1e-12) == 2   # parallel branch
    for k in range(len(dist)):
        dk, (g1, g2) = common_perpendicular(l1[k], l2[k])
        assert isinstance(dk, float)
        assert _same_bits(dist[k], dk)
        assert _same_bits(f1[:, k], g1) and _same_bits(f2[:, k], g2)


def test_parallel_pairs_in_a_batch():
    lines = _batch_with_parallel_pairs()
    dist, (f1, f2) = common_perpendicular(lines[0::2], lines[1::2])
    for k in (1, 2):   # parallel and antiparallel pair
        l1, l2 = lines[2 * k], lines[2 * k + 1]
        assert np.array_equal(f1[:, k], l1.point)
        assert abs(dist[k] - l2.distance_to_point(l1.point)) < 1e-12


def test_dual_to_line_rejects_one_bad_row_of_a_batch():
    v = line_to_dual(sample_lines(np.random.default_rng(45), 50))
    dual_to_line(v)
    moment = v.dual.copy()
    moment[:, 17] += 1e-3 * v.real[:, 17]
    with pytest.raises(NotALine, match=r"\|<a,a\*>\|=1\.000e-03"):
        dual_to_line(DualScalar(v.real, moment))
    real = v.real.copy()
    real[:, 31] *= 1.1
    with pytest.raises(NotALine):
        dual_to_line(DualScalar(real, v.dual))


def test_single_line_scalars_are_floats():
    x_axis = Line(point=(0, 0, 0), direction=(1, 0, 0))
    skew = Line(point=(0, 0, 2.0), direction=(0, 1, 0))
    assert isinstance(common_perpendicular(x_axis, skew)[0], float)
    assert isinstance(x_axis.distance_to_point((0, 3.0, 4.0)), float)
    assert x_axis.distance_to_point((0, 3.0, 4.0)) == 5.0


def test_zero_direction_rejected():
    with pytest.raises(ValueError):
        Line(point=(0, 0, 0), direction=(0, 0, 0))
