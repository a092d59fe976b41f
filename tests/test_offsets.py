"""Mannheim offsets: construction, predictions, independent recheck."""

import dataclasses

import numpy as np
import pytest

from ruledgeom import catalog
from ruledgeom.dual import DualScalar, DualVector, dual_angle, dual_cos, dual_mul, dual_sin
from ruledgeom.errors import DegenerateOffset, SingularFormula
from ruledgeom.io import render_offset_report
from ruledgeom.offsets import (ComparisonRow, OffsetSpec, construct_offset,
                               developability_conditions, offset_angle,
                               predicted_invariants, verify_offset)
from ruledgeom.surface import analyze

SQ2 = np.sqrt(2.0)


def saddle_analysis(n=2001):
    return analyze(catalog.hyperbolic_paraboloid((-1.0, 1.0), n))


def cone_analysis():
    # theta = -s + 2.8 sweeps [0.3, 2.8] over s in [0, 2.5]
    return analyze(catalog.cone(np.pi / 4, (0.0, 2.5 / np.sin(np.pi / 4)), 2001))


def hyperboloid_analysis():
    return analyze(catalog.small_circle(np.pi / 6, 1.0,
                                        (0.0, 2.5 / np.sin(np.pi / 6)), 2001))


# --- offset angle / distance profiles ---

def test_profiles_start_at_constants():
    a = cone_analysis()
    th, ths = offset_angle(a, 1.4, -0.3)
    assert th[0] == pytest.approx(1.4)
    assert ths[0] == pytest.approx(-0.3)


def test_developable_base_has_constant_distance():
    a = cone_analysis()
    _, ths = offset_angle(a, 2.8, 0.7)
    assert np.max(np.abs(ths - 0.7)) < 1e-12


def test_saddle_distance_grows_linearly():
    a = saddle_analysis()
    _, ths = offset_angle(a, 0.0, 0.25)
    slope = np.diff(ths) / np.diff(a.u)
    assert np.max(np.abs(slope - SQ2 / 2)) < 1e-6
    assert ths[0] == pytest.approx(0.25)  # s = 0 at the range start


# --- construction ---

def test_catalog_case_oriented():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(0.0, 4.0 * SQ2))
    want = np.stack([a.u / 2 - 4, a.u / 2 - 4, np.zeros_like(a.u)], axis=1)
    assert np.max(np.abs(built.c1 - want)) < 1e-9
    assert np.max(np.abs(built.e1 - a.e)) < 1e-15


def test_catalog_case_quarter_angle():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(np.pi / 4, 2.0 * SQ2))
    want = np.stack([a.u / 2 - 2, a.u / 2 - 2, np.zeros_like(a.u)], axis=1)
    assert np.max(np.abs(built.c1 - want)) < 1e-9


def test_identity_offset_construction():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(0.0, 0.0))
    assert built.is_identity
    assert np.max(np.abs(built.e1 - a.e)) < 1e-15
    assert np.max(np.abs(built.c1 - a.c)) < 1e-15


def test_moment_transport_consistency():
    # the rotated dual ruling's moment must equal c1 x e1: this is what
    # makes "move the striction line by theta* along g" the right transport
    for spec in (OffsetSpec.constant(0.9, -1.7),
                 OffsetSpec.theorem(2.8, 0.7)):
        built = construct_offset(cone_analysis(), spec)
        assert built.transport_residual < 1e-9


def test_theorem_mode_needs_turning_axis():
    # gamma = 0 on the saddle: the theorem-consistent offset director
    # freezes and there is no offset indicatrix at all
    with pytest.raises(DegenerateOffset):
        construct_offset(saddle_analysis(), OffsetSpec.theorem(0.5, 0.0))


def test_offset_spec_validation():
    with pytest.raises(Exception):
        OffsetSpec(mode="sideways")


# --- predicted invariants ---

def test_right_offset_predictions():
    a = cone_analysis()
    n = a.n
    pred = predicted_invariants(a, np.full(n, np.pi / 2), np.zeros(n))
    assert np.max(np.abs(pred.require("gamma1"))) < 1e-12
    assert np.max(np.abs(pred.R1.real - 1.0)) < 1e-12


def test_dual_sine_prediction():
    a = cone_analysis()
    n = a.n
    pred = predicted_invariants(a, np.full(n, np.pi / 4),
                                np.full(n, 2.0 * SQ2))
    assert np.max(np.abs(pred.R1.real - SQ2 / 2)) < 1e-12
    assert np.max(np.abs(pred.R1.dual - 2.0)) < 1e-12


def test_singular_formulas_flagged():
    a = saddle_analysis()  # gamma = 0 everywhere
    th, ths = np.full(a.n, 0.9), np.full(a.n, 0.4)
    pred = predicted_invariants(a, th, ths)
    with pytest.raises(SingularFormula):
        pred.require("Delta1")
    with pytest.raises(SingularFormula):
        pred.require("delta1")
    # cot(theta) itself stays defined
    assert np.isfinite(pred.require("gamma1")).all()


def test_frame_relation_matrix_orthogonal():
    # the ruling/tangent/normal transfer matrix between the two frames is
    # a dual rotation: M M^T = I and det M = 1 as dual identities
    th = DualScalar(0.8, 1.3)
    c, s = dual_cos(th), dual_sin(th)
    zero, one = DualScalar(0.0, 0.0), DualScalar(1.0, 0.0)
    m = [[c, s, zero], [zero, zero, one], [s, -c, zero]]

    def dot(row_a, row_b):
        acc = DualScalar(0.0, 0.0)
        for x, y in zip(row_a, row_b):
            acc = acc + dual_mul(x, y)
        return acc

    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            got = dot(m[i], m[j])
            assert abs(got.real - want) < 1e-15
            assert abs(got.dual) < 1e-15

    det = (dual_mul(m[0][0], dual_mul(m[1][1], m[2][2]))
           + dual_mul(m[0][1], dual_mul(m[1][2], m[2][0]))
           + dual_mul(m[0][2], dual_mul(m[1][0], m[2][1]))
           - dual_mul(m[0][2], dual_mul(m[1][1], m[2][0]))
           - dual_mul(m[0][0], dual_mul(m[1][2], m[2][1]))
           - dual_mul(m[0][1], dual_mul(m[1][0], m[2][2])))
    assert abs(det.real - 1.0) < 1e-15 and abs(det.dual) < 1e-15


# --- full verification ---

def test_cone_theorem_offset_verifies():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    assert rep.mannheim_residual_real < 1e-4
    assert rep.mannheim_residual_dual < 1e-3
    for row in rep.rows:
        assert row.deviation is not None, row.name
        assert row.deviation < 1e-3, (row.name, row.deviation)
    # conical curvature of the offset follows cot(theta) pointwise
    th = rep.constructed.theta
    inner = slice(2, a.n - 2)
    assert np.max(np.abs(rep.offset_analysis.gamma
                         - np.cos(th) / np.sin(th))[inner]) < 1e-3


def test_hyperboloid_theorem_offset_verifies():
    rep = verify_offset(hyperboloid_analysis(), OffsetSpec.theorem(2.8, 1.0))
    assert rep.mannheim_residual_real < 1e-4
    assert rep.mannheim_residual_dual < 1e-3
    for row in rep.rows:
        assert row.deviation is not None and row.deviation < 1e-3, row.name


def test_offset_angle_law_along_theorem_offset():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    th, ths = rep.constructed.theta, rep.constructed.theta_star
    ds, dss = np.diff(a.s), np.diff(a.s_star)
    assert np.max(np.abs(np.diff(th) / ds + 1.0)) < 1e-6
    dual_part = (np.diff(ths) * ds - np.diff(th) * dss) / (ds * ds)
    assert np.max(np.abs(dual_part)) < 1e-6


def test_report_fails_a_theorem_row_that_compares_no_sample():
    spec = OffsetSpec.theorem(2.8, 0.7)
    rep = verify_offset(cone_analysis(), spec)
    text, ok = render_offset_report(0, spec, rep, 1e-4, 1e-3, 1e-3)
    assert ok and "FAIL" not in text
    # the same report with the Delta1 row excluded entirely by the guards
    rows = [ComparisonRow(r.name, None, 0, "no samples outside guard bands")
            if r.name == "Delta1" else r for r in rep.rows]
    excluded = dataclasses.replace(rep, rows=rows)
    text2, ok2 = render_offset_report(0, spec, excluded, 1e-4, 1e-3, 1e-3)
    assert not ok2
    assert ("    Delta1                         n/a(guard)  "
            "[FAIL: no sample compared]  no samples outside guard bands\n"
            in text2)
    assert text2.count("FAIL") == 1
    # only that line differs
    diff = [(x, y) for x, y in zip(text.splitlines(), text2.splitlines())
            if x != y]
    assert len(diff) == 1 and diff[0][1].split()[0] == "Delta1"
    # constant-angle rows stay informational
    info = dataclasses.replace(excluded, informational=True)
    text3, ok3 = render_offset_report(0, spec, info, 1e-4, 1e-3, 1e-3)
    assert ok3 and "FAIL" not in text3


def test_identity_offset_rejected():
    with pytest.raises(DegenerateOffset):
        verify_offset(saddle_analysis(), OffsetSpec.constant(0.0, 0.0))


def test_constant_angle_is_informational():
    a = saddle_analysis()
    rep = verify_offset(a, OffsetSpec.constant(np.pi / 4, 2.0 * SQ2))
    assert rep.informational
    # the saddle's constant-angle offsets genuinely violate the Mannheim
    # frame condition; the residual is reported, not asserted
    assert rep.mannheim_residual_real > 0.1
    assert not rep.base_developable[0]


def test_offset_pairing_shares_grid():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    assert np.array_equal(rep.offset_analysis.u, a.u)


def test_ruling_angle_recovers_offset_angle():
    a = saddle_analysis()
    e_t, _, _ = a.dual_frame()
    for theta, theta_star in ((0.0, 4.0 * SQ2), (np.pi / 4, 2.0 * SQ2)):
        built = construct_offset(a, OffsetSpec.constant(theta, theta_star))
        e1_t = DualVector(built.e1, np.cross(built.c1, built.e1))
        ang = dual_angle(e_t, e1_t)
        assert np.max(np.abs(ang.theta - theta)) < 1e-12
        assert np.max(np.abs(ang.theta_star - theta_star)) < 1e-12


# --- developability ---

def test_cone_developability_evidence():
    a = cone_analysis()
    th, ths = offset_angle(a, 2.8, 0.7)
    ev = developability_conditions(a, th, ths)
    assert ev.base_max_abs_Delta < 1e-8
    assert ev.theta_star_variation < 1e-8
    # delta = 0: flattening distance profile vanishes -> the zero-distance
    # offset is developable
    assert np.max(np.abs(ev.offset_theta_star[ev.offset_theta_star_valid])) < 1e-12
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.0))
    assert rep.offset_developable[1] < 1e-4


def test_saddle_distance_profile_not_constant():
    a = saddle_analysis()
    th, ths = offset_angle(a, 0.0, 0.0)
    ev = developability_conditions(a, th, ths)
    assert ev.base_max_abs_Delta > 0.4
    assert ev.theta_star_variation == pytest.approx(SQ2, abs=1e-9)
