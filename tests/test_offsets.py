"""Mannheim offsets: construction, predictions, independent recheck."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledgeom import catalog, verify
from ruledgeom.cli import main
from ruledgeom.config import Tolerances
from ruledgeom.dual import DualScalar, dual_angle, dual_cos, dual_mul, dual_sin
from ruledgeom.errors import DegenerateOffset
from ruledgeom.io import render_offset_report
from ruledgeom.offsets import (SIN_MIN, ComparisonRow, OffsetSpec,
                               construct_offset, flattening_profile,
                               offset_angle, predicted_invariants,
                               verify_offset)
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
    th = offset_angle(a, 1.4, -0.3)
    assert th.real[0] == pytest.approx(1.4)
    assert th.dual[0] == pytest.approx(-0.3)


def test_developable_base_has_constant_distance():
    a = cone_analysis()
    ths = offset_angle(a, 2.8, 0.7).dual
    assert np.max(np.abs(ths - 0.7)) < 1e-12


def test_saddle_distance_grows_linearly():
    a = saddle_analysis()
    ths = offset_angle(a, 0.0, 0.25).dual
    slope = np.diff(ths) / np.diff(a.u)
    assert np.max(np.abs(slope - SQ2 / 2)) < 1e-6
    assert ths[0] == pytest.approx(0.25)  # s = 0 at the range start


# --- construction ---

def test_catalog_case_oriented():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(0.0, 4.0 * SQ2))
    want = np.stack([a.u / 2 - 4, a.u / 2 - 4, np.zeros_like(a.u)])
    assert np.max(np.abs(built.c1 - want)) < 1e-9
    assert np.max(np.abs(built.e1 - a.e)) < 1e-15


def test_catalog_case_quarter_angle():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(np.pi / 4, 2.0 * SQ2))
    want = np.stack([a.u / 2 - 2, a.u / 2 - 2, np.zeros_like(a.u)])
    assert np.max(np.abs(built.c1 - want)) < 1e-9


def test_identity_offset_construction():
    a = saddle_analysis()
    built = construct_offset(a, OffsetSpec.constant(0.0, 0.0))
    assert not np.any(built.theta_bar.real)
    assert not np.any(built.theta_bar.dual)
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

def predict(a, th):
    return predicted_invariants(a, th, dual_cos(th), dual_sin(th))


def test_right_offset_predictions():
    a = cone_analysis()
    n = a.n
    pred = predict(a, DualScalar(np.full(n, np.pi / 2), np.zeros(n)))
    assert np.isfinite(pred.gamma1).all()
    assert np.max(np.abs(pred.gamma1)) < 1e-12
    assert np.max(np.abs(pred.R1.real - 1.0)) < 1e-12


def test_dual_sine_prediction():
    a = cone_analysis()
    n = a.n
    pred = predict(a, DualScalar(np.full(n, np.pi / 4), np.full(n, 2.0 * SQ2)))
    assert np.max(np.abs(pred.R1.real - SQ2 / 2)) < 1e-12
    assert np.max(np.abs(pred.R1.dual - 2.0)) < 1e-12


def test_singular_formulas_flagged():
    a = saddle_analysis()  # gamma = 0 everywhere
    pred = predict(a, DualScalar(np.full(a.n, 0.9), np.full(a.n, 0.4)))
    for name in ("Delta1", "delta1"):
        assert np.isnan(getattr(pred, name)).all()
    # cot(theta) itself stays defined
    assert np.isfinite(pred.gamma1).all()


def test_frame_relation_matrix_orthogonal():
    # the ruling/tangent/normal transfer matrix between the two frames is
    # a dual rotation: M M^T = I and det M = 1 as dual identities
    th = DualScalar(0.8, 1.3)
    c, s = dual_cos(th), dual_sin(th)
    zero, one = DualScalar(0.0, 0.0), DualScalar(1.0, 0.0)

    def neg(x):
        return DualScalar(-x.real, -x.dual)

    m = [[c, s, zero], [zero, zero, one], [s, neg(c), zero]]

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
           + neg(dual_mul(m[0][2], dual_mul(m[1][1], m[2][0])))
           + neg(dual_mul(m[0][0], dual_mul(m[1][2], m[2][1])))
           + neg(dual_mul(m[0][1], dual_mul(m[1][0], m[2][2]))))
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
    th = rep.constructed.theta_bar.real
    inner = slice(2, a.n - 2)
    assert np.max(np.abs(rep.offset_analysis.gamma
                         - np.cos(th) / np.sin(th))[inner]) < 1e-3


@st.composite
def cone_theorem_cases(draw):
    """Cone and integration constants with theta = -s + c inside
    [0.3, pi - 0.3] over the whole arc-length span [0, s_max]."""
    alpha = draw(st.floats(0.35, 1.2))
    s_max = draw(st.floats(1.6, 2.5))
    c = draw(st.floats(s_max + 0.3, np.pi - 0.3))
    c_star = draw(st.floats(-1.5, 1.5))
    return alpha, s_max, c, c_star


@settings(deadline=None, max_examples=60)
@given(case=cone_theorem_cases())
def test_theorem_offsets_verify_on_random_cones(case):
    alpha, s_max, c, c_star = case
    tol = Tolerances()
    a = analyze(catalog.cone(alpha, (0.0, s_max / np.sin(alpha)), 2001))
    rep = verify_offset(a, OffsetSpec.theorem(c, c_star))
    assert rep.n_valid > 0
    assert rep.mannheim_residual_real <= tol.mannheim_real
    assert rep.mannheim_residual_dual <= tol.mannheim_dual
    for row in rep.rows:
        assert row.deviation is not None, row.name
        assert row.deviation <= tol.theorem_compare, (row.name, row.deviation)
    # the offset's dual spherical radius of curvature is the offset angle
    built = rep.constructed
    theta_bar = built.theta_bar
    assert predicted_invariants(a, theta_bar, built.cos_bar,
                                built.sin_bar).rho1 is theta_bar


def test_hyperboloid_theorem_offset_verifies():
    rep = verify_offset(hyperboloid_analysis(), OffsetSpec.theorem(2.8, 1.0))
    assert rep.mannheim_residual_real < 1e-4
    assert rep.mannheim_residual_dual < 1e-3
    for row in rep.rows:
        assert row.deviation is not None and row.deviation < 1e-3, row.name


def test_offset_angle_law_along_theorem_offset():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    th, ths = rep.constructed.theta_bar.real, rep.constructed.theta_bar.dual
    ds, dss = np.diff(a.s), np.diff(a.s_star)
    assert np.max(np.abs(np.diff(th) / ds + 1.0)) < 1e-6
    dual_part = (np.diff(ths) * ds - np.diff(th) * dss) / (ds * ds)
    assert np.max(np.abs(dual_part)) < 1e-6


def test_report_fails_a_theorem_row_that_compares_no_sample():
    spec = OffsetSpec.theorem(2.8, 0.7)
    rep = verify_offset(cone_analysis(), spec)
    text, ok = render_offset_report(0, spec, rep, Tolerances())
    assert ok and "FAIL" not in text
    # the same report with the Delta1 row excluded entirely by the guards
    rows = [ComparisonRow(r.name, None, 0) if r.name == "Delta1" else r
            for r in rep.rows]
    excluded = dataclasses.replace(rep, rows=rows)
    text2, ok2 = render_offset_report(0, spec, excluded, Tolerances())
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
    info = OffsetSpec.constant(0.0, 1.0)
    text3, ok3 = render_offset_report(0, info, excluded, Tolerances())
    assert ok3 and "FAIL" not in text3


def test_identity_offset_rejected():
    with pytest.raises(DegenerateOffset):
        verify_offset(saddle_analysis(), OffsetSpec.constant(0.0, 0.0))


def test_constant_angle_is_informational():
    a = saddle_analysis()
    spec = OffsetSpec.constant(np.pi / 4, 2.0 * SQ2)
    rep = verify_offset(a, spec)
    text, _ = render_offset_report(0, spec, rep, Tolerances())
    assert "[informational:" in text
    # the saddle's constant-angle offsets genuinely violate the Mannheim
    # frame condition; the residual is reported, not asserted
    assert rep.mannheim_residual_real > 0.1
    assert "developable: base=no " in text


def test_offset_pairing_shares_grid():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    assert np.array_equal(rep.offset_analysis.u, a.u)


def test_ruling_angle_recovers_offset_angle():
    a = saddle_analysis()
    e_t, _, _ = a.dual_frame()
    for theta, theta_star in ((0.0, 4.0 * SQ2), (np.pi / 4, 2.0 * SQ2)):
        built = construct_offset(a, OffsetSpec.constant(theta, theta_star))
        e1_t = DualScalar(built.e1, np.cross(built.c1, built.e1, axis=0))
        ang = dual_angle(e_t, e1_t)
        assert np.max(np.abs(ang.real - theta)) < 1e-12
        assert np.max(np.abs(ang.dual - theta_star)) < 1e-12


# --- developability ---

def test_cone_developability_evidence():
    a = cone_analysis()
    th = offset_angle(a, 2.8, 0.7)
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.0))
    assert rep.base_max_abs_Delta < 1e-8
    assert np.max(th.dual) - np.min(th.dual) < 1e-8
    # delta = 0: flattening distance profile vanishes -> the zero-distance
    # offset is developable
    assert np.nanmax(np.abs(flattening_profile(a, th.real))) < 1e-12
    assert rep.offset_max_abs_Delta < 1e-4


def test_saddle_distance_profile_not_constant():
    a = saddle_analysis()
    theta_star = offset_angle(a, 0.0, 0.0).dual
    assert np.max(np.abs(a.Delta)) > 0.4
    assert np.max(theta_star) - np.min(theta_star) == pytest.approx(SQ2,
                                                                    abs=1e-9)


def test_flattening_profile_is_nan_exactly_inside_the_guards():
    # gamma = 0 on the saddle: no sample is outside the gamma guard
    saddle = saddle_analysis()
    assert np.isnan(flattening_profile(saddle, np.full(saddle.n, 0.5))).all()
    # on the cone (gamma = 1) only samples with |cos(theta)| <= SIN_MIN
    a = cone_analysis()
    theta = np.full(a.n, 0.5)
    theta[[0, 700, a.n - 1]] = np.pi / 2
    profile = flattening_profile(a, theta)
    assert np.isnan(profile[[0, 700, a.n - 1]]).all()
    assert np.isfinite(np.delete(profile, [0, 700, a.n - 1])).all()
    # the theorem angle sweeps [0.3, 2.8] across pi/2
    theta = offset_angle(a, 2.8, 0.7).real
    assert np.array_equal(np.isfinite(flattening_profile(a, theta)),
                          np.abs(np.cos(theta)) > SIN_MIN)


def test_results_are_frozen_and_d0_is_built_on_first_read():
    a = cone_analysis()
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.7))
    built = rep.constructed
    pred = predicted_invariants(a, built.theta_bar, built.cos_bar,
                                built.sin_bar)
    inv = a.invariants()
    for result, name in ((inv, "R"), (built, "e1"), (pred, "gamma1"),
                         (rep.rows[0], "deviation"), (rep, "n_valid")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)
    d0 = inv.d0_cols(slice(None))
    assert "d0" not in vars(inv)        # formed on each read, never held
    e_t, _, g_t = a.dual_frame()
    assert np.array_equal(d0.real, (inv.cos_rho * e_t + inv.R * g_t).real)


def test_dual_values_are_read_only():
    a = cone_analysis()
    built = construct_offset(a, OffsetSpec.theorem(2.8, 0.7))
    pred = predicted_invariants(a, built.theta_bar, built.cos_bar,
                                built.sin_bar)
    inv = a.invariants()
    e_t, t_t, _ = a.dual_frame()
    angle = dual_angle(e_t, t_t)
    values = [inv.R, inv.rho, inv.cos_rho, built.theta_bar, built.cos_bar,
              built.sin_bar, pred.R1, pred.rho1, pred.dsbar1_dsbar, angle]
    for value in values:
        for part in (value.real, value.dual):
            assert part.shape == (a.n,)
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 123.0
    for part in (pred.gamma1, pred.Delta1, pred.delta1):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1.0
    rows = verify_offset(a, OffsetSpec.theorem(2.8, 0.7)).rows
    assert isinstance(rows, tuple) and len(rows) == 11
    with pytest.raises(AttributeError):
        rows.append(None)
    own = np.zeros(3)
    wrapped = DualScalar(own, own)
    own[0] = 1.0
    assert wrapped.real[0] == 1.0 and own.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        wrapped.dual[0] = 2.0


# --- measured defects (ROADMAP items 2, 3 and 11) ---
# Each test asserts its tolerance as it stands and fails on today's code:
# the change that mends the defect must flip it (strict xfail).

def _readme_cone_config(path, **doc):
    doc["offsets"] = [{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7}]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: where the parameter "
                   "runs the other way, t1 = -g, and the real residual "
                   "reads 2.000")
def test_reversed_sampled_csv_cone_passes_the_mannheim_check(tmp_path):
    """The README cone's analysis.csv, reused as a sampled_csv with its
    rows reversed (u kept increasing), in `ruledgeom offset`."""
    cfg = _readme_cone_config(
        tmp_path / "cone.json", surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "analysis.csv", delimiter=",", skiprows=1)
    u, c, e = table[:, 0], table[::-1, 3:6], table[::-1, 6:9]
    with open(tmp_path / "reversed.csv", "w") as fh:
        fh.write("u,ex,ey,ez,px,py,pz\n")
        np.savetxt(fh, np.column_stack([u, e, c]), fmt="%.17g",
                   delimiter=",")
    cfg = _readme_cone_config(
        tmp_path / "reversed.json",
        surface={"sampled_csv": str(tmp_path / "reversed.csv")})
    assert main(["offset", "--config", cfg, "--out", str(tmp_path)]) in (0, 2)
    report = (tmp_path / "offset_0_report.txt").read_text()
    real = float(re.search(r"\|: real=(\S+) ", report).group(1))
    assert real <= Tolerances().mannheim_real


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the offset's "
                   "re-analysis differences the base's one-sided end "
                   "stencils twice more; delta1 reads 1.06e-2")
def test_theorem_offset_of_a_small_circle_without_oracles_verifies():
    spec = dataclasses.replace(
        catalog.small_circle(np.pi / 6, 1.0, (0.0, 5.0), 2001),
        director_d1=None, director_d2=None, base_d1=None, base_d2=None)
    rep = verify_offset(analyze(spec), OffsetSpec.theorem(2.8, 1.0))
    delta1 = next(r.deviation for r in rep.rows if r.name == "delta1")
    assert delta1 <= Tolerances().theorem_compare


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the dual residual "
                   "compares moments about the world origin; it reads "
                   "1.63e-3 at |b| = 1000")
def test_translated_theorem_cone_passes_the_mannheim_check():
    """The verify suite's theorem cone pair, translated by b."""
    name, *args = verify.THEOREM_CONE
    spec = getattr(catalog, name)(*args)
    b = 1000.0 * np.array([0.6, 0.0, 0.8])
    moved = dataclasses.replace(spec, base=lambda u: spec.base(u) + b)
    rep = verify_offset(analyze(moved), OffsetSpec.theorem(2.8, 0.7))
    assert rep.mannheim_residual_dual <= Tolerances().mannheim_dual
