"""Deterministic verification suites.

Every suite turns one contract of the kernel into named residual checks:
seeded random-input properties for the algebra and the line
correspondence, closed-form reproductions on the catalog surfaces, and
the full Mannheim-offset comparison of predicted against independently
recomputed invariants.  With a fixed seed the report text is
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog
from .config import Tolerances
from .dual import (DualScalar, dot3, dual_angle, dual_cross,
                   dual_dot, dual_mul, dual_norm, dual_normalize, lift, norm3)
from .lines import (common_perpendicular, dual_to_line, line_to_dual,
                    row_dot, sample_lines)
from .offsets import (OffsetSpec, flattening_profile, offset_angle,
                      verify_offset)
from .surface import END_TRIM, SurfaceSpec, analyze, frame_ode_residual

SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def _c(name: str, measured: float, tol: float) -> Check:
    return Check(name, float(measured), float(tol))


class Analyses(dict):
    """The catalog analyses of one run, each built on first use and shared
    by every suite that needs it; a key is (catalog builder name, its
    arguments), the sample count last."""

    def __missing__(self, key):
        name, *args = key
        self[key] = analyze(getattr(catalog, name)(*args))
        return self[key]


SADDLE = ("hyperbolic_paraboloid", (-1.0, 1.0), 2001)
# ranges chosen so theta = -s + c sweeps [0.3, 2.8]
THEOREM_CONE = ("cone", np.pi / 4.0, (0.0, 2.5 / np.sin(np.pi / 4.0)), 2001)
THEOREM_HYPERBOLOID = ("small_circle", np.pi / 6.0, 1.0,
                       (0.0, 2.5 / np.sin(np.pi / 6.0)), 2001)
# the labelled analyses of the pipeline-properties suite
PIPELINE_CASES = (
    ("saddle", SADDLE),
    ("cone", ("cone", np.pi / 4.0, (0.0, 3.0), 2001)),
    ("hyperboloid", ("small_circle", np.pi / 6.0, 1.0, (0.0, 5.0), 2001)),
    ("helicoid", ("helicoid", 0.4, (0.0, 2.0 * np.pi), 2001)))


def suite_dual_algebra(tol, seed, analyses) -> list[Check]:
    """Nilpotency, lifted derivatives against finite differences, the dual
    Lagrange identity, and normalization, on 1000 seeded samples."""
    rng = np.random.default_rng(seed)
    n = 1000
    out = []

    eps2 = dual_mul(DualScalar(0.0, 1.0), DualScalar(0.0, 1.0))
    out.append(_c("algebra: eps*eps = 0",
                  abs(eps2.real) + abs(eps2.dual), tol.algebra_identity))

    a = DualScalar(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
    b = DualScalar(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))
    d1 = dual_mul(a, b).dual
    d2 = dual_mul(DualScalar(a.real, 2.0 * a.dual),
                  DualScalar(b.real, 2.0 * b.dual)).dual
    out.append(_c("algebra: product dual part linear in duals "
                  "(no eps^2 term)", np.max(np.abs(d2 - 2.0 * d1)),
                  tol.algebra_identity))

    h = 1e-5
    star = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    worst = 0.0
    for fname, f, fp, lo, hi in [
            ("sin", np.sin, np.cos, -3.0, 3.0),
            ("cos", np.cos, lambda t: -np.sin(t), -3.0, 3.0),
            ("exp", np.exp, np.exp, -2.0, 2.0),
            ("sqrt", np.sqrt, lambda t: 0.5 / np.sqrt(t), 0.1, 10.0)]:
        x = DualScalar(rng.uniform(lo, hi, n), star)
        fd = (f(x.real + h) - f(x.real - h)) / (2.0 * h)
        rel = np.max(np.abs(lift(f, fp, x).dual - x.dual * fd)
                     / np.abs(x.dual))
        worst = max(worst, float(rel))
    out.append(_c("algebra: lifted derivative vs central difference "
                  "(relative, h=1e-5)", worst, tol.lift_fd_rel))

    def rand_dv():
        return DualScalar(rng.uniform(-2, 2, (n, 3)).T,
                          rng.uniform(-2, 2, (n, 3)).T)

    va, vb = rand_dv(), rand_dv()
    cr = dual_cross(va, vb)
    lhs = dual_dot(cr, cr) + dual_mul(dual_dot(va, vb), dual_dot(va, vb))
    rhs = dual_mul(dual_dot(va, va), dual_dot(vb, vb))
    out.append(_c("algebra: dual Lagrange identity (real part)",
                  np.max(np.abs(lhs.real - rhs.real)), tol.lagrange))
    out.append(_c("algebra: dual Lagrange identity (dual part)",
                  np.max(np.abs(lhs.dual - rhs.dual)), tol.lagrange))

    dirs = rng.normal(size=(n, 3)).T
    dirs /= norm3(dirs)
    vc = DualScalar(dirs * rng.uniform(0.5, 3.0, (n, 1)).T,
                    rng.uniform(-3, 3, (n, 3)).T)
    nn = dual_norm(dual_normalize(vc))
    out.append(_c("algebra: dual_normalize yields norm 1 + eps*0",
                  max(np.max(np.abs(nn.real - 1.0)), np.max(np.abs(nn.dual))),
                  tol.normalize_unit))
    return out


def suite_line_correspondence(tol, seed, analyses) -> list[Check]:
    """Oriented-line round trip through the dual unit sphere and the
    dual-angle distance against the common-perpendicular oracle, on 1000
    seeded random lines."""
    rng = np.random.default_rng(seed + 1)
    lines = sample_lines(rng, 1000)
    duals = line_to_dual(lines)
    a, m = duals.real, duals.dual

    constraint = max(np.max(np.abs(row_dot(a, a) - 1.0)),
                     np.max(np.abs(row_dot(a, m))))
    back = dual_to_line(duals)
    direction = np.max(np.abs(back.direction - lines.direction))
    foot = np.max(lines.distance_to_point(back.point))

    dist, _ = common_perpendicular(lines[0::2], lines[1::2])
    ang = dual_angle(DualScalar(a[:, 0::2], m[:, 0::2]),
                     DualScalar(a[:, 1::2], m[:, 1::2]))
    pair_dev = np.max(np.abs(np.abs(ang.dual) - dist))

    return [
        _c("lines: |<a,a>-1| and |<a,a*>| of the line image",
           constraint, tol.pluecker_constraints),
        _c("lines: round-trip direction (exact)", direction, 0.0),
        _c("lines: round-trip foot point lies on the source line",
           foot, tol.roundtrip_foot),
        _c("lines: |theta*| equals common-perpendicular distance",
           pair_dev, tol.theta_star_oracle),
    ]


def suite_saddle_reproduction(tol, seed, analyses) -> list[Check]:
    """Closed-form frame of the doubly ruled saddle: constant asymptotic
    normal, vanishing conical curvature and striction drift, distribution
    parameter -(1+2u^2)/2, and the dual ruling at u = 0."""
    a = analyses[SADDLE]
    g_want = np.array([[-SQ2 / 2.0], [-SQ2 / 2.0], [0.0]])
    i0 = a.n // 2
    e_tilde, _, _ = a.dual_frame()
    ruling_dev = max(
        float(np.max(np.abs(e_tilde.real[:, i0] - [SQ2 / 2, -SQ2 / 2, 0]))),
        float(np.max(np.abs(e_tilde.dual[:, i0]))))
    return [
        _c("saddle: asymptotic normal constant (-sqrt2/2, -sqrt2/2, 0)",
           np.max(np.abs(a.g - g_want)), tol.example_g),
        _c("saddle: conical curvature vanishes",
           np.max(np.abs(a.gamma)), tol.example_gamma),
        _c("saddle: striction drift delta vanishes",
           np.max(np.abs(a.delta)), tol.example_delta),
        _c("saddle: distribution parameter equals -(1+2u^2)/2",
           np.max(np.abs(a.Delta + 0.5 * (1.0 + 2.0 * a.u ** 2))),
           tol.example_Delta),
        _c("saddle: dual ruling at u=0", ruling_dev, tol.example_ruling),
    ]


def suite_catalog_offsets(tol, seed, analyses) -> list[Check]:
    """The two constant-angle saddle offsets land on the translated
    striction lines (u/2-4, u/2-4, 0) and (u/2-2, u/2-2, 0), both as
    constructed and as independently recomputed."""
    a = analyses[SADDLE]
    out = []
    for label, spec, shift in [
            ("oriented, theta*=4*sqrt2", OffsetSpec.constant(0.0, 4.0 * SQ2), 4.0),
            ("theta=pi/4, theta*=2*sqrt2",
             OffsetSpec.constant(np.pi / 4.0, 2.0 * SQ2), 2.0)]:
        want = np.stack([a.u / 2.0 - shift, a.u / 2.0 - shift,
                         np.zeros_like(a.u)])
        rep = verify_offset(a, spec)
        out.append(_c(f"saddle offset ({label}): constructed striction line",
                      np.max(np.abs(rep.constructed.c1 - want)),
                      tol.offset_striction))
        out.append(_c(f"saddle offset ({label}): recomputed striction line",
                      np.max(np.abs(rep.offset_analysis.c - want)),
                      tol.offset_striction))
    return out


THEOREM_CASES = [("cone(alpha=pi/4)", THEOREM_CONE, 2.8, 0.7),
                 ("small_circle(beta=pi/6)", THEOREM_HYPERBOLOID, 2.8, 1.0)]


def suite_theorem_offsets(tol, seed, analyses) -> list[Check]:
    """Theorem-consistent offsets on the cone and the one-sheet
    hyperboloid: the Mannheim frame condition, every predicted invariant
    against its recomputation, and the differential law
    d(theta~)/d(s~) = -1 + eps*0."""
    out = []
    for label, key, c, c_star in THEOREM_CASES:
        a = analyses[key]
        rep = verify_offset(a, OffsetSpec.theorem(c, c_star))
        out.append(_c(f"{label}: mannheim residual |g~-t1~| (real)",
                      rep.mannheim_residual_real, tol.mannheim_real))
        out.append(_c(f"{label}: mannheim residual |g~-t1~| (dual)",
                      rep.mannheim_residual_dual, tol.mannheim_dual))
        for row in rep.rows:
            dev = row.deviation if row.deviation is not None else np.inf
            out.append(_c(f"{label}: predicted vs recomputed {row.name}",
                          dev, tol.theorem_compare))

        th, ths = rep.constructed.theta_bar.real, rep.constructed.theta_bar.dual
        ds, dss = np.diff(a.s), np.diff(a.s_star)
        real_law = np.max(np.abs(np.diff(th) / ds + 1.0))
        dual_law = np.max(np.abs(
            (np.diff(ths) * ds - np.diff(th) * dss) / (ds * ds)))
        out.append(_c(f"{label}: d(theta)/d(s) = -1", real_law, tol.theta_law))
        out.append(_c(f"{label}: d(theta~)/d(s~) dual part = 0",
                      dual_law, tol.theta_law))
    return out


def suite_developability(tol, seed, analyses) -> list[Check]:
    """Developability both ways on the cone: vanishing distribution
    parameter comes with a constant offset distance, and the offset built
    with the flattening profile theta* = -(delta/gamma) tan(theta) has a
    vanishing distribution parameter itself."""
    a = analyses[THEOREM_CONE]
    th = offset_angle(a, 2.8, 0.7)
    rep = verify_offset(a, OffsetSpec.theorem(2.8, 0.0))
    return [
        _c("cone: max|Delta| (developable base)",
           rep.base_max_abs_Delta, tol.developable_evidence),
        _c("cone: offset distance variation (constant theta*)",
           np.max(th.dual) - np.min(th.dual), tol.developable_evidence),
        _c("cone: flattening profile -(delta/gamma)tan(theta) = 0",
           np.nanmax(np.abs(flattening_profile(a, th.real))),
           tol.developable_evidence),
        _c("cone: offset built with the flattening profile has max|Delta1|",
           rep.offset_max_abs_Delta, tol.developable_offset),
    ]


def _pipeline_checks(label: str, a, tol: Tolerances,
                     ode_tol: float) -> list[Check]:
    trim = slice(END_TRIM, a.n - END_TRIM)
    e_tilde, t_tilde, _ = a.dual_frame()
    ee = dual_dot(e_tilde, e_tilde)
    unit_dev = max(np.max(np.abs(ee.real - 1.0)), np.max(np.abs(ee.dual)))

    c_s = a.derivative("c_u") / a.sigma
    ortho = np.max(np.abs(dot3(c_s, a.t)[trim]))
    decomp = np.max(norm3(c_s - a.delta * a.e - a.Delta * a.g)[trim])

    ds, dss = np.diff(a.s), np.diff(a.s_star)
    mid_Delta = 0.5 * (a.Delta[1:] + a.Delta[:-1])
    arc_speed = np.max(np.abs(dss / ds - mid_Delta))

    ode = frame_ode_residual(a)
    inv = a.invariants()
    return [
        _c(f"{label}: dual ruling stays on the dual unit sphere",
           unit_dev, tol.dual_unit),
        _c(f"{label}: frame orthonormality",
           ode.orthonormality_max, tol.frame_orthonormal),
        _c(f"{label}: striction orthogonality <c', e'>",
           ortho, tol.striction_orthogonality),
        _c(f"{label}: c' = delta e + Delta g",
           decomp, tol.striction_decomposition),
        _c(f"{label}: finite-difference d(s*)/ds = Delta",
           arc_speed, tol.arc_speed_fd),
        _c(f"{label}: frame evolution residual (real)",
           ode.real_max, ode_tol),
        _c(f"{label}: frame evolution residual (dual)",
           ode.dual_max, ode_tol),
        _c(f"{label}: sin(rho)=R and cot(rho)=gamma (dual identities)",
           inv.radius_identity_residual(a.gamma_bar()), tol.radius_identity),
        _c(f"{label}: reparametrization chain-rule residual",
           a.reparam.chain_rule_residual(), tol.chain_rule),
    ]


def suite_pipeline(tol, seed, analyses) -> list[Check]:
    """Analysis-pipeline invariants across the catalog, the sampled
    (no-oracle) path, and invariance of the analysis under moving the
    base curve along the rulings."""
    out = []
    for label, key in PIPELINE_CASES:
        out.extend(_pipeline_checks(label, analyses[key], tol,
                                    tol.frame_ode_analytic))

    base = analyses[SADDLE]
    saddle = base.spec
    sampled = SurfaceSpec(director=saddle.director, base=saddle.base,
                          param_range=saddle.param_range,
                          sample_count=saddle.sample_count,
                          name="saddle-sampled")
    a = analyze(sampled)
    ode = frame_ode_residual(a)
    out.append(_c("saddle (no oracles): frame evolution residual (real)",
                  ode.real_max, tol.frame_ode_sampled))
    out.append(_c("saddle (no oracles): frame evolution residual (dual)",
                  ode.dual_max, tol.frame_ode_sampled))

    b = analyze(_shifted_base_saddle(saddle))
    inv_dev = max(float(np.max(np.abs(b.c - base.c))),
                  float(np.max(np.abs(b.Delta - base.Delta))),
                  float(np.max(np.abs(b.delta - base.delta))),
                  float(np.max(np.abs(b.gamma - base.gamma))))
    out.append(_c("saddle: striction/invariants unchanged when the base "
                  "curve slides along the rulings", inv_dev,
                  tol.striction_invariance))
    return out


def _shifted_base_saddle(s: SurfaceSpec) -> SurfaceSpec:
    """Saddle s with base p(u) + mu(u) e(u), mu = 0.3 sin(2u) + 0.2."""

    def mu(u):
        return 0.3 * np.sin(2.0 * np.asarray(u, float)) + 0.2

    def mu1(u):
        return 0.6 * np.cos(2.0 * np.asarray(u, float))

    def mu2(u):
        return -1.2 * np.sin(2.0 * np.asarray(u, float))

    # (n, 3) callables, as SurfaceSpec requires, combining the saddle's
    # (3, n) transposes
    def base(u):
        return (s.base(u).T + mu(u) * s.director(u).T).T

    def base_d1(u):
        return (s.base_d1(u).T + mu1(u) * s.director(u).T
                + mu(u) * s.director_d1(u).T).T

    def base_d2(u):
        return (s.base_d2(u).T + mu2(u) * s.director(u).T
                + 2.0 * mu1(u) * s.director_d1(u).T
                + mu(u) * s.director_d2(u).T).T

    return SurfaceSpec(director=s.director, director_d1=s.director_d1,
                       director_d2=s.director_d2, base=base, base_d1=base_d1,
                       base_d2=base_d2, param_range=s.param_range,
                       sample_count=s.sample_count, name="saddle-shifted-base")


# (title, suite); a suite takes (tol: Tolerances, seed: int, Analyses)
SUITES = [
    ("dual algebra", suite_dual_algebra),
    ("line correspondence", suite_line_correspondence),
    ("saddle reproduction", suite_saddle_reproduction),
    ("catalog offsets", suite_catalog_offsets),
    ("theorem offsets", suite_theorem_offsets),
    ("developability", suite_developability),
    ("pipeline properties", suite_pipeline),
]


def run_all(tol: Tolerances, seed: int) -> tuple[str, int]:
    """Run every suite, sharing one Analyses among them; returns (report
    text, number of failed checks)."""
    analyses = Analyses()
    lines = []
    failed = 0
    total = 0
    for title, fn in SUITES:
        lines.append(f"[{title}]")
        for check in fn(tol, seed, analyses):
            total += 1
            status = "PASS" if check.passed else "FAIL"
            if not check.passed:
                failed += 1
            lines.append(f"  {status}  {check.name}  "
                         f"measured={check.measured:.3e}  "
                         f"tol={check.tolerance:.3e}")
    lines.append(f"{total - failed}/{total} checks passed"
                 + ("" if failed == 0 else f"; {failed} FAILED"))
    return "\n".join(lines) + "\n", failed
