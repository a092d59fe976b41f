"""Mannheim surface offsets: construction and independent verification.

A Mannheim offset of a ruled surface turns the asymptotic normal g of the
base surface into the central normal t1 of the offset along the shared
striction lines.  Two construction modes exist:

* theorem_consistent -- the offset angle/distance follow the differential
  law that the Mannheim condition forces: theta = -s + c and
  theta_star = -integral(Delta ds) + c_star.  All invariant relations of
  the offset are then predictions that the verifier recomputes from
  scratch and asserts.

* constant_angle -- a fixed dual angle between corresponding rulings.
  Such offsets generally violate the Mannheim condition; the verifier
  reports the measured residuals as findings instead of asserting them.

The offset director is e1 = cos(theta) e + sin(theta) t and the offset
striction line is transported as c1 = c + theta_star * g.  The verifier
never reuses a predicted quantity on the "recomputed" side: the offset is
re-analyzed through the full pipeline with finite differences only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import DualScalar, cross3, norm3
from .errors import ConfigError, DegenerateIndicatrix, DegenerateOffset
from .surface import (DEGENERATE_SIGMA, DualCurvatureInvariants,
                      Measurement, SurfaceAnalysis, _blocks, _fd1, _interior,
                      analyze, spline_surface)

# Guard bands for the closed-form offset invariants (they divide by gamma
# and by tan/cot of theta, which the formulas leave undefined at zero).
GAMMA_MIN = 1e-6
SIN_MIN = 1e-6
# theta must stay this far inside (0, pi) for cot-based checks.
THETA_BAND = 1e-3


@dataclass(frozen=True)
class OffsetSpec:
    """How to build an offset: theorem-consistent profiles from integration
    constants (c, c_star), or a fixed dual offset angle (theta, theta_star)."""

    PARAMS = {"theorem_consistent": ("c", "c_star"),
              "constant_angle": ("theta", "theta_star")}

    mode: str
    c: float = 0.0
    c_star: float = 0.0
    theta: float = 0.0
    theta_star: float = 0.0

    def __post_init__(self):
        if self.mode not in tuple(self.PARAMS):
            raise ConfigError(f"unknown offset mode {self.mode!r}")

    @classmethod
    def theorem(cls, c: float, c_star: float) -> "OffsetSpec":
        return cls(mode="theorem_consistent", c=float(c), c_star=float(c_star))

    @classmethod
    def constant(cls, theta: float, theta_star: float) -> "OffsetSpec":
        return cls(mode="constant_angle", theta=float(theta),
                   theta_star=float(theta_star))


def offset_angle(analysis: SurfaceAnalysis, c: float,
                 c_star: float) -> DualScalar:
    """Dual offset angle theta + eps*theta_star of a Mannheim pair:
    theta(s) = -s + c and theta_star(s) = -integral(Delta ds) + c_star."""
    return DualScalar(-analysis.s + c, -analysis.s_star + c_star)


@dataclass(frozen=True)
class ConstructedOffset:
    """Sampled offset geometry on the base analysis grid."""

    theta_bar: DualScalar   # dual offset angle; fields are (n,) arrays
    cos_bar: DualScalar     # cos(theta_bar) and sin(theta_bar), evaluated
    sin_bar: DualScalar     # once per offset
    e1: np.ndarray          # read-only (3, n), like the analysis's fields
    c1: np.ndarray
    transport_residual: float


def construct_offset(analysis: SurfaceAnalysis,
                     spec: OffsetSpec) -> ConstructedOffset:
    """Build the offset surface on the analysis grid.

    The dual ruling is the dual product cos(th)~e + sin(th)~t: its real
    part, normalized, is the director e1, and the striction line moves by
    theta_star along g.  The moment c1 x e1 of the constructed ruling is
    checked against the ruling's dual part, which validates the striction
    transport; the defect is reported as transport_residual.  All of it
    runs in column blocks (surface.BLOCK).

    Raises DegenerateOffset when the constructed indicatrix is singular
    everywhere (the offset is not a surface of the analyzable class, e.g.
    a theorem-consistent offset of a surface with vanishing conical
    curvature)."""
    a = analysis
    if spec.mode == "theorem_consistent":
        th = offset_angle(a, spec.c, spec.c_star)
    else:
        th = DualScalar(np.full(a.n, spec.theta), np.full(a.n, spec.theta_star))
    cos, sin = np.cos(th.real), np.sin(th.real)
    cos_bar = DualScalar(cos, -th.dual * sin)
    sin_bar = DualScalar(sin, th.dual * cos)
    e1, c1 = np.empty((3, a.n)), np.empty((3, a.n))
    transport = Measurement("striction transport")
    for sl in _blocks(a.n):
        e_t, t_t, _ = a.dual_frame(sl)
        ruling = cos_bar.cols(sl) * e_t + sin_bar.cols(sl) * t_t
        e1_b = np.divide(ruling.real, norm3(ruling.real), out=e1[:, sl])
        c1_b = np.add(a.c[:, sl], th.dual[sl] * a.g[:, sl], out=c1[:, sl])
        # dual part of the rotated dual ruling must equal c1 x e1
        defect = cross3(c1_b, e1_b)
        np.subtract(ruling.dual, defect, out=defect)
        transport = transport.merged(norm3(defect), start=sl.start)
    e1.flags.writeable = c1.flags.writeable = False

    speed = Measurement("offset indicatrix speed")
    for sl in _blocks(a.n):
        speed = speed.merged(norm3(_fd1(e1, a.h, sl)), start=sl.start)
    if speed.deviation < DEGENERATE_SIGMA:   # a NaN speed is not degenerate
        raise DegenerateOffset(
            "offset indicatrix is singular everywhere: the rotated director "
            "does not move (|e1'| = 0, e.g. gamma*sin(theta) = 0 identically)")
    return ConstructedOffset(
        theta_bar=th, cos_bar=cos_bar, sin_bar=sin_bar, e1=e1, c1=c1,
        transport_residual=transport.deviation)


@dataclass(frozen=True)
class PredictedInvariants:
    """Closed-form offset invariants implied by the Mannheim relations.

    Entries whose formula divides by a guarded quantity are NaN outside
    the guard band (the arrays are read-only).  The dual spherical radius
    of curvature rho1 is the dual offset angle theta_bar itself.
    """

    dsbar1_dsbar: DualScalar
    gamma1: np.ndarray
    Delta1: np.ndarray
    delta1: np.ndarray
    R1: DualScalar
    rho1: DualScalar


def predicted_invariants(analysis: SurfaceAnalysis, theta_bar: DualScalar,
                         cos_bar: DualScalar,
                         sin_bar: DualScalar) -> PredictedInvariants:
    """Evaluate the Mannheim-offset invariant formulas on the base
    analysis, given the dual offset angle theta_bar and its cosine and
    sine: arc-speed ratio gamma*sin(theta) (real and dual), conical
    curvature cot(theta), distribution parameter and striction drift of
    the offset, dual curvature sin(theta_bar) and spherical radius
    theta_bar itself."""
    a = analysis
    th = theta_bar
    gamma_ok = np.abs(a.gamma) > GAMMA_MIN
    sin_ok = np.abs(sin_bar.real) > SIN_MIN

    dsbar = a.gamma_bar() * sin_bar

    with np.errstate(divide="ignore", invalid="ignore"):
        cot = cos_bar.real / sin_bar.real
        d_over_g = a.delta / a.gamma
        gamma1 = np.where(sin_ok, cot, np.nan)
        Delta1 = np.where(sin_ok & gamma_ok, th.dual * cot + d_over_g, np.nan)
        delta1 = np.where(sin_ok & gamma_ok, d_over_g * cot - th.dual, np.nan)
    for x in (gamma1, Delta1, delta1):
        x.flags.writeable = False

    return PredictedInvariants(
        dsbar1_dsbar=dsbar, gamma1=gamma1, Delta1=Delta1, delta1=delta1,
        R1=sin_bar, rho1=th)


@dataclass(frozen=True)
class OffsetReport:
    """Measurements from re-analyzing a constructed offset from scratch;
    `io.render_offset_report` judges them against the tolerances."""

    constructed: ConstructedOffset
    offset_analysis: SurfaceAnalysis
    offset_invariants: DualCurvatureInvariants
    mannheim_residual_real: float
    mannheim_residual_dual: float
    rows: tuple[Measurement, ...]   # max |predicted - recomputed|
    base_max_abs_Delta: float
    offset_max_abs_Delta: float
    n_valid: int


def verify_offset(analysis: SurfaceAnalysis, spec: OffsetSpec) -> OffsetReport:
    """Construct the offset, rerun the full analysis pipeline on it, and
    tabulate |predicted - recomputed| for every offset invariant.

    Samples are paired by the shared parameter u.  Comparisons skip
    END_TRIM samples at each end (one-sided difference stencils), samples
    inside the singularity guards, and samples where theta leaves (0, pi).
    The residuals and rows are formed in column blocks (surface.BLOCK).
    Raises DegenerateOffset for the identity offset and for offsets whose
    indicatrix the pipeline cannot process."""
    a = analysis
    built = construct_offset(a, spec)
    th = built.theta_bar
    if np.max(np.abs(th.real)) < 1e-12 and np.max(np.abs(th.dual)) < 1e-12:
        raise DegenerateOffset(
            "identity offset: predicted arc-speed gamma*sin(theta) "
            "vanishes, there is no separate surface to verify")
    # the splines' one consumer; unlike sampled_surface, no renormalization
    surface = spline_surface(a.u, built.e1, built.c1, f"offset[{spec.mode}]")
    try:
        off = analyze(surface)
    except DegenerateIndicatrix as exc:
        raise DegenerateOffset(
            f"constructed offset has a singular indicatrix: {exc}") from exc

    pred = predicted_invariants(a, th, built.cos_bar, built.sin_bar)
    inv = off.invariants()
    rows = {}   # name -> Measurement, in the table's order
    mann = [Measurement("mannheim (real)"), Measurement("mannheim (dual)")]
    n_valid = 0

    for sl in _blocks(a.n):
        interior = _interior(sl, a.n)
        base_ok = np.zeros(sl.stop - sl.start, dtype=bool)
        base_ok[interior] = True
        theta = th.real[sl]
        base_ok &= (theta > THETA_BAND) & (theta < np.pi - THETA_BAND)
        n_valid += np.count_nonzero(base_ok)
        # the offset's dual frame on the block, formed once for the
        # Mannheim rows and both sides of the Darboux axis
        e1, t1, g1 = off.dual_frame(sl)

        # Mannheim condition: asymptotic normal of the base = central
        # normal of the recomputed offset (the interior is never empty:
        # n >= 5).
        base_g = a.dual_frame(sl)[2]
        mann = [m.merged(norm3(x - y), interior, sl.start) for m, x, y in zip(
            mann, (base_g.real, base_g.dual), (t1.real, t1.dual))]

        speed_ratio = off.sigma[sl] / a.sigma[sl]
        # Darboux axis of the offset, cos(rho1)~e1 + sin(rho1)~g1: predicted
        # with rho1 = theta_bar, recomputed from the offset's own invariants
        d0_pred = built.cos_bar.cols(sl) * e1 + built.sin_bar.cols(sl) * g1
        d0_rec = inv.cos_rho.cols(sl) * e1 + inv.R.cols(sl) * g1
        table = (   # (row, predicted, recomputed)
            ("ds1/ds", pred.dsbar1_dsbar.real[sl], speed_ratio),
            ("dsbar1/dsbar (dual part)", pred.dsbar1_dsbar.dual[sl],
             speed_ratio * (off.Delta[sl] - a.Delta[sl])),
            ("gamma1", pred.gamma1[sl], off.gamma[sl]),
            ("Delta1", pred.Delta1[sl], off.Delta[sl]),
            ("delta1", pred.delta1[sl], off.delta[sl]),
            ("R1 (real)", pred.R1.real[sl], inv.R.real[sl]),
            ("R1 (dual)", pred.R1.dual[sl], inv.R.dual[sl]),
            ("rho1 (angle)", pred.rho1.real[sl], inv.rho.real[sl]),
            ("rho1 (distance)", pred.rho1.dual[sl], inv.rho.dual[sl]),
            ("d0_1 (real)", norm3(d0_pred.real - d0_rec.real), 0.0),
            ("d0_1 (dual)", norm3(d0_pred.dual - d0_rec.dual), 0.0))
        # a guarded prediction is NaN outside its guard band
        for name, p, r in table:
            rows[name] = rows.get(name, Measurement(name)).merged(
                np.abs(p - r), base_ok & np.isfinite(p), sl.start)

    return OffsetReport(
        constructed=built, offset_analysis=off, offset_invariants=inv,
        mannheim_residual_real=mann[0].deviation,
        mannheim_residual_dual=mann[1].deviation, rows=tuple(rows.values()),
        base_max_abs_Delta=float(np.max(np.abs(a.Delta))),
        offset_max_abs_Delta=float(np.max(np.abs(off.Delta))),
        n_valid=int(n_valid))


def flattening_profile(analysis: SurfaceAnalysis, theta) -> np.ndarray:
    """Offset distance theta* = -(delta/gamma) tan(theta) along which the
    offset at angle theta is developable; NaN inside the guard bands
    (|gamma| <= GAMMA_MIN or |cos(theta)| <= SIN_MIN)."""
    a = analysis
    ok = (np.abs(a.gamma) > GAMMA_MIN) & (np.abs(np.cos(theta)) > SIN_MIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, -(a.delta / a.gamma) * np.tan(theta), np.nan)
