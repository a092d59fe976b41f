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
from typing import Optional

import numpy as np

from .dual import DualScalar, cross3, norm3
from .errors import ConfigError, DegenerateIndicatrix, DegenerateOffset
from .surface import (DEGENERATE_SIGMA, END_TRIM, DualCurvatureInvariants,
                      SurfaceAnalysis, _fd1, analyze, spline_surface)

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
    transport; the defect is reported as transport_residual.

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
    e_t, t_t, _ = a.dual_frame()
    ruling = cos_bar * e_t + sin_bar * t_t
    e1 = ruling.real / norm3(ruling.real)
    c1 = a.c + th.dual * a.g
    e1.flags.writeable = c1.flags.writeable = False

    # dual part of the rotated dual ruling must equal c1 x e1
    transport = float(np.max(norm3(ruling.dual - cross3(c1, e1))))

    sigma1 = norm3(_fd1(e1, float(a.u[1] - a.u[0])))
    if np.max(sigma1) < DEGENERATE_SIGMA:
        raise DegenerateOffset(
            "offset indicatrix is singular everywhere: the rotated director "
            "does not move (|e1'| = 0, e.g. gamma*sin(theta) = 0 identically)")
    return ConstructedOffset(
        theta_bar=th, cos_bar=cos_bar, sin_bar=sin_bar, e1=e1, c1=c1,
        transport_residual=transport)


@dataclass(frozen=True)
class PredictedInvariants:
    """Closed-form offset invariants implied by the Mannheim relations.

    Entries whose formula divides by a guarded quantity are NaN outside
    the guard band.  The dual spherical radius of curvature rho1 is the
    dual offset angle theta_bar itself.
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

    return PredictedInvariants(
        dsbar1_dsbar=dsbar, gamma1=gamma1, Delta1=Delta1, delta1=delta1,
        R1=sin_bar, rho1=th)


@dataclass(frozen=True)
class ComparisonRow:
    """One predicted-vs-recomputed quantity, maxed over valid samples
    (None when no sample was compared)."""

    name: str
    deviation: Optional[float]   # max |predicted - recomputed|
    n_compared: int


@dataclass(frozen=True)
class OffsetReport:
    """Measurements from re-analyzing a constructed offset from scratch;
    `io.render_offset_report` judges them against the tolerances."""

    constructed: ConstructedOffset
    offset_analysis: SurfaceAnalysis
    offset_invariants: DualCurvatureInvariants
    mannheim_residual_real: float
    mannheim_residual_dual: float
    rows: list
    base_max_abs_Delta: float
    offset_max_abs_Delta: float
    n_valid: int


def _max_at(arr, mask) -> Optional[float]:
    if not np.any(mask):
        return None
    return float(np.max(np.abs(np.asarray(arr)[mask])))


def verify_offset(analysis: SurfaceAnalysis, spec: OffsetSpec) -> OffsetReport:
    """Construct the offset, rerun the full analysis pipeline on it, and
    tabulate |predicted - recomputed| for every offset invariant.

    Samples are paired by the shared parameter u.  Comparisons skip
    END_TRIM samples at each end (one-sided difference stencils), samples
    inside the singularity guards, and samples where theta leaves (0, pi).
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
    surface = spline_surface(a.u, built.e1, built.c1,
                             f"{a.spec.name or 'surface'}+offset[{spec.mode}]")
    try:
        off = analyze(surface)
    except DegenerateIndicatrix as exc:
        raise DegenerateOffset(
            f"constructed offset has a singular indicatrix: {exc}") from exc

    pred = predicted_invariants(a, th, built.cos_bar, built.sin_bar)

    interior = np.zeros(a.n, dtype=bool)
    interior[END_TRIM:a.n - END_TRIM] = True
    in_band = (th.real > THETA_BAND) & (th.real < np.pi - THETA_BAND)
    base_ok = interior & in_band

    # Mannheim condition: asymptotic normal of the base = central normal
    # of the recomputed offset (the interior is never empty: n >= 5).
    mann_real = _max_at(norm3(a.g - off.t), interior)
    mann_dual = _max_at(norm3(a.g_star - off.t_star), interior)

    rows: list[ComparisonRow] = []

    def add(name, predicted, recomputed):
        # a guarded prediction is NaN outside its guard band
        mask = base_ok & np.isfinite(predicted)
        rows.append(ComparisonRow(
            name=name, deviation=_max_at(predicted - recomputed, mask),
            n_compared=int(np.sum(mask))))

    speed_ratio = off.sigma / a.sigma
    add("ds1/ds", pred.dsbar1_dsbar.real, speed_ratio)
    dsbar_rec_dual = speed_ratio * (off.Delta - a.Delta)
    add("dsbar1/dsbar (dual part)", pred.dsbar1_dsbar.dual, dsbar_rec_dual)
    add("gamma1", pred.gamma1, off.gamma)
    add("Delta1", pred.Delta1, off.Delta)
    add("delta1", pred.delta1, off.delta)

    inv = off.invariants()
    add("R1 (real)", pred.R1.real, inv.R.real)
    add("R1 (dual)", pred.R1.dual, inv.R.dual)
    add("rho1 (angle)", pred.rho1.real, inv.rho.real)
    add("rho1 (distance)", pred.rho1.dual, inv.rho.dual)

    # Darboux axis of the offset: cos(th)~e1 + sin(th)~g1 on the
    # recomputed offset frame.
    e1_t, _, g1_t = off.dual_frame()
    d0_pred = built.cos_bar * e1_t + built.sin_bar * g1_t
    d0_rec = inv.d0
    add("d0_1 (real)", norm3(d0_pred.real - d0_rec.real), np.zeros(a.n))
    add("d0_1 (dual)", norm3(d0_pred.dual - d0_rec.dual), np.zeros(a.n))

    return OffsetReport(
        constructed=built, offset_analysis=off, offset_invariants=inv,
        mannheim_residual_real=mann_real, mannheim_residual_dual=mann_dual,
        rows=rows,
        base_max_abs_Delta=float(np.max(np.abs(a.Delta))),
        offset_max_abs_Delta=float(np.max(np.abs(off.Delta))),
        n_valid=int(np.sum(base_ok)))


def flattening_profile(analysis: SurfaceAnalysis, theta) -> np.ndarray:
    """Offset distance theta* = -(delta/gamma) tan(theta) along which the
    offset at angle theta is developable; NaN inside the guard bands
    (|gamma| <= GAMMA_MIN or |cos(theta)| <= SIN_MIN)."""
    a = analysis
    ok = (np.abs(a.gamma) > GAMMA_MIN) & (np.abs(np.cos(theta)) > SIN_MIN)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, -(a.delta / a.gamma) * np.tan(theta), np.nan)
