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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .dual import DualAngle, DualScalar, dual_cos, dual_sin
from .errors import (ConfigError, DegenerateIndicatrix, DegenerateOffset,
                     SingularFormula)
from .surface import DEGENERATE_SIGMA, SurfaceAnalysis, SurfaceSpec, analyze

# Guard bands for the closed-form offset invariants (they divide by gamma
# and by tan/cot of theta, which the formulas leave undefined at zero).
GAMMA_MIN = 1e-6
SIN_MIN = 1e-6
# theta must stay this far inside (0, pi) for cot-based checks.
THETA_BAND = 1e-3


@dataclass(frozen=True)
class OffsetSpec:
    """How to build an offset: theorem-consistent profiles from integration
    constants (c, c_star), or a fixed dual offset angle."""

    mode: str
    c: float = 0.0
    c_star: float = 0.0
    theta: float = 0.0
    theta_star: float = 0.0

    def __post_init__(self):
        if self.mode not in ("theorem_consistent", "constant_angle"):
            raise ConfigError(f"unknown offset mode {self.mode!r}")

    @classmethod
    def theorem(cls, c: float, c_star: float) -> "OffsetSpec":
        return cls(mode="theorem_consistent", c=float(c), c_star=float(c_star))

    @classmethod
    def constant(cls, theta: float, theta_star: float) -> "OffsetSpec":
        return cls(mode="constant_angle", theta=float(theta),
                   theta_star=float(theta_star))


def offset_angle(analysis: SurfaceAnalysis, c: float,
                 c_star: float) -> tuple[np.ndarray, np.ndarray]:
    """Offset angle/distance profiles of a Mannheim pair:
    theta(s) = -s + c and theta_star(s) = -integral(Delta ds) + c_star."""
    return -analysis.s + c, -analysis.s_star + c_star


def offset_profiles(analysis: SurfaceAnalysis,
                    spec: OffsetSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.mode == "theorem_consistent":
        return offset_angle(analysis, spec.c, spec.c_star)
    n = analysis.n
    return np.full(n, spec.theta), np.full(n, spec.theta_star)


@dataclass
class ConstructedOffset:
    """Sampled offset geometry plus the spec that re-runs the pipeline."""

    surface: SurfaceSpec
    theta: np.ndarray
    theta_star: np.ndarray
    e1: np.ndarray
    c1: np.ndarray
    transport_residual: float
    is_identity: bool


def construct_offset(analysis: SurfaceAnalysis,
                     spec: OffsetSpec) -> ConstructedOffset:
    """Build the offset surface on the analysis grid.

    The director rotates in the (e, t) plane by theta; the striction line
    moves by theta_star along g.  The moment of the constructed ruling is
    checked against the dual part of cos(th)~e + sin(th)~t, which validates
    the striction transport; the defect is reported as transport_residual.

    Raises DegenerateOffset when the constructed indicatrix is singular
    everywhere (the offset is not a surface of the analyzable class, e.g.
    a theorem-consistent offset of a surface with vanishing conical
    curvature)."""
    a = analysis
    theta, theta_star = offset_profiles(a, spec)
    ct, st = np.cos(theta)[:, None], np.sin(theta)[:, None]
    e1 = ct * a.e + st * a.t
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    c1 = a.c + theta_star[:, None] * a.g

    # dual part of the rotated dual ruling must equal c1 x e1
    e_t, t_t, _ = a.dual_frame()
    th = DualScalar(theta, theta_star)
    e1_tilde = e_t.scale(dual_cos(th)) + t_t.scale(dual_sin(th))
    transport = float(np.max(np.linalg.norm(
        e1_tilde.dual - np.cross(c1, e1), axis=1)))

    h = float(a.u[1] - a.u[0])
    sigma1 = np.linalg.norm(
        np.gradient(e1, h, axis=0, edge_order=2), axis=1)
    if np.max(sigma1) < DEGENERATE_SIGMA:
        raise DegenerateOffset(
            "offset indicatrix is singular everywhere: the rotated director "
            "does not move (|e1'| = 0, e.g. gamma*sin(theta) = 0 identically)")

    e_spline = CubicSpline(a.u, e1, axis=0)
    c_spline = CubicSpline(a.u, c1, axis=0)
    surface = SurfaceSpec(
        director=lambda x: e_spline(x), base=lambda x: c_spline(x),
        param_range=(float(a.u[0]), float(a.u[-1])), sample_count=a.n,
        grid=a.u, name=f"{a.spec.name or 'surface'}+offset[{spec.mode}]")
    identity = bool(np.max(np.abs(theta)) < 1e-12
                    and np.max(np.abs(theta_star)) < 1e-12)
    return ConstructedOffset(
        surface=surface, theta=theta, theta_star=theta_star, e1=e1, c1=c1,
        transport_residual=transport, is_identity=identity)


@dataclass
class PredictedInvariants:
    """Closed-form offset invariants implied by the Mannheim relations.

    Entries whose formula divides by a guarded quantity are NaN outside
    the guard band; `require` hands back an array only when every sample
    is defined and otherwise raises SingularFormula naming the guard.
    """

    theta: np.ndarray
    theta_star: np.ndarray
    ds1_ds: np.ndarray
    dsbar1_dsbar: DualScalar
    gamma1: np.ndarray
    Delta1: np.ndarray
    delta1: np.ndarray
    R1: DualScalar
    rho1: DualAngle
    valid: dict = field(default_factory=dict)
    guard_notes: dict = field(default_factory=dict)

    def require(self, name: str) -> np.ndarray:
        mask = self.valid.get(name)
        if mask is not None and not bool(np.all(mask)):
            raise SingularFormula(
                f"{name} undefined at {int(np.sum(~mask))} samples: "
                f"{self.guard_notes.get(name, 'guard band')}")
        return getattr(self, name)


def predicted_invariants(analysis: SurfaceAnalysis, theta: np.ndarray,
                         theta_star: np.ndarray,
                         gamma_min: float = GAMMA_MIN,
                         sin_min: float = SIN_MIN) -> PredictedInvariants:
    """Evaluate the Mannheim-offset invariant formulas on the base
    analysis: arc-speed ratio gamma*sin(theta) (real and dual), conical
    curvature cot(theta), distribution parameter and striction drift of
    the offset, dual curvature sin(theta_bar) and spherical radius
    theta_bar itself."""
    a = analysis
    th = DualScalar(np.asarray(theta, float), np.asarray(theta_star, float))
    gamma_ok = np.abs(a.gamma) > gamma_min
    sin_ok = np.abs(np.sin(th.real)) > sin_min

    sin_bar = dual_sin(th)
    dsbar = a.gamma_bar() * sin_bar

    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.cos(th.real) / np.sin(th.real)
        d_over_g = a.delta / a.gamma
        gamma1 = np.where(sin_ok, cot, np.nan)
        Delta1 = np.where(sin_ok & gamma_ok, th.dual * cot + d_over_g, np.nan)
        delta1 = np.where(sin_ok & gamma_ok, d_over_g * cot - th.dual, np.nan)

    return PredictedInvariants(
        theta=th.real, theta_star=th.dual,
        ds1_ds=dsbar.real, dsbar1_dsbar=dsbar,
        gamma1=gamma1, Delta1=Delta1, delta1=delta1,
        R1=sin_bar, rho1=DualAngle(th.real, th.dual),
        valid={"gamma1": sin_ok, "Delta1": sin_ok & gamma_ok,
               "delta1": sin_ok & gamma_ok},
        guard_notes={"gamma1": f"|sin(theta)| <= {sin_min:g}",
                     "Delta1": f"|sin(theta)| <= {sin_min:g} or "
                               f"|gamma| <= {gamma_min:g}",
                     "delta1": f"|sin(theta)| <= {sin_min:g} or "
                               f"|gamma| <= {gamma_min:g}"})


@dataclass
class ComparisonRow:
    """One predicted-vs-recomputed quantity, maxed over valid samples."""

    name: str
    deviation: Optional[float]   # max |predicted - recomputed|
    n_compared: int
    note: str = ""


@dataclass
class OffsetReport:
    """Outcome of re-analyzing a constructed offset from scratch."""

    mode: str
    informational: bool
    constructed: ConstructedOffset
    offset_analysis: SurfaceAnalysis
    mannheim_residual_real: float
    mannheim_residual_dual: float
    rows: list
    base_developable: tuple[bool, float]
    offset_developable: tuple[bool, float]
    n_valid: int


def _max_at(arr, mask) -> Optional[float]:
    if not np.any(mask):
        return None
    return float(np.max(np.abs(np.asarray(arr)[mask])))


def verify_offset(analysis: SurfaceAnalysis, spec: OffsetSpec,
                  trim: int = 2, developable_tol: float = 1e-7,
                  gamma_min: float = GAMMA_MIN,
                  sin_min: float = SIN_MIN) -> OffsetReport:
    """Construct the offset, rerun the full analysis pipeline on it, and
    tabulate |predicted - recomputed| for every offset invariant.

    Samples are paired by the shared parameter u.  Comparisons skip `trim`
    samples at each end (one-sided difference stencils), samples inside
    the singularity guards, and samples where theta leaves (0, pi).
    Raises DegenerateOffset for the identity offset and for offsets whose
    indicatrix the pipeline cannot process."""
    a = analysis
    built = construct_offset(a, spec)
    if built.is_identity:
        raise DegenerateOffset(
            "identity offset: predicted arc-speed gamma*sin(theta) "
            "vanishes, there is no separate surface to verify")
    try:
        off = analyze(built.surface)
    except DegenerateIndicatrix as exc:
        raise DegenerateOffset(
            f"constructed offset has a singular indicatrix: {exc}") from exc

    pred = predicted_invariants(a, built.theta, built.theta_star,
                                gamma_min=gamma_min, sin_min=sin_min)

    interior = np.zeros(a.n, dtype=bool)
    interior[trim:a.n - trim] = True
    in_band = (built.theta > THETA_BAND) & (built.theta < np.pi - THETA_BAND)
    base_ok = interior & in_band

    # Mannheim condition: asymptotic normal of the base = central normal
    # of the recomputed offset.
    _, _, g_t = a.dual_frame()
    e1_t, t1_t, g1_t = off.dual_frame()
    mann_real = _max_at(np.linalg.norm(g_t.real - t1_t.real, axis=1), interior)
    mann_dual = _max_at(np.linalg.norm(g_t.dual - t1_t.dual, axis=1), interior)

    rows: list[ComparisonRow] = []

    def add(name, predicted, recomputed, extra_mask=None, note=""):
        mask = base_ok.copy()
        if extra_mask is not None:
            mask &= extra_mask
        finite = np.isfinite(np.asarray(predicted))
        mask &= finite
        dev = _max_at(np.asarray(predicted) - np.asarray(recomputed), mask)
        if dev is None:
            note = note or "no samples outside guard bands"
        rows.append(ComparisonRow(name=name, deviation=dev,
                                  n_compared=int(np.sum(mask)), note=note))

    speed_ratio = off.sigma / a.sigma
    add("ds1/ds", pred.ds1_ds, speed_ratio)
    dsbar_rec_dual = speed_ratio * (off.Delta - a.Delta)
    add("dsbar1/dsbar (dual part)", pred.dsbar1_dsbar.dual, dsbar_rec_dual)
    add("gamma1", pred.gamma1, off.gamma, extra_mask=pred.valid["gamma1"])
    add("Delta1", pred.Delta1, off.Delta, extra_mask=pred.valid["Delta1"])
    add("delta1", pred.delta1, off.delta, extra_mask=pred.valid["delta1"])

    inv = off.invariants()
    add("R1 (real)", pred.R1.real, inv.R.real)
    add("R1 (dual)", pred.R1.dual, inv.R.dual)
    add("rho1 (angle)", pred.rho1.theta, inv.rho.theta)
    add("rho1 (distance)", pred.rho1.theta_star, inv.rho.theta_star)

    # Darboux axis of the offset: cos(th)~e1 + sin(th)~g1 on the
    # recomputed offset frame.
    th = DualScalar(built.theta, built.theta_star)
    d0_pred = e1_t.scale(dual_cos(th)) + g1_t.scale(dual_sin(th))
    d0_rec = inv.d0
    add("d0_1 (real)",
        np.linalg.norm(d0_pred.real - d0_rec.real, axis=1),
        np.zeros(a.n))
    add("d0_1 (dual)",
        np.linalg.norm(d0_pred.dual - d0_rec.dual, axis=1),
        np.zeros(a.n))

    return OffsetReport(
        mode=spec.mode,
        informational=(spec.mode == "constant_angle"),
        constructed=built,
        offset_analysis=off,
        mannheim_residual_real=mann_real if mann_real is not None else np.nan,
        mannheim_residual_dual=mann_dual if mann_dual is not None else np.nan,
        rows=rows,
        base_developable=(bool(np.max(np.abs(a.Delta)) < developable_tol),
                          float(np.max(np.abs(a.Delta)))),
        offset_developable=(bool(np.max(np.abs(off.Delta)) < developable_tol),
                            float(np.max(np.abs(off.Delta)))),
        n_valid=int(np.sum(base_ok)))


@dataclass
class DevelopabilityEvidence:
    """Both developability criteria in one place: the base surface is
    developable iff theta_star is constant along a Mannheim pair, and the
    offset is developable iff theta_star follows -(delta/gamma)tan(theta)."""

    base_max_abs_Delta: float
    theta_star_variation: float
    offset_theta_star: np.ndarray    # NaN inside guard bands
    offset_theta_star_valid: np.ndarray


def developability_conditions(analysis: SurfaceAnalysis, theta: np.ndarray,
                              theta_star: np.ndarray,
                              gamma_min: float = GAMMA_MIN,
                              sin_min: float = SIN_MIN) -> DevelopabilityEvidence:
    a = analysis
    gamma_ok = np.abs(a.gamma) > gamma_min
    cos_ok = np.abs(np.cos(theta)) > sin_min
    ok = gamma_ok & cos_ok
    with np.errstate(divide="ignore", invalid="ignore"):
        profile = np.where(ok, -(a.delta / a.gamma) * np.tan(theta), np.nan)
    return DevelopabilityEvidence(
        base_max_abs_Delta=float(np.max(np.abs(a.Delta))),
        theta_star_variation=float(np.max(theta_star) - np.min(theta_star)),
        offset_theta_star=profile,
        offset_theta_star_valid=ok)
