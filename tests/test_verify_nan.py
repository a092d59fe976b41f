"""A verify check whose measured value is the maximum over several parts
FAILs when any one part holds a NaN, the first or not: Python's max()
would keep its first argument against a later NaN, and the check would
PASS.  Each case puts one NaN into a part that is not the first, through
a patched helper of the verify module, and runs the suite that reads it."""

import math

import numpy as np
import pytest

from ruledgeom import verify
from ruledgeom.config import Tolerances
from ruledgeom.dual import DualScalar
from ruledgeom.surface import SurfaceAnalysis


def with_nan(x: np.ndarray) -> np.ndarray:
    """A copy of x with a NaN in its last element, the middle column of
    the last row for a (3, n) array."""
    x = np.array(x, dtype=float)
    x[(-1, x.shape[-1] // 2) if x.ndim == 2 else -1] = np.nan
    return x


def nan_dual(d: DualScalar) -> DualScalar:
    return DualScalar(d.real, with_nan(d.dual))


def patch_lift(monkeypatch):
    """NaN in the cos part, the second of the four lifted functions."""
    lift = verify.lift
    monkeypatch.setattr(verify, "lift", lambda f, fp, x: (
        nan_dual(lift(f, fp, x)) if f is np.cos else lift(f, fp, x)))


def patch_dual_norm(monkeypatch):
    dual_norm = verify.dual_norm
    monkeypatch.setattr(verify, "dual_norm",
                        lambda a: nan_dual(dual_norm(a)))


def patch_row_dot(monkeypatch):
    """NaN in <a, a*>, not in <a, a> - 1."""
    row_dot = verify.row_dot
    monkeypatch.setattr(verify, "row_dot", lambda a, b: (
        row_dot(a, b) if a is b else with_nan(row_dot(a, b))))


def patch_dual_frame(monkeypatch):
    """NaN in the z moment of the dual ruling at the middle sample."""
    dual_frame = SurfaceAnalysis.dual_frame

    def patched(self, *sl):
        e, t, g = dual_frame(self, *sl)
        return nan_dual(e), t, g

    monkeypatch.setattr(SurfaceAnalysis, "dual_frame", patched)


def patch_shifted_analysis(monkeypatch):
    """NaN in gamma, the last of the four compared invariants, of the
    saddle whose base slides along the rulings."""
    analyze = verify.analyze

    def patched(spec):
        a = analyze(spec)
        if spec.name != "saddle-shifted-base":
            return a
        return SurfaceAnalysis(**{**vars(a), "gamma": with_nan(a.gamma)})

    monkeypatch.setattr(verify, "analyze", patched)


def pipeline_cone(tol, seed, analyses):
    label, key = verify.PIPELINE_CASES[1]
    return verify._pipeline_checks(label, analyses[key], tol,
                                   tol.frame_ode_analytic)


@pytest.mark.parametrize("patch, suite, check", [
    (patch_lift, verify.suite_dual_algebra, "lifted derivative"),
    (patch_dual_norm, verify.suite_dual_algebra, "dual_normalize"),
    (patch_row_dot, verify.suite_line_correspondence, "|<a,a*>|"),
    (patch_dual_frame, verify.suite_saddle_reproduction, "dual ruling at"),
    (patch_dual_frame, pipeline_cone, "dual unit sphere"),
    (patch_shifted_analysis, verify.suite_pipeline, "base curve slides"),
], ids=["lift", "dual_normalize", "constraint", "ruling_dev", "unit_dev",
        "inv_dev"])
def test_a_nan_in_a_later_part_fails_the_check(monkeypatch, patch, suite,
                                               check):
    tol = Tolerances()
    before = [c for c in suite(tol, 42, verify.Analyses())
              if check in c.name]
    assert len(before) == 1 and before[0].passed
    patch(monkeypatch)
    (after,) = [c for c in suite(tol, 42, verify.Analyses())
                if check in c.name]
    assert math.isnan(after.measured) and not after.passed
