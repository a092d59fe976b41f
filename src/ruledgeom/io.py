"""CSV tables, OBJ meshes, and report rendering.

All emission is locale-independent: '.' decimal point, 17 significant
digits, LF line endings, fixed column order.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .errors import ConfigError
from .offsets import OffsetReport, OffsetSpec
from .surface import SurfaceAnalysis

ANALYSIS_COLUMNS = [
    "u", "s", "s_star",
    "c_x", "c_y", "c_z", "e_x", "e_y", "e_z",
    "t_x", "t_y", "t_z", "g_x", "g_y", "g_z",
    "Delta", "delta", "gamma", "gamma_dual",
    "R_real", "R_dual", "rho_real", "rho_dual",
]

SAMPLED_COLUMNS = ["u", "ex", "ey", "ez", "px", "py", "pz"]


# Rows formatted per write: bounds the tuple and string built per write.
BLOCK_ROWS = 4096


def _write_rows(fh, row_template: str, n_rows: int, block) -> None:
    """Write n_rows rows, formatting block(start, stop) (rows start..stop-1
    as a 2-D array) with row_template; '%.17g' % x == format(x, ".17g")."""
    for start in range(0, n_rows, BLOCK_ROWS):
        rows = block(start, min(start + BLOCK_ROWS, n_rows))
        fh.write((row_template * len(rows)) % tuple(rows.ravel().tolist()))


def write_analysis_csv(path, analysis: SurfaceAnalysis) -> None:
    """One row per sample with the frame, scalar invariants and the dual
    curvature columns."""
    inv = analysis.invariants()
    cols = np.column_stack([
        analysis.u, analysis.s, analysis.s_star,
        analysis.c, analysis.e, analysis.t, analysis.g,
        analysis.Delta, analysis.delta, analysis.gamma, analysis.gamma_dual,
        inv.R.real, inv.R.dual, inv.rho.theta, inv.rho.theta_star,
    ])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(ANALYSIS_COLUMNS) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * cols.shape[1]) + "\n", len(cols),
                    lambda a, b: cols[a:b])


def read_sampled_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a sampled-curve surface: u, director xyz, base-point xyz."""
    with open(path, newline="") as fh:
        header = fh.readline()
        if not header:
            raise ConfigError(f"{path}: empty file")
        if [h.strip() for h in header.split(",")] != SAMPLED_COLUMNS:
            raise ConfigError(
                f"{path}: expected header {','.join(SAMPLED_COLUMNS)}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # header-only: no data rows
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: non-numeric cell ({exc})") from None
    if rows.shape[1] != 7 or len(rows) < 5:
        raise ConfigError(f"{path}: need at least 5 rows of 7 columns")
    return rows[:, 0], rows[:, 1:4], rows[:, 4:7]


def _quads(start: int, stop: int, n_v: int) -> np.ndarray:
    """1-based vertex indices of quads start..stop-1, counter-clockwise."""
    i, j = np.divmod(np.arange(start, stop), n_v - 1)
    a = i * n_v + j + 1
    return np.column_stack([a, a + n_v, a + n_v + 1, a + 1])


def write_obj(path, grid: np.ndarray) -> None:
    """Quad mesh of a (n_u, n_v, 3) vertex grid.

    Vertices are emitted u-major, faces are counter-clockwise quads with
    1-based indices."""
    n_u, n_v, _ = grid.shape
    verts = grid.reshape(n_u * n_v, 3)
    with open(path, "w", newline="\n") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", len(verts),
                    lambda a, b: verts[a:b])
        _write_rows(fh, "f %d %d %d %d\n", (n_u - 1) * (n_v - 1),
                    lambda a, b: _quads(a, b, n_v))


def surface_grid(analysis: SurfaceAnalysis, v_range, v_count: int,
                 e: Optional[np.ndarray] = None,
                 c: Optional[np.ndarray] = None) -> np.ndarray:
    """Vertex grid phi(u_i, v_j) = c(u_i) + v_j e(u_i) on the sample grid."""
    if e is None:
        e = analysis.e
    if c is None:
        c = analysis.c
    v = np.linspace(float(v_range[0]), float(v_range[1]), int(v_count))
    return c[:, None, :] + v[None, :, None] * e[:, None, :]


def _cell(x: Optional[float]) -> str:
    return "n/a(guard)" if x is None else f"{x:.3e}"


def describe_offset_spec(spec: OffsetSpec) -> str:
    if spec.mode == "theorem_consistent":
        return (f"mode=theorem_consistent c={spec.c:g} c_star={spec.c_star:g}")
    return f"mode=constant_angle theta={spec.theta:g} theta_star={spec.theta_star:g}"


def render_offset_report(index: int, spec: OffsetSpec, report: OffsetReport,
                         mannheim_real_tol: float, mannheim_dual_tol: float,
                         compare_tol: float) -> tuple[str, bool]:
    """Fixed-format report text; returns (text, all_assertions_passed).

    In theorem mode every deviation is asserted against its tolerance, and
    a row, or the whole report, that compares zero samples fails; in
    constant-angle mode the deviations are informational findings."""
    info = report.informational
    lines = [f"offset {index}: {describe_offset_spec(spec)}"]

    def verdict(value, tol) -> str:
        nonlocal ok
        if info:
            return "info"
        if value is None:
            if vacuous:   # already failed on the "samples compared" line
                return "n/a(guard)"
            ok = False
            return "FAIL: no sample compared"
        if value <= tol:
            return f"ok (tol {tol:.1e})"
        ok = False
        return f"FAIL (tol {tol:.1e})"

    vacuous = not info and report.n_valid == 0
    ok = not vacuous
    lines.append(f"  samples compared: {report.n_valid}/{report.offset_analysis.n}"
                 + ("  [informational: constant-angle offsets need not satisfy"
                    " the Mannheim condition]" if info else "")
                 + ("  [FAIL: no sample compared]" if vacuous else ""))
    mr, md = report.mannheim_residual_real, report.mannheim_residual_dual
    lines.append(f"  mannheim residual |g~ - t1~|: real={mr:.3e} "
                 f"[{verdict(mr, mannheim_real_tol)}] dual={md:.3e} "
                 f"[{verdict(md, mannheim_dual_tol)}]")
    bd, bmax = report.base_developable
    od, omax = report.offset_developable
    lines.append(f"  developable: base={'yes' if bd else 'no'} "
                 f"(max|Delta|={bmax:.3e})  offset={'yes' if od else 'no'} "
                 f"(max|Delta1|={omax:.3e})")
    lines.append("  predicted vs recomputed (max |deviation| over compared samples):")
    for row in report.rows:
        lines.append(f"    {row.name:28s} {_cell(row.deviation):>12s}  "
                     f"[{verdict(row.deviation, compare_tol)}]"
                     + (f"  {row.note}" if row.note else ""))
    lines.append(f"  striction transport residual: "
                 f"{report.constructed.transport_residual:.3e}")
    return "\n".join(lines) + "\n", ok
