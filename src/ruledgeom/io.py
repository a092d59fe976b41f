"""CSV tables, OBJ meshes, and report rendering.

All emission is locale-independent: '.' decimal point, LF line endings,
fixed column order.  Every float cell is '%.17g' % x byte for byte.  A
numpy kernel formats whole blocks of cells: it scales |x| by a power of
ten in exact double-double arithmetic, rounds to 17 digits and lays out
the fixed or exponent form of '%g'.  Only the cells it cannot certify
are formatted by '%.17g' itself, one by one: a 17th-digit fraction
within _TIE_MARGIN of 1/2 (exact ties included), non-finite values, and
magnitudes outside [1e-280, 1e280].  Face indices go through the same
digit code (_bcd8) as integers.
"""

from __future__ import annotations

import functools
import warnings
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError
from .offsets import OffsetReport, OffsetSpec
from .surface import DualCurvatureInvariants, SurfaceAnalysis

ANALYSIS_COLUMNS = [
    "u", "s", "s_star",
    "c_x", "c_y", "c_z", "e_x", "e_y", "e_z",
    "t_x", "t_y", "t_z", "g_x", "g_y", "g_z",
    "Delta", "delta", "gamma", "gamma_dual",
    "R_real", "R_dual", "rho_real", "rho_dual",
]

SAMPLED_COLUMNS = ["u", "ex", "ey", "ez", "px", "py", "pz"]


# Rows and cells formatted per write: bound the arrays built per write.
# Past ~16k cells the kernel's temporaries outgrow the allocator's reused
# memory, and faulting in fresh pages costs more than the arithmetic.
BLOCK_ROWS = 4096
BLOCK_CELLS = 8192

# --- '%.17g' kernel --------------------------------------------------------
#
# A cell's text is built in four little-endian uint64 words, 32 bytes:
#   word 0  byte 0 the sign, bytes 1-5 the "0." and zeros of 0.000ddd;
#   words 1-3  the 17 digits, with '.' inserted after the integer part
#     (fixed form) or the first digit (exponent form), in bytes 0-17;
#   word 3  bytes 2-6 "e+XX" or "e+XXX", byte 7 the separator.
# Zero bytes are padding, deleted from the whole block at once.

# The kernel formats 10^_K_MIN <= |x| <= 10^_K_MAX; beyond, Dekker's split
# could overflow, or the low parts of the power table lose bits to
# underflow.
_K_MIN, _K_MAX = -280, 280
# Tables indexed by the decimal exponent k (10^k <= |x| < 10^(k+1)) cover
# k in [_K_LO, _K_MAX + 3]: the estimate, one correction step and a carry
# can each leave [_K_MIN, _K_MAX] by one.
_K_LO = _K_MIN - 3
# The double-double product is good to ~1e-13 of the 17th digit, so a
# fraction this close to 1/2 (an exact tie included) goes to '%.17g'.
_TIE_MARGIN = 1e-6
_SPLITTER = 134217729.0   # 2**27 + 1: Dekker's split into 26-bit halves
_U64 = np.uint64


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _byte_words(table: np.ndarray) -> np.ndarray:
    """(rows, 8 * w) bytes -> w uint64 arrays of the rows' words."""
    return np.ascontiguousarray(table.view(_U64).T)


@functools.cache
def _tables() -> SimpleNamespace:
    """Power-of-ten and layout tables, built on first use: k-indexed
    arrays (index k - _K_LO), and digit-region masks indexed by a digit
    count or a dot position."""
    ks = range(_K_LO, _K_MAX + 4)
    # 10^(16 - k) = num/den as hi + lo, in exact integer arithmetic (an
    # int / int quotient is correctly rounded)
    hi, lo = [], []
    for k in ks:
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    hi_h, hi_l = _split(hi)
    # k-indexed layout: lead bytes, dot position, fewest digits shown
    # (the integer part of the fixed form), exponent bytes
    lead = np.zeros((len(ks), 8), np.uint8)
    expo = np.zeros((len(ks), 8), np.uint8)
    dot_at = np.empty(len(ks), np.int64)
    min_digits = np.zeros(len(ks), np.int64)
    for i, k in enumerate(ks):
        if 0 <= k < 17:
            dot_at[i], min_digits[i] = k + 1, k + 1
        elif -4 <= k < 0:
            dot_at[i] = 18                       # no dot among the digits
            lead[i, 1:2 - k] = list(b"0." + b"0" * (-k - 1))
        else:
            dot_at[i] = 1
            e = f"e{k:+03d}".encode()
            expo[i, 7 - len(e):7] = list(e)
    # 24-byte digit region masks: digits[m] has '0' in bytes < m; for a
    # dot at byte p (p = 18: none), below[p] sets bytes < p, above[p]
    # bytes > p and dot[p] has '.' in byte p
    region = np.arange(24)
    shown, at = np.arange(18)[:, None], np.arange(19)[:, None]
    digits = np.where(region < shown, 0x30, 0).astype(np.uint8)
    below = np.where(region < at, 0xFF, 0).astype(np.uint8)
    above = np.where(region > at, 0xFF, 0).astype(np.uint8)
    dot = np.where((region == at) & (at < 18), 0x2E, 0).astype(np.uint8)
    return SimpleNamespace(
        p_hi=hi, p_lo=np.array(lo), p_hi_h=hi_h, p_hi_l=hi_l,
        p10=10.0 ** (np.array(ks, dtype=float) + 1.0),
        lead=lead.view(_U64).ravel(), expo=expo.view(_U64).ravel(),
        dot_at=dot_at, min_digits=min_digits,
        digits=_byte_words(digits), below=_byte_words(below),
        above=_byte_words(above), dot=_byte_words(dot))


def _scaled(ax: np.ndarray, ki: np.ndarray, tab) -> tuple:
    """|x| * 10^(16 - k) as a + t: a = fl(|x| * hi) is an integer once the
    product is at least 2^53, and t carries the rest to ~2^-48."""
    a = ax * tab.p_hi[ki]
    xh, xl = _split(ax)
    ph, pl = tab.p_hi_h[ki], tab.p_hi_l[ki]
    b = ((xh * ph - a) + xh * pl + xl * ph) + xl * pl   # a + b = |x| * hi
    return a, b + ax * tab.p_lo[ki]


def _decade_step(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """+1 where a + t >= 1e17, -1 where a + t < 1e16, else 0.  The signs
    are exact: a - 10^j is exact for a near 10^j, and a rounded sum keeps
    the sign of the exact one."""
    return ((a - 1e17) + t >= 0).astype(np.int64) - ((a - 1e16) + t < 0)


def _bcd8(v: np.ndarray) -> np.ndarray:
    """v < 10^8 as 8 digit bytes (values 0-9), the leading digit in byte 0."""
    q = v // _U64(10000)
    x = q | ((v - q * _U64(10000)) << _U64(32))
    q = ((x * _U64(5243)) >> _U64(19)) & _U64(0x0000007F0000007F)   # / 100
    x = q | ((x - q * _U64(100)) << _U64(16))
    q = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)    # / 10
    return q | ((x - q * _U64(10)) << _U64(8))


def _uint_words(v: np.ndarray) -> list[np.ndarray]:
    """The decimal text of each uint64 v in w words (w = 1, 2 or 3, as few
    as the largest v needs), the leading digit first: ASCII digits from
    the leading one on, right-aligned, and zero bytes (padding) before."""
    parts = [v]
    for limit in (10 ** 8, 10 ** 16):
        if v.max() >= limit:
            q = parts[0] // _U64(10 ** 8)
            parts[0:1] = [q, parts[0] - q * _U64(10 ** 8)]
    # leading zero bytes: 8w minus the number of digits
    p10 = np.array([10 ** k for k in range(1, 20)], _U64)
    lead = 8 * len(parts) - 1 - np.searchsorted(p10, v, side="right")
    # zero_char[z]: '0' in the bytes from z on, OR-ed onto digit values
    zero_char = np.array([0x3030303030303030 << 8 * z & (1 << 64) - 1
                          for z in range(9)], _U64)
    return [_bcd8(p) | zero_char[np.clip(lead - 8 * j, 0, 8)]
            for j, p in enumerate(parts)]


def _byte_len(w: np.ndarray) -> np.ndarray:
    """Bytes up to the highest nonzero one of each w (exact: a digit byte
    is at most 9, so the float conversion never rounds up a power of 2)."""
    return (np.frexp(w.astype(float))[1] + 7) >> 3


def _g17_words(x: np.ndarray) -> list[np.ndarray]:
    """The cell text of '%.17g' % v for each v of the 1-D float64 array x,
    as its four words (see the layout above)."""
    tab = _tables()
    ax = np.abs(x)
    nonzero = ax != 0.0
    # clipped into range (NaN too), so that every cell below is finite;
    # the clipped ones and non-finite ones are left to '%.17g'.  A zero
    # is scaled as 1 (at k = 0), then its digits are zeroed.
    axc = np.fmax(np.fmin(ax, 10.0 ** _K_MAX), 10.0 ** _K_MIN)
    fallback = (axc != ax) & nonzero
    axc += ~nonzero
    # k from the binary exponent, then at most one step from a table
    ki = ((np.frexp(axc)[1].astype(np.int64) - 1) * 78913 >> 18) - _K_LO
    ki += axc >= tab.p10[ki]
    # judge k on the unrounded product |x| 10^(16 - k) in [1e16, 1e17)
    a, t = _scaled(axc, ki, tab)
    step = _decade_step(a, t)
    off = np.flatnonzero(step)
    if len(off):
        ki[off] += step[off]
        a[off], t[off] = _scaled(axc[off], ki[off], tab)
        fallback[off] |= _decade_step(a[off], t[off]) != 0
    whole = np.floor(t)
    frac = t - whole
    fallback |= np.abs(frac - 0.5) < _TIE_MARGIN
    n = (a.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)).view(_U64)
    carry = n == _U64(10 ** 17)          # rounded up to 10^17: next k
    n -= carry * _U64(9 * 10 ** 16)
    ki += carry
    n *= nonzero                         # 0 -> the digit 0
    # digits: d0 (digits 1-8), d1 (9-16), d2 (17)
    q = n // _U64(10 ** 9)
    d0 = _bcd8(q)
    n -= q * _U64(10 ** 9)
    q = n // _U64(10)
    d1, d2 = _bcd8(q), n - q * _U64(10)
    # digits shown: trailing zeros dropped, the fixed form's integer kept
    shown = np.maximum(_byte_len(d0), 8 * (d1 != 0) + _byte_len(d1))
    shown = np.maximum(np.maximum(shown, 17 * (d2 != 0)), tab.min_digits[ki])
    dot = tab.dot_at[ki]
    dot += (shown <= dot) * (18 - dot)   # no fraction: no dot
    r = [d | tab.digits[j][shown] for j, d in enumerate((d0, d1, d2))]
    s = [r[0] << _U64(8), (r[1] << _U64(8)) | (r[0] >> _U64(56)),
         (r[2] << _U64(8)) | (r[1] >> _U64(56))]    # shifted past the dot
    words = [tab.lead[ki] | np.signbit(x) * _U64(ord("-"))]
    for j in range(3):
        words.append((r[j] & tab.below[j][dot]) | (s[j] & tab.above[j][dot])
                     | tab.dot[j][dot])
    words[3] |= tab.expo[ki]
    for i in np.flatnonzero(fallback):
        for j, w in enumerate(_fallback(x[i])):
            words[j][i] = w
    return words


def _fallback(v: float) -> np.ndarray:
    """The four words of '%.17g' % v, for a cell the kernel leaves alone."""
    return np.frombuffer(("%.17g" % v).encode().ljust(32, b"\0"), _U64)


def _format_rows(cells: np.ndarray, head: bytes, sep: bytes) -> bytes:
    """Rows of `cells` (rows, cols) as text: `head`, the cells as '%.17g'
    joined by `sep`, LF."""
    rows, cols = cells.shape
    lead = 1 if head else 0
    out = np.empty((rows, lead + 4 * cols), _U64)
    if head:
        out[:, 0] = int.from_bytes(head, "little")
    slots = out[:, lead:].reshape(rows, cols, 4)
    for j, w in enumerate(_g17_words(np.ravel(cells))):
        slots[:, :, j] = w.reshape(rows, cols)
    slots[:, :-1, 3] |= _U64(ord(sep) << 56)
    slots[:, -1, 3] |= _U64(ord("\n") << 56)
    return out.tobytes().translate(None, b"\0")


def _rows_per_write(width: int) -> int:
    """Rows formatted per write of a table `width` cells wide."""
    return min(BLOCK_ROWS, max(1, BLOCK_CELLS // width))


def _write_table(fh, table: np.ndarray, head: bytes, sep: bytes) -> None:
    """Write the rows of a 2-D float array, a few thousand cells at a time
    (see _format_rows)."""
    step = _rows_per_write(table.shape[1])
    for start in range(0, len(table), step):
        fh.write(_format_rows(table[start:start + step], head, sep))


def write_analysis_csv(path, analysis: SurfaceAnalysis,
                       inv: DualCurvatureInvariants) -> None:
    """One row per sample with the frame, scalar invariants and the dual
    curvature columns, taken from `inv`, the analysis's invariants().  The
    cells of each write are gathered from the column arrays (no whole
    table is built)."""
    a, n = analysis, len(analysis.u)
    columns = [np.reshape(x, (-1, n)) for x in (   # (1, n) and (3, n)
        a.u, a.s, a.s_star, a.c, a.e, a.t, a.g,
        a.Delta, a.delta, a.gamma, a.gamma_dual,
        inv.R.real, inv.R.dual, inv.rho.real, inv.rho.dual)]
    step = _rows_per_write(len(ANALYSIS_COLUMNS))
    with open(path, "wb") as fh:
        fh.write((",".join(ANALYSIS_COLUMNS) + "\n").encode())
        for start in range(0, n, step):
            cells = np.vstack([x[:, start:start + step] for x in columns])
            fh.write(_format_rows(cells.T, b"", b","))


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


def obj_faces(n_u: int, n_v: int) -> bytes:
    """The face lines of an n_u x n_v vertex grid's quad mesh:
    counter-clockwise quads with 1-based vertex indices, u-major."""
    n = (n_u - 1) * (n_v - 1)
    blocks = []
    for start in range(0, n, BLOCK_ROWS):
        i, j = np.divmod(np.arange(start, min(start + BLOCK_ROWS, n),
                                   dtype=_U64), n_v - 1)
        a = i * n_v + j + 1
        digits = _uint_words(np.stack([a, a + n_v, a + n_v + 1, a + 1], 1))
        # "f ", then per corner its digit words and " " (the last "\n")
        w = len(digits)
        out = np.empty((len(a), 1 + 4 * (w + 1)), _U64)
        out[:, 0] = int.from_bytes(b"f ", "little")
        corners = out[:, 1:].reshape(len(a), 4, w + 1)
        for k, d in enumerate(digits):
            corners[:, :, k] = d
        corners[:, :, w] = ord(" ")
        corners[:, -1, w] = ord("\n")
        blocks.append(out.tobytes().translate(None, b"\0"))
    return b"".join(blocks)


def write_obj(path, grid: np.ndarray, faces: bytes) -> None:
    """Quad mesh of a (n_u, n_v, 3) vertex grid.

    Vertices are emitted u-major; `faces` is obj_faces(n_u, n_v), which
    callers writing several meshes of one shape format once."""
    n_u, n_v, _ = grid.shape
    with open(path, "wb") as fh:
        _write_table(fh, grid.reshape(n_u * n_v, 3), b"v ", b" ")
        fh.write(faces)


def surface_grid(c: np.ndarray, e: np.ndarray, v_range,
                 v_count: int) -> np.ndarray:
    """Vertex grid phi(u_i, v_j) = c(u_i) + v_j e(u_i) on the sample grid,
    from (3, n) fields c and e, as an (n, n_v, 3) array."""
    c, e = c.T, e.T
    v = np.linspace(float(v_range[0]), float(v_range[1]), int(v_count))
    return c[:, None, :] + v[None, :, None] * e[:, None, :]


def render_offset_report(index: int, spec: OffsetSpec, report: OffsetReport,
                         tol) -> tuple[str, bool]:
    """Fixed-format report text judged against `tol`, a config.Tolerances;
    returns (text, all_assertions_passed).

    In theorem mode every deviation is asserted against its tolerance, and
    a row, or the whole report, that compares zero samples fails; in
    constant-angle mode the deviations are informational findings.  A
    surface reads as developable when max|Delta| < tol.developable_class."""
    info = spec.mode == "constant_angle"
    params = " ".join(f"{k}={getattr(spec, k):g}"
                      for k in spec.PARAMS[spec.mode])
    lines = [f"offset {index}: mode={spec.mode} {params}"]

    def verdict(value, tol) -> str:
        nonlocal ok
        if info:
            return "info"
        if value is None:
            if vacuous:   # already failed on the "samples compared" line
                return na
            ok = False
            return "FAIL: no sample compared"
        if value <= tol:
            return f"ok (tol {tol:.1e})"
        ok = False
        return f"FAIL (tol {tol:.1e})"

    vacuous = not info and report.n_valid == 0
    ok = not vacuous
    # the interior is never empty, so only the theta band empties them all
    na, empty = (("n/a(band)", "  no sample inside the theta band (0, pi)")
                 if vacuous else
                 ("n/a(guard)", "  no samples outside guard bands"))
    lines.append(f"  samples compared: {report.n_valid}/{report.offset_analysis.n}"
                 + ("  [informational: constant-angle offsets need not satisfy"
                    " the Mannheim condition]" if info else "")
                 + ("  [FAIL: no sample compared]" if vacuous else ""))
    mr, md = report.mannheim_residual_real, report.mannheim_residual_dual
    lines.append(f"  mannheim residual |g~ - t1~|: real={mr:.3e} "
                 f"[{verdict(mr, tol.mannheim_real)}] dual={md:.3e} "
                 f"[{verdict(md, tol.mannheim_dual)}]")
    bmax, omax = report.base_max_abs_Delta, report.offset_max_abs_Delta
    dev_tol = tol.developable_class
    lines.append(f"  developable: base={'yes' if bmax < dev_tol else 'no'}"
                 f" (max|Delta|={bmax:.3e})  offset="
                 f"{'yes' if omax < dev_tol else 'no'}"
                 f" (max|Delta1|={omax:.3e})")
    lines.append("  predicted vs recomputed (max |deviation| over compared samples):")
    for row in report.rows:
        cell = na if row.deviation is None else f"{row.deviation:.3e}"
        lines.append(f"    {row.name:28s} {cell:>12s}  "
                     f"[{verdict(row.deviation, tol.theorem_compare)}]"
                     + (empty if row.deviation is None else ""))
    lines.append(f"  striction transport residual: "
                 f"{report.constructed.transport_residual:.3e}")
    return "\n".join(lines) + "\n", ok
