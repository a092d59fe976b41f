"""CSV tables, OBJ meshes, and report rendering.

All emission is locale-independent: '.' decimal point, LF line endings,
fixed column order.  Every float cell is '%.17g' % x byte for byte.  A
numpy kernel formats whole blocks of cells: it scales |x| by a power of
ten in exact double-double arithmetic and rounds to 17 digits, in place
and in a fixed operation order.  It splits the digits into a leading one
and four 4-digit groups, whose digit bytes it reads from one table of
10^4 entries, and lays out the fixed or exponent form of '%g' with masks
read by the decimal exponent and the count of digits shown.  The last
operation of each of a cell's four text words writes it straight into
the block's text buffer.  Only the cells it cannot certify are formatted
by '%.17g' itself, one by one: a 17th-digit fraction within _TIE_MARGIN
of 1/2 (exact ties included), non-finite values, and magnitudes outside
[1e-280, 1e280].  Face indices are read from the same group table.
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
# On the commands (analyze, offset, mesh at n = 2001; 2-core x86-64 VM),
# 4096 cells read about 10% slower than 8192, and 6144-16384 the same
# within 2%.
BLOCK_ROWS = 4096
BLOCK_CELLS = 8192

# --- '%.17g' kernel --------------------------------------------------------
#
# A cell's text is built in four little-endian uint64 words, 32 bytes:
#   word 0  byte 0 the sign, bytes 1-5 the "0." and zeros of 0.000ddd,
#     byte 6 the leading digit, byte 7 the '.' after it (exponent form,
#     and the fixed form of 1 <= |x| < 10);
#   words 1-2  digits 2-17, four 4-digit groups; where the dot falls
#     among them (fixed form, 10 <= |x| < 1e16) the digits after it move
#     up one byte, the last into byte 0 of word 3, and '.' takes the
#     freed byte;
#   word 3  bytes 0-4 "e+XX" or "e+XXX" (exponent form), bytes 5-7 what
#     follows the cell: the separator, or LF and the next row's head.
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
    """Dekker's split a = hi + lo into 26-bit halves, in two arrays."""
    hi = _SPLITTER * a
    lo = hi - a
    hi -= lo                  # c - (c - a)
    np.subtract(a, hi, out=lo)
    return hi, lo


def _cell_masks(dot: int, lead: bytes, shown: int) -> bytes:
    """The 32 layout bytes a cell's digit values are OR-ed with: `lead`
    in bytes 1-5, '0' on each of the `shown` digit bytes, and '.' after
    digit `dot` when a digit follows it (dot 0: none)."""
    text = bytearray(32)
    text[1:1 + len(lead)] = lead
    text[6] = 0x30
    for d in range(2, shown + 1):      # digit d in byte d + 6, or moved
        text[d + 6 + (d > dot > 1)] = 0x30
    if 0 < dot < shown:
        text[7 if dot == 1 else dot + 7] = ord(".")
    return bytes(text)


@functools.cache
def _tables() -> SimpleNamespace:
    """Power-of-ten, digit and layout tables, built on first use: arrays
    indexed by k (index k - _K_LO), by the biased binary exponent, by a
    4-digit group, and by k and the count of digit bytes shown."""
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
    # k's estimate floor((e - 1) log10 2) from frexp's exponent e, which
    # is the biased exponent - 1022
    k_est = ((np.arange(2048) - 1023) * 78913 >> 18) - _K_LO
    # per k: the digits before the dot (0: no dot), the lead bytes, the
    # fewest digits shown (the integer part of the fixed form) and the
    # exponent bytes
    forms, expo = [], []
    for k in ks:
        fixed, small = 0 <= k < 17, -4 <= k < 0
        forms.append((k + 1, b"", k + 1) if fixed else
                     (0, b"0." + b"0" * (-k - 1), 1) if small else (1, b"", 1))
        expo.append(b"" if fixed or small else f"e{k:+03d}".encode())
    # masks[j][k, m]: word j of the layout bytes when digits 2-17 end in m
    # digit bytes up to the last nonzero one; built per form, then read
    # by k, with the exponent bytes in word 3
    cls = {f: i for i, f in enumerate(dict.fromkeys(forms))}
    text = np.frombuffer(b"".join(_cell_masks(f[0], f[1], max(m + 1, f[2]))
                                  for f in cls for m in range(17)), _U64)
    at = [cls[f] for f in forms]
    masks = [text.reshape(len(cls), 17, 4)[at, :, j] for j in range(4)]
    masks[3] |= np.frombuffer(b"".join(e.ljust(8, b"\0") for e in expo),
                              _U64)[:, None]
    # words 1-2 keep the bytes before the dot's and move the rest up one
    dot = np.array([f[0] for f in forms])[:, None]
    keep = np.where((dot < 2) | (np.arange(16) < dot - 1), 0xFF, 0)
    keep = keep.astype(np.uint8).view(_U64)
    # the digit bytes of each 4-digit group 0000-9999
    g = np.arange(10 ** 4)
    group = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    return SimpleNamespace(
        p_hi=hi, p_lo=np.array(lo), p_hi_h=hi_h, p_hi_l=hi_l,
        p10=10.0 ** (np.array(ks, dtype=float) + 1.0), k_est=k_est,
        group=group.astype(np.uint8).view("<u4").ravel().astype(_U64),
        masks=[m.ravel() for m in masks],
        keep=[np.ascontiguousarray(keep[:, j]) for j in range(2)])


def _scaled(ax: np.ndarray, ki: np.ndarray, tab) -> tuple:
    """|x| * 10^(16 - k) as a + t: a = fl(|x| * hi) is an integer once the
    product is at least 2^53, and t carries the rest to ~2^-48."""
    a = tab.p_hi.take(ki)
    a *= ax
    xh, xl = _split(ax)
    ph, pl = tab.p_hi_h.take(ki), tab.p_hi_l.take(ki)
    t = xh * ph                       # ((xh ph - a) + xh pl + xl ph) + xl pl
    t -= a
    xh *= pl
    t += xh
    ph *= xl
    t += ph
    pl *= xl
    t += pl                           # a + t = |x| * hi
    tab.p_lo.take(ki, out=xh)
    xh *= ax
    t += xh
    return a, t


def _decade_step(a: np.ndarray, t: np.ndarray) -> tuple:
    """(up, down): a + t >= 1e17, a + t < 1e16.  The signs are exact:
    a - 10^j is exact for a near 10^j, and a rounded sum keeps the sign of
    the exact one."""
    d = a - 1e17
    d += t
    up = d >= 0
    np.subtract(a, 1e16, out=d)
    d += t
    return up, d < 0


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """v < 10^8 (int64) as 8 digit bytes (values 0-9), the leading digit
    in byte 0, read from the group table as two 4-digit groups.  v is
    overwritten."""
    tab = _tables()
    q = v // 10 ** 4
    v -= q * 10 ** 4
    out = tab.group.take(q)
    tab.group.take(v, out=q.view(_U64), mode="clip")
    q <<= 32
    out |= q.view(_U64)
    return out


def _shown_bytes(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """m, the digit bytes of d1 and d2 (digits 2-9 and 10-17) up to the
    last nonzero one, from the bit length of their 16 bytes: exact, as
    every digit byte is at most 9, so the rounded sum never reaches the
    next power of 2."""
    f = d2 * 2.0 ** 64
    f += d1
    m = np.frexp(f)[1]
    m += 7
    m >>= 3
    return m


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
    return [_digit_bytes(p.astype(np.int64))
            | zero_char[np.clip(lead - 8 * j, 0, 8)]
            for j, p in enumerate(parts)]


def _g17_words(x: np.ndarray, words, tail: np.ndarray) -> None:
    """Write the cell text of '%.17g' % v for each v of the 1-D float64
    array x into `words`, four uint64 arrays of x's size (see the layout
    above; in _format_rows, strided views of the text buffer), word 3
    OR-ed with `tail`, the bytes that follow each cell.

    Every step runs in place where it can, in the order of the
    arithmetic it repeats, so the scaled product, the decade step, the
    rounding and the cells left to '%.17g' keep their bits.  Digits 2-17
    are read from the group table, and the layout masks by k and by m,
    the digit bytes up to the last nonzero one (_shown_bytes).  The last
    operation of each word writes it into `words`."""
    tab = _tables()
    ax = np.abs(x)
    nonzero = ax != 0.0
    # clipped into range (NaN too), so that every cell below is finite;
    # the clipped ones and non-finite ones are left to '%.17g'.  A zero
    # is scaled as 1 (at k = 0), then its digits are zeroed.
    axc = np.fmin(ax, 10.0 ** _K_MAX)
    np.fmax(axc, 10.0 ** _K_MIN, out=axc)
    fallback = axc != ax
    fallback &= nonzero
    axc += ~nonzero
    # k from the binary exponent, then at most one step from a table.
    # (Every table index below is in range by construction; a take into
    # out= in mode "raise" would copy through a buffer.)
    ki = axc.view(np.int64) >> 52
    tab.k_est.take(ki, out=ki, mode="clip")
    ki += axc >= tab.p10.take(ki)
    # judge k on the unrounded product |x| 10^(16 - k) in [1e16, 1e17)
    a, t = _scaled(axc, ki, tab)
    up, down = _decade_step(a, t)
    off = np.flatnonzero(up | down)
    if len(off):
        ki[off] += up[off].astype(np.int64) - down[off]
        a[off], t[off] = _scaled(axc[off], ki[off], tab)
        up, down = _decade_step(a[off], t[off])
        fallback[off] |= up | down
    whole = np.floor(t)
    t -= whole                          # the fraction
    n = a.astype(np.int64)
    n += whole.astype(np.int64)
    n += t > 0.5
    t -= 0.5
    np.abs(t, out=t)
    fallback |= t < _TIE_MARGIN
    carry = np.flatnonzero(n == 10 ** 17)   # rounded up to 10^17: next k
    n[carry] = 10 ** 16
    ki[carry] += 1
    n *= nonzero                        # 0 -> the digit 0
    # the leading digit, then digits 2-9 and 10-17 as digit bytes
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    d1 = n // 10 ** 8
    n -= d1 * 10 ** 8
    d1, d2 = _digit_bytes(d1), _digit_bytes(n)
    lo, hi = tab.keep[0].take(ki), tab.keep[1].take(ki)
    ki *= 17
    ki += _shown_bytes(d1, d2)          # the masks' row
    # words 1-2: the bytes from the dot's on move up one byte
    lo &= d1
    d1 ^= lo
    hi &= d2
    d2 ^= hi
    w = d1 << 8
    w |= lo
    tab.masks[1].take(ki, out=lo, mode="clip")
    np.bitwise_or(w, lo, out=words[1])
    np.left_shift(d2, 8, out=w)
    w |= hi
    d1 >>= 56
    w |= d1
    tab.masks[2].take(ki, out=d1, mode="clip")
    np.bitwise_or(w, d1, out=words[2])
    d2 >>= 56
    tab.masks[3].take(ki, out=w, mode="clip")
    w |= tail
    np.bitwise_or(w, d2, out=words[3])
    # word 0: the sign and the leading digit
    lead <<= 48
    w = x.view(_U64) >> 63
    w *= ord("-")
    w |= lead.view(_U64)
    tab.masks[0].take(ki, out=d2, mode="clip")
    np.bitwise_or(w, d2, out=words[0])
    for i in np.flatnonzero(fallback):
        for word, v, end in zip(words, _fallback(x[i]), (0, 0, 0, tail[i])):
            word[i] = v | end


def _fallback(v: float) -> np.ndarray:
    """The four words of '%.17g' % v, for a cell the kernel leaves alone."""
    return np.frombuffer(("%.17g" % v).encode().ljust(32, b"\0"), _U64)


def _format_rows(cells: np.ndarray, head: bytes, sep: bytes) -> bytes:
    """Rows of `cells` (rows, cols) as text: `head` (at most 2 bytes), the
    cells as '%.17g' joined by `sep`, LF.  The kernel writes each cell's
    words straight into the text buffer."""
    rows, cols = cells.shape
    lead = 1 if head else 0
    out = np.empty(lead + 4 * cells.size, _U64)
    out[:lead] = int.from_bytes(head, "little")
    # bytes 5-7 of word 3: the separator, or LF and the next row's head
    ends = np.full(cols, ord(sep) << 40, _U64)
    ends[-1] = int.from_bytes(b"\n" + head, "little") << 40
    tail = np.tile(ends, rows)
    tail[-1] = ord("\n") << 40
    _g17_words(np.ravel(cells), out[lead:].reshape(-1, 4).T, tail)
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
    if not (np.isfinite(rows[:, 0]).all() and (np.diff(rows[:, 0]) > 0).all()):
        raise ConfigError(
            f"{path}: column u must be finite and strictly increasing")
    if not np.isfinite(rows[:, 4:7]).all():
        raise ConfigError(f"{path}: columns px, py, pz must be finite")
    return rows[:, 0], rows[:, 1:4], rows[:, 4:7]


def obj_faces(n_u: int, n_v: int) -> bytes:
    """The face lines of an n_u x n_v vertex grid's quad mesh:
    counter-clockwise quads with 1-based vertex indices, u-major."""
    n = (n_u - 1) * (n_v - 1)
    blocks = []
    for start in range(0, n, BLOCK_ROWS):
        f = np.arange(start, min(start + BLOCK_ROWS, n))
        a = f // (n_v - 1) + f + 1          # face f's first corner
        # corners a, a + 1 lie in [lo, lo + m), a + n_v, a + n_v + 1 in
        # [lo + n_v, lo + n_v + m): format each index of the union once,
        # as the text of 10 times it, whose last byte, a '0', becomes the
        # separator
        lo, m = a[0], a[-1] - a[0] + 2
        step = min(n_v, m)          # from a's text to a + n_v's
        digits = _uint_words(10 * np.r_[lo:lo + m, lo + n_v + m - step:
                                        lo + n_v + m].astype(_U64))
        at = (a - lo)[:, None] + np.array([0, step, step + 1, 1])
        # "f ", then per corner its digit words, " " (the last "\n")
        w = len(digits)
        out = np.empty((len(a), 1 + 4 * w), _U64)
        out[:, 0] = int.from_bytes(b"f ", "little")
        corners = out[:, 1:].reshape(len(a), 4, w)
        for c, d in enumerate(digits[:-1]):
            corners[:, :, c] = d[at]
        last = digits[-1]
        corners[:, :3, -1] = (last ^ _U64((0x30 ^ ord(" ")) << 56))[at[:, :3]]
        corners[:, 3, -1] = (last ^ _U64((0x30 ^ ord("\n")) << 56))[at[:, 3]]
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
