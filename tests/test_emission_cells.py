"""Property: every cell the bulk writers emit is format(x, ".17g").

The writers format whole blocks of cells with a numpy kernel; the
reference here formats value by value, as a row loop would.
"""

import json
from decimal import Decimal
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ruledgeom import io
from ruledgeom.cli import main
from ruledgeom.io import ANALYSIS_COLUMNS, write_analysis_csv, write_obj

EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, -1e-310, 1e308, -1e308,
               1.7976931348623157e308, 1e-308, -1e-308, 0.1, 1 / 3,
               # just below a power of ten: 17 nines, one decade down
               9.9999999999999995e-07, 0.099999999999999992,
               # exact ties at the 17th digit (round half to even)
               1000000000000000.25, 1000000000000000.75,
               1000000000000001.25]

cells = st.one_of(st.sampled_from(EDGE_VALUES),
                  st.floats(allow_nan=True, allow_infinity=True,
                            allow_subnormal=True))
block_rows = st.integers(min_value=1, max_value=8)


def ref(x) -> str:
    return format(float(x), ".17g")


@settings(deadline=None, max_examples=60)
@given(grid=st.tuples(st.integers(1, 5), st.integers(2, 4)).flatmap(
           lambda s: arrays(np.float64, (s[0], s[1], 3), elements=cells)),
       block=block_rows)
@example(grid=np.array(EDGE_VALUES[:15]).reshape(5, 1, 3)[:, [0, 0], :],
         block=2)
def test_obj_cells_are_17g(tmp_path_factory, grid, block):
    path = tmp_path_factory.mktemp("obj") / "m.obj"
    n_u, n_v, _ = grid.shape
    with mock.patch.object(io, "BLOCK_ROWS", block):
        write_obj(path, grid, io.obj_faces(n_u, n_v))
    want = [f"v {ref(x)} {ref(y)} {ref(z)}" for x, y, z in grid.reshape(-1, 3)]
    for i in range(n_u - 1):
        for j in range(n_v - 1):
            a, b = i * n_v + j + 1, (i + 1) * n_v + j + 1
            want.append(f"f {a} {b} {b + 1} {a + 1}")
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def _analysis_like(table: np.ndarray) -> tuple[SimpleNamespace,
                                               SimpleNamespace]:
    """Stand-ins for the analysis and the invariants write_analysis_csv
    reads, with `table`'s columns in ANALYSIS_COLUMNS order."""
    col = dict(zip(ANALYSIS_COLUMNS, table.T))

    def xyz(name):   # (3, n), as the analysis stores vector fields
        return np.stack([col[f"{name}_{k}"] for k in "xyz"])

    inv = SimpleNamespace(
        R=SimpleNamespace(real=col["R_real"], dual=col["R_dual"]),
        rho=SimpleNamespace(real=col["rho_real"], dual=col["rho_dual"]))
    return SimpleNamespace(
        u=col["u"], s=col["s"], s_star=col["s_star"], c=xyz("c"), e=xyz("e"),
        t=xyz("t"), g=xyz("g"), Delta=col["Delta"], delta=col["delta"],
        gamma=col["gamma"], gamma_dual=col["gamma_dual"]), inv


@settings(deadline=None, max_examples=60)
@given(table=st.integers(1, 6).flatmap(
           lambda n: arrays(np.float64, (n, len(ANALYSIS_COLUMNS)),
                            elements=cells)),
       block=block_rows)
def test_csv_cells_are_17g(tmp_path_factory, table, block):
    path = tmp_path_factory.mktemp("csv") / "analysis.csv"
    with mock.patch.object(io, "BLOCK_ROWS", block):
        write_analysis_csv(path, *_analysis_like(table))
    want = [",".join(ANALYSIS_COLUMNS)]
    want += [",".join(ref(x) for x in row) for row in table]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def _kernel_text(values: np.ndarray) -> bytes:
    return io._format_rows(values.reshape(-1, 4), b"", b",")


def _reference_text(values: np.ndarray) -> bytes:
    rows = values.reshape(-1, 4).tolist()
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in rows).encode()


def _differential_values() -> np.ndarray:
    """Over a million cells where a short-cut digit generator goes wrong:
    both neighbours of every 10^k, 10^k (1 +- j 2^-53), the edge values
    and random bit patterns (NaNs, infinities and subnormals included)."""
    rng = np.random.default_rng(20111005)
    p = 10.0 ** np.arange(-40, 41)
    j = np.arange(1, 2049) * 2.0 ** -53
    near = [np.nextafter(p, 0.0), np.nextafter(p, np.inf),
            (p[:, None] * (1.0 + j)).ravel(), (p[:, None] * (1.0 - j)).ravel()]
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 700_000,
                        dtype=np.int64).view(np.float64)
    specials = np.array(EDGE_VALUES + [-1.7976931348623157e308, 1e-320,
                                       -2.5e-315, 1e16, 1e17, 1e-5, 1e-4])
    values = np.concatenate(near + [bits, specials, -specials])
    return np.concatenate([values, np.zeros(-len(values) % 4)])


def test_kernel_matches_17g_on_a_million_values():
    values = _differential_values()
    assert len(values) >= 1_000_000
    assert _kernel_text(values) == _reference_text(values)


def test_fallback_takes_only_uncertified_cells():
    certified = [0.0, -0.0, 1.0, 0.5, 1e16, 9.9999999999999995e-07,
                 0.099999999999999992, 1e-280, -1e280, 123.456]
    uncertified = [np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                   1.7976931348623157e308, 1e-281, 1000000000000000.25,
                   1000000000000000.75, 1000000000000001.25]
    values = np.array(certified + uncertified)
    with mock.patch.object(io, "_fallback", wraps=io._fallback) as fb:
        text = _kernel_text(values)
    assert text == _reference_text(values)
    taken = [repr(float(c.args[0])) for c in fb.call_args_list]
    assert sorted(taken) == sorted(map(repr, uncertified))


@pytest.mark.parametrize("top, n_words", [(10 ** 8, 1), (10 ** 16, 2),
                                           (2 ** 64, 3)])
def test_uint_words_are_the_decimal_text(top, n_words):
    edges = [0, 1, 9, 2 ** 64 - 1] + [10 ** k + d for k in range(1, 20)
                                      for d in (-1, 0, 1)]
    randoms = np.random.default_rng(5).integers(0, 2 ** 64, 400, np.uint64)
    v = np.array([x for x in edges if x < top]
                 + [x % top for x in randoms.tolist()], np.uint64)
    words = io._uint_words(v)
    assert len(words) == n_words
    text = np.stack(words, 1).tobytes().translate(None, b"\0")
    assert text == b"".join(b"%d" % x for x in v.tolist())


@pytest.mark.parametrize("n_u, n_v", [(2, 2), (5, 3), (3, 5001), (2000, 2),
                                      (2001, 25), (4099, 3)])
def test_face_lines_are_the_d_text(n_u, n_v):
    want = "".join(f"f {a} {a + n_v} {a + n_v + 1} {a + 1}\n"
                   for i in range(n_u - 1) for a in
                   range(i * n_v + 1, i * n_v + n_v))
    assert io.obj_faces(n_u, n_v) == want.encode()


def test_readme_cone_needs_no_fallback(tmp_path):
    # the README config: every cell of its analysis and meshes is
    # formatted by the vectorized path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "surface": {"builtin": "cone", "alpha": 0.7853981633974483},
        "param_range": [0.0, 3.5355339059327378], "sample_count": 2001,
        "offsets": [
            {"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
            {"mode": "constant_angle", "theta": 0.0,
             "theta_star": 5.656854249492381}]}))
    with mock.patch.object(io, "_fallback",
                           side_effect=AssertionError("fallback")):
        for command in ("analyze", "mesh"):
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
    assert (tmp_path / "analysis.csv").stat().st_size > 0
    assert (tmp_path / "base.obj").stat().st_size > 0


def test_group_table_is_the_04d_text():
    # every 4-digit group 0000-9999: its digit bytes in bytes 0-3, the
    # leading digit first, and nothing above
    group = io._tables().group
    assert group.shape == (10 ** 4,) and not (group >> np.uint64(32)).any()
    text = (group.view(np.uint8).reshape(-1, 8)[:, :4] + 0x30).tobytes()
    assert text == "".join(format(g, "04d") for g in range(10 ** 4)).encode()


@pytest.mark.parametrize("earlier", [0, 1000])
def test_shown_bytes_end_at_the_last_nonzero_digit(earlier):
    # each group 0000-9999 at each of the four group positions of digits
    # 2-17 (the first position holding `earlier` when it is not the one
    # probed): the count is the group's offset plus its digits up to the
    # last nonzero one
    group = io._tables().group
    sig = np.array([len(format(g, "04d").rstrip("0")) for g in range(10 ** 4)])
    for pos in range(4):
        words = [np.zeros(10 ** 4, np.uint64), np.zeros(10 ** 4, np.uint64)]
        if pos:
            words[0] |= group[earlier]
        words[pos // 2] |= group << np.uint64(32 * (pos % 2))
        want = np.where(sig > 0, 4 * pos + sig, 1 if pos and earlier else 0)
        assert np.array_equal(io._shown_bytes(*words), want)


def _significant(text: str) -> tuple[int, int]:
    """(decimal exponent, significant digits) of a nonzero number's text."""
    d = Decimal(text).normalize()
    return d.adjusted(), len(d.as_tuple().digits)


def _last_digit_at(k: int, p: int) -> float:
    """A float whose '%.17g' text has decimal exponent k and its last
    significant digit at position p (1-17)."""
    for lead in range(1, 10):
        for last in range(1, 10):
            digits = f"{lead}{'0' * (p - 2)}{last}" if p > 1 else f"{lead}"
            x = float(f"{digits}e{k - p + 1}")
            if _significant(format(x, ".17g")) == (k, p):
                return x
    raise AssertionError(f"no value with k={k}, p={p}")


@pytest.mark.parametrize("form, ks", [
    ("fixed", range(0, 17)),
    ("small", range(-4, 0)),
    ("exponent", [17, 22, 100, 279, -8, -100, -279]),
])
def test_last_digit_at_every_position_is_17g(form, ks):
    values = np.array([s * _last_digit_at(k, p) for k in ks
                       for p in range(1, 18) for s in (1.0, -1.0)])
    texts = {format(x, ".17g") for x in values}
    assert all(("e" in t) == (form == "exponent") for t in texts)
    assert all(t.lstrip("-").startswith("0.") == (form == "small")
               for t in texts)
    values = np.concatenate([values, np.zeros(-len(values) % 4)])
    with mock.patch.object(io, "_fallback",
                           side_effect=AssertionError("fallback")):
        assert _kernel_text(values) == _reference_text(values)
