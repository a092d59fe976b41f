"""Property: every cell the bulk writers emit is format(x, ".17g").

The writers format whole blocks of rows with one %-template; the
reference here formats value by value, as a row loop would.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ruledgeom import io
from ruledgeom.io import ANALYSIS_COLUMNS, write_analysis_csv, write_obj

EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, -1e-310, 1e308, -1e308,
               1.7976931348623157e308, 1e-308, -1e-308, 0.1, 1 / 3]

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
    with mock.patch.object(io, "BLOCK_ROWS", block):
        write_obj(path, grid)
    n_u, n_v, _ = grid.shape
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
