"""Bit-level pin of the library path that the text reports round away.

The CLI and `verify` reports print residuals as %.3e, so a change that
moved a residual in its last bits would keep every emitted byte.  This
test pins the frame-ODE residuals, both Mannheim residuals, the striction
transport residual and every predicted-vs-recomputed row as float.hex
strings, for the four surface/offset job shapes of the benchmark's
pipeline workload (default-seed parameters) at n = 2001.
"""

import math

import pytest

from ruledgeom import catalog
from ruledgeom.offsets import OffsetSpec, verify_offset
from ruledgeom.surface import analyze, frame_ode_residual

N = 2001
SQ2 = math.sqrt(2.0)

JOBS = {
    "cone": (lambda: catalog.cone(
        math.pi / 4, (0.0, 2.5 / math.sin(math.pi / 4)), N),
        OffsetSpec.theorem(2.8, 0.7)),
    "small_circle": (lambda: catalog.small_circle(
        math.pi / 6, 1.0, (0.0, 2.5 / math.sin(math.pi / 6)), N),
        OffsetSpec.theorem(2.8, 1.0)),
    "hyperbolic_paraboloid": (lambda: catalog.hyperbolic_paraboloid(
        (-1.0, 1.0), N), OffsetSpec.constant(math.pi / 4, 2.0 * SQ2)),
    "helicoid": (lambda: catalog.helicoid(0.4, (0.0, 2 * math.pi), N),
                 OffsetSpec.constant(0.5, 1.0)),
}

PINNED = {
    "cone": {
        "frame_ode": ("0x1.3988e1409212ep-51",
                      "0x0.0p+0", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.c56b4b9d0e902p-20", "0x1.ddf858c15c1bfp-19"),
        "transport": "0x1.9608d3c41fb4bp-52",
        "rows": [
            ("ds1/ds", "0x1.179ec0ec00000p-21", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.75b0391e00000p-22", 1997),
            ("gamma1", "0x1.b97f3dce00000p-16", 1997),
            ("Delta1", "0x1.cb9c000000000p-37", 1997),
            ("delta1", "0x1.7313f4521a000p-14", 1997),
            ("R1 (real)", "0x1.2b3a867c80000p-19", 1997),
            ("R1 (dual)", "0x1.9033b00100000p-19", 1997),
            ("rho1 (angle)", "0x1.3976275340000p-19", 1997),
            ("rho1 (distance)", "0x1.5ec2aed880000p-19", 1997),
            ("d0_1 (real)", "0x1.397627533449cp-19", 1997),
            ("d0_1 (dual)", "0x1.5ec2aed876365p-19", 1997),
        ],
    },
    "small_circle": {
        "frame_ode": ("0x1.ad9f82de09ee8p-51",
                      "0x1.49d93405be849p-49", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.88ac2f19d75cap-19", "0x1.11ff713ed3b5cp-15"),
        "transport": "0x1.1ea9df740296fp-50",
        "rows": [
            ("ds1/ds", "0x1.e450ee5a00000p-20", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.a4d5dca300000p-18", 1997),
            ("gamma1", "0x1.b97e2f8a40000p-16", 1997),
            ("Delta1", "0x1.6b4af26000000p-20", 1997),
            ("delta1", "0x1.f63a8450ce000p-12", 1997),
            ("R1 (real)", "0x1.2b39cf4f80000p-19", 1997),
            ("R1 (dual)", "0x1.506ed27be0000p-16", 1997),
            ("rho1 (angle)", "0x1.3975676fc0000p-19", 1997),
            ("rho1 (distance)", "0x1.37c48eeae0000p-16", 1997),
            ("d0_1 (real)", "0x1.3975676fabffap-19", 1997),
            ("d0_1 (dual)", "0x1.37c48eeacb6f3p-16", 1997),
        ],
    },
    "hyperbolic_paraboloid": {
        "frame_ode": ("0x1.423146f65d06ap-49",
                      "0x1.f02107288e484p-49", "0x1.2000000000000p-51"),
        "mannheim": ("0x1.6a09e667f3bcfp+0", "0x1.c45e08b970ad8p+1"),
        "transport": "0x1.2a19c47848e6dp-49",
        "rows": [
            ("ds1/ds", "0x1.00000597a58a0p+0", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.0c6f645168930p-21", 1997),
            ("gamma1", "0x1.0000000000001p+0", 1997),
            ("Delta1", None, 0),
            ("delta1", None, 0),
            ("R1 (real)", "0x1.2bec333018868p-2", 1997),
            ("R1 (dual)", "0x1.0000000000001p+1", 1997),
            ("rho1 (angle)", "0x1.921fb54442d18p-1", 1997),
            ("rho1 (distance)", "0x1.6a09e667f3bcdp+1", 1997),
            ("d0_1 (real)", "0x1.87de2a6aea965p-1", 1997),
            ("d0_1 (dual)", "0x1.e31ac9e759cc4p+1", 1997),
        ],
    },
    "helicoid": {
        "frame_ode": ("0x1.6a09e667f3bcdp-52",
                      "0x1.4e16fdacff937p-50", "0x1.0000000000000p-52"),
        "mannheim": ("0x1.6a09e667f3bcep+0", "0x1.c1609c8aba1cbp+1"),
        "transport": "0x1.4000000000000p-50",
        "rows": [
            ("ds1/ds", "0x1.ffffc8ce21c21p-1", 1997),
            ("dsbar1/dsbar (dual part)", "0x1.613f2e04ca853p-21", 1997),
            ("gamma1", "0x1.d49ad7e47c0a3p+0", 1997),
            ("Delta1", None, 0),
            ("delta1", None, 0),
            ("R1 (real)", "0x1.0a88bc5da7d08p-1", 1997),
            ("R1 (dual)", "0x1.c1528065b7d50p-1", 1997),
            ("rho1 (angle)", "0x1.121fb54442d18p+0", 1997),
            ("rho1 (distance)", "0x1.0000000000000p+0", 1997),
            ("d0_1 (real)", "0x1.0536c6726eb0fp+0", 1997),
            ("d0_1 (dual)", "0x1.9e9e4a53c8d75p+1", 1997),
        ],
    },
}


def _hex(x):
    return None if x is None else float(x).hex()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_library_residuals_are_bitwise_pinned(name):
    build, offset = JOBS[name]
    a = analyze(build())
    ode = frame_ode_residual(a)
    rep = verify_offset(a, offset)
    want = PINNED[name]
    assert (_hex(ode.real_max), _hex(ode.dual_max),
            _hex(ode.orthonormality_max)) == want["frame_ode"]
    assert (_hex(rep.mannheim_residual_real),
            _hex(rep.mannheim_residual_dual)) == want["mannheim"]
    assert _hex(rep.constructed.transport_residual) == want["transport"]
    assert [(r.name, _hex(r.deviation), r.n_compared)
            for r in rep.rows] == want["rows"]
