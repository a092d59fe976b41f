"""Config fuzz: any JSON document over the config keys exits 0, 1 or 2.

Documents are built from the config schema's keys, with values that mix
bounded integers (so no huge sample_count), floats including NaN and
+-Infinity, booleans, null and short strings.  Every command must end in
an exit code, never in an uncaught exception or a printed traceback.
The number of documents comes from the hypothesis profile that
tests/conftest.py loads (40 by default).
"""

import contextlib
import dataclasses
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ruledgeom.catalog import builtin_names
from ruledgeom.cli import main
from ruledgeom.config import Tolerances

SCALARS = st.one_of(
    st.integers(-10**4, 10**4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.none(), st.text(max_size=4))


def _mostly(typed):
    """`typed` nine times in ten and any scalar otherwise, so that many
    documents get past the type checks and into the pipeline."""
    return st.integers(0, 9).flatmap(lambda k: typed if k else SCALARS)


def _object(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


NUMBER = _mostly(st.one_of(st.integers(-10**4, 10**4),
                           st.floats(allow_nan=True, allow_infinity=True)))
INTEGER = _mostly(st.integers(-10**4, 10**4))


def _builtin(name, *params, **optional):
    return _object({"builtin": st.just(name),
                    **{k: NUMBER for k in params}}, **optional)


SURFACE = _mostly(st.one_of(
    _builtin("hyperbolic_paraboloid"), _builtin("cone", "alpha"),
    _builtin("small_circle", "beta", radius=NUMBER),
    _builtin("helicoid", "pitch"),
    _object(builtin=_mostly(st.sampled_from(builtin_names())),
            sampled_csv=SCALARS, alpha=NUMBER, beta=NUMBER, radius=NUMBER,
            pitch=NUMBER, bogus=SCALARS)))
OFFSET = _mostly(st.one_of(
    _object({"mode": st.just("theorem_consistent"), "c": NUMBER,
             "c_star": NUMBER}),
    _object({"mode": st.just("constant_angle"), "theta": NUMBER,
             "theta_star": NUMBER}),
    _object(mode=SCALARS, c=NUMBER, c_star=NUMBER, theta=NUMBER,
            theta_star=NUMBER, bogus=SCALARS)))
TOLERANCES = _mostly(st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(Tolerances)]
                    + ["bogus"]), NUMBER, max_size=2))
# The surface is always given: only verify runs without one.
OPTIONAL = dict(
    param_range=_mostly(st.lists(NUMBER, min_size=1, max_size=3)),
    sample_count=INTEGER, offsets=_mostly(st.lists(OFFSET, max_size=2)),
    seed=INTEGER, tolerances=TOLERANCES,
    out_dir=_mostly(st.text(max_size=4)))
DOCUMENT = st.one_of(_object({"surface": SURFACE}, **OPTIONAL),
                     _object({"surface": SURFACE}, **OPTIONAL, bogus=SCALARS))

COMMANDS = (["analyze"], ["offset"], ["mesh", "--v-count", "3"], ["verify"])


# saddle ranges whose oracles overflow in |r| ** 3 and |r| ** 5
@example(doc={"surface": {"builtin": "hyperbolic_paraboloid"},
              "param_range": [0, 5.643803094122362e+102]})
@example(doc={"surface": {"builtin": "hyperbolic_paraboloid"},
              "param_range": [0, 4.476546622757236e+61]})
# a constant offset whose moments' squared norms overflow
@example(doc={"surface": {"builtin": "hyperbolic_paraboloid"},
              "offsets": [{"mode": "constant_angle", "theta": 0,
                           "theta_star": 9.480751908109176e+153}]})
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENT)
def test_any_config_exits_0_1_or_2(tmp_path_factory, doc):
    work = tmp_path_factory.mktemp("fuzz")
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in COMMANDS:
        argv = [*command, "--config", str(cfg)]
        if command[0] != "verify":
            argv += ["--out", str(work / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2), (argv, doc, rc)
        assert "Traceback" not in err.getvalue(), (argv, doc)
