"""Each command loads only the scipy it calls: scipy.interpolate is
imported on first use, only by grid_spline's fallback fits, so importing
the package and running `analyze`, `offset`, `mesh` and `verify` never
load it (`verify`'s chain-rule check forms and evaluates its Hermite maps
with surface.py's own kernels).  Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ruledgeom
from ruledgeom import catalog, io
from ruledgeom.surface import analyze

SRC = str(Path(ruledgeom.__file__).resolve().parents[1])

# run the statement, then print whether scipy.interpolate was loaded
PROBE = """
import sys
{statement}
print("scipy.interpolate" in sys.modules)
"""


def loads_interpolate(statement: str, cwd: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement=statement)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {"True": True, "False": False}[done.stdout.splitlines()[-1]]


def cli(*args: str) -> str:
    return ("from ruledgeom.cli import main\n"
            f"assert main({list(args)!r}) in (0, 2)")


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """A builtin cone config and a sampled_csv config of the same cone,
    each with a theorem and a constant-angle offset."""
    root = tmp_path_factory.mktemp("configs")
    offsets = [{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
               {"mode": "constant_angle", "theta": 0.0, "theta_star": 1.0}]
    builtin = root / "builtin.json"
    builtin.write_text(json.dumps({
        "surface": {"builtin": "cone", "alpha": np.pi / 4},
        "param_range": [0.0, 3.5], "sample_count": 201,
        "offsets": offsets}))
    a = analyze(catalog.cone(np.pi / 4, (0.0, 3.5), 201))
    with open(root / "cone.csv", "wb") as fh:
        fh.write((",".join(io.SAMPLED_COLUMNS) + "\n").encode())
        io._write_table(fh, np.vstack([a.u, a.e, a.c]).T, b"", b",")
    sampled = root / "sampled.json"
    sampled.write_text(json.dumps({
        "surface": {"sampled_csv": str(root / "cone.csv")},
        "offsets": offsets}))
    return {"builtin": builtin, "sampled_csv": sampled}


@pytest.mark.parametrize("statement", ["import ruledgeom",
                                       "import ruledgeom.cli"])
def test_import_leaves_interpolate_out(statement, tmp_path):
    assert not loads_interpolate(statement, tmp_path)


@pytest.mark.parametrize("command", ["analyze", "offset", "mesh", "verify"])
@pytest.mark.parametrize("config", ["builtin", "sampled_csv"])
def test_commands_never_load_interpolate(command, config, configs, tmp_path):
    args = [command, "--config", str(configs[config])]
    if command != "verify":             # verify writes no files
        args += ["--out", str(tmp_path)]
    assert not loads_interpolate(cli(*args), tmp_path)
    assert command == "verify" or any(tmp_path.iterdir())


def test_verify_without_a_config_leaves_interpolate_out(tmp_path):
    assert not loads_interpolate(cli("verify"), tmp_path)
