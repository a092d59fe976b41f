"""Each command loads only the scipy it calls: no module of the package
imports scipy.interpolate (spline surfaces are grid-bound and fit no
spline), so importing the package and running `analyze`, `offset`,
`mesh` and `verify` never load it (`verify`'s chain-rule check forms and
evaluates its Hermite maps with surface.py's own kernels).  Nor do they
load the scipy.linalg package: surface.py takes LAPACK dgtsv from scipy's
compiled _flapack module, loaded from its file under its own name, so the
routine is scipy.linalg.lapack.dgtsv itself whichever is imported first.
Each case runs in a fresh interpreter."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ruledgeom
from ruledgeom import catalog, io, surface
from ruledgeom.surface import analyze

SRC = str(Path(ruledgeom.__file__).resolve().parents[1])
# the subpackages of scipy that no import or command of the package loads
WATCHED = ("scipy.interpolate", "scipy.linalg")

# run the statement, then print which WATCHED modules were loaded
PROBE = """
import json, sys
{statement}
print(json.dumps([m for m in {watched!r} if m in sys.modules]))
"""


def run_fresh(statement: str, cwd: Path) -> str:
    """The stdout of the statement in a fresh interpreter that imports
    the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", statement], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded(statement: str, cwd: Path) -> set:
    """The WATCHED modules in sys.modules after the statement runs."""
    out = run_fresh(PROBE.format(statement=statement, watched=WATCHED), cwd)
    return set(json.loads(out.splitlines()[-1]))


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


@pytest.fixture(scope="module")
def command_run(configs, tmp_path_factory):
    """command_run(command, config) -> (WATCHED modules loaded, its out
    directory): the command run once per module in a fresh interpreter
    (config None: `verify` without a config)."""
    runs = {}

    def run(command, config):
        if (command, config) not in runs:
            out = tmp_path_factory.mktemp(command)
            args = [command]
            if config is not None:
                args += ["--config", str(configs[config])]
            if command != "verify":     # verify writes no files
                args += ["--out", str(out)]
            runs[command, config] = loaded(cli(*args), out), out
        return runs[command, config]

    return run


@pytest.mark.parametrize("statement", ["import ruledgeom",
                                       "import ruledgeom.cli"])
def test_import_leaves_interpolate_out(statement, tmp_path):
    assert "scipy.interpolate" not in loaded(statement, tmp_path)


@pytest.mark.parametrize("statement", ["import ruledgeom",
                                       "import ruledgeom.cli"])
def test_import_leaves_linalg_out(statement, tmp_path):
    assert "scipy.linalg" not in loaded(statement, tmp_path)


COMMANDS = pytest.mark.parametrize("command",
                                   ["analyze", "offset", "mesh", "verify"])
CONFIGS = pytest.mark.parametrize("config", ["builtin", "sampled_csv"])


@COMMANDS
@CONFIGS
def test_commands_never_load_interpolate(command, config, command_run):
    modules, out = command_run(command, config)
    assert "scipy.interpolate" not in modules
    assert command == "verify" or any(out.iterdir())


@COMMANDS
@CONFIGS
def test_commands_never_load_linalg(command, config, command_run):
    modules, out = command_run(command, config)
    assert "scipy.linalg" not in modules
    assert command == "verify" or any(out.iterdir())


def test_verify_without_a_config_leaves_interpolate_out(command_run):
    assert "scipy.interpolate" not in command_run("verify", None)[0]


def test_verify_without_a_config_leaves_linalg_out(command_run):
    assert "scipy.linalg" not in command_run("verify", None)[0]


def test_no_source_file_imports_linalg():
    pattern = re.compile(r"^\s*(from|import)\s+scipy(\.linalg\b|\s+import"
                         r"\s+.*\blinalg\b)", re.M)
    sources = sorted(Path(ruledgeom.__file__).parent.glob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []


def test_a_missing_lapack_module_is_an_import_error_naming_it(
        monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(
            str(tmp_path / "linalg" / "_flapack"))):
        surface._load_flapack()


@pytest.mark.parametrize("order", [("ruledgeom", "scipy.linalg"),
                                   ("scipy.linalg", "ruledgeom")])
def test_dgtsv_is_scipys_routine_in_either_import_order(order, tmp_path):
    """One _flapack module whichever comes first: the package reuses the
    one scipy.linalg loaded, and scipy.linalg the one the package did."""
    run_fresh("".join(f"import {m}\n" for m in order)
              + "import sys, scipy.linalg, ruledgeom.surface\n"
              "assert ruledgeom.surface.dgtsv is scipy.linalg.lapack.dgtsv\n"
              "assert (sys.modules['scipy.linalg._flapack']\n"
              "        is scipy.linalg.lapack._flapack)", tmp_path)


# the README config, without its out_dir
README_CONE = {
    "surface": {"builtin": "cone", "alpha": 0.7853981633974483},
    "param_range": [0.0, 3.5355339059327378],
    "sample_count": 2001,
    "offsets": [
        {"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
        {"mode": "constant_angle", "theta": 0.0,
         "theta_star": 5.656854249492381}],
    "seed": 42,
    "tolerances": {"theorem_compare": 1e-3}}


def test_offset_without_linalg_writes_the_bytes_of_a_run_with_it(tmp_path):
    """`offset` on the README cone writes the same files and report (its
    out directory aside) whether or not scipy.linalg was imported before
    it."""
    cfg = tmp_path / "cone.json"
    cfg.write_text(json.dumps(README_CONE))
    runs = {}
    for label, prefix in [("bare", ""), ("linalg", "import scipy.linalg\n")]:
        out = tmp_path / label
        out.mkdir()
        statement = (prefix + "import sys\nfrom ruledgeom.cli import main\n"
                     f"assert main(['offset', '--config', {str(cfg)!r}, "
                     f"'--out', {str(out)!r}]) == 0\n"
                     f"assert ('scipy.linalg' in sys.modules) == {bool(prefix)}")
        stdout = run_fresh(statement, out).replace(str(out), "OUT")
        runs[label] = stdout, {f.name: f.read_bytes()
                               for f in sorted(out.iterdir())}
    assert runs["bare"][1] and runs["bare"] == runs["linalg"]
