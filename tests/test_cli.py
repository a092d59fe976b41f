"""Command-line contract: files, formats, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ruledgeom import catalog, cli, offsets, surface
from ruledgeom.cli import main
from ruledgeom.io import ANALYSIS_COLUMNS, read_sampled_csv
from ruledgeom.errors import ConfigError
from ruledgeom.surface import analyze

SQ2 = np.sqrt(2.0)


def write_config(path, **overrides):
    doc = {
        "surface": {"builtin": "hyperbolic_paraboloid"},
        "param_range": [-1, 1],
        "sample_count": 101,
        "seed": 42,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def col(header, name):
    return header.index(name)


# --- analyze ---

def test_analyze_writes_expected_table(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", sample_count=2001)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, data = read_table(tmp_path / "analysis.csv")
    assert header == ANALYSIS_COLUMNS
    assert data.shape == (2001, len(ANALYSIS_COLUMNS))
    assert np.max(np.abs(data[:, col(header, "gamma")])) < 1e-4
    assert np.max(np.abs(data[:, col(header, "delta")])) < 1e-6

    raw = (tmp_path / "analysis.csv").read_bytes()
    assert b"\r" not in raw          # LF only
    assert b";" not in raw           # locale-independent separators
    # 17 significant digits round-trip float64 exactly
    reread = read_table(tmp_path / "analysis.csv")[1]
    assert np.array_equal(reread, data)


def test_analyze_overflowing_param_range_exits_1(tmp_path, capsys):
    # the grid's span overflows to inf and linspace fills it with NaN
    cfg = write_config(tmp_path / "cfg.json",
                       param_range=[-1.7e308, 1.7e308])
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sample grid must be finite")
    assert not (tmp_path / "analysis.csv").exists()


@pytest.mark.parametrize("hi", [4.476546622757236e+61,
                                5.643803094122362e+102, 1e200])
def test_analyze_saddle_whose_oracles_overflow_exits_1(tmp_path, capsys, hi):
    # |r| ** 5 (and from 5.6e102 on |r| ** 3, from 1.3e154 on |r|^2)
    # overflows: the grid is refused before any oracle divides by it
    cfg = write_config(tmp_path / "cfg.json", param_range=[0, hi])
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the normalized director overflows on the "
                          "sample grid")


@pytest.mark.parametrize("command", ["analyze", "offset", "mesh"])
def test_a_run_that_overflows_exits_1(tmp_path, capsys, command):
    # the helicoid's base p*u overflows; a theorem offset is declared so
    # that offset and mesh reach the surface
    cfg = write_config(tmp_path / "cfg.json",
                       surface={"builtin": "helicoid", "pitch": 1e308},
                       offsets=[{"mode": "theorem_consistent", "c": 2.8,
                                 "c_star": 0.7}])
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: overflow encountered in multiply: the run's magnitudes "
        "leave the float range\n")


def test_offset_whose_moments_overflow_exits_1(tmp_path, capsys):
    # a constant offset 9.5e153 along g: the squared norms of the offset's
    # moments leave the float range in verify_offset
    cfg = write_config(tmp_path / "cfg.json", sample_count=2001,
                       offsets=[{"mode": "constant_angle", "theta": 0,
                                 "theta_star": 9.480751908109176e+153}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "float range" in capsys.readouterr().err


def test_analyze_cone_is_developable(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       surface={"builtin": "cone", "alpha": np.pi / 4},
                       param_range=[0.0, 3.0], sample_count=1001)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, data = read_table(tmp_path / "analysis.csv")
    assert np.max(np.abs(data[:, col(header, "Delta")])) < 1e-8


def test_even_sample_count_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", sample_count=2000)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "odd" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "surface": {"builtin": "hyperbolic_paraboloid"}, "tolerence": {}}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "tolerence" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_unknown_tolerance_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["verify", "--config", str(cfg),
                 "--tolerance", "no_such=1"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["offset"], "the following arguments are required: --config"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["mesh", "--config", "cfg.json", "--v-count", "x"],
     "argument --v-count: invalid int value: 'x'"),
    # options no command reads are not accepted
    (["analyze", "--config", "cfg.json", "--tolerance", "theorem_compare=1"],
     "unrecognized arguments: --tolerance"),
    (["mesh", "--config", "cfg.json", "--tolerance", "theorem_compare=1"],
     "unrecognized arguments: --tolerance"),
    (["verify", "--out", "/nonexistent/zzz"], "unrecognized arguments: --out"),
])
def test_usage_error_exits_1(capsys, argv, message):
    # exit 2 is reserved for a failed verification
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ruledgeom") and message in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["offset", "--help"])
    assert exc.value.code == 0
    assert "--tolerance" in capsys.readouterr().out


def test_main_calls_share_the_parser_and_no_state(tmp_path, monkeypatch):
    """The parser is built once per process; every main() call parses into
    a fresh namespace, so no option of one call reaches the next."""
    seen = []
    for name in ("cmd_verify", "cmd_mesh"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    cfg = str(write_config(tmp_path / "cfg.json"))
    for argv in (["verify", "--tolerance", "chain_rule=1e-3"], ["verify"],
                 ["mesh", "--config", cfg, "--v-range", "-1", "3"],
                 ["mesh", "--config", cfg]):
        assert main(argv) == 0
    assert [args.tolerance for args in seen[:2]] == [["chain_rule=1e-3"], []]
    assert [args.v_range for args in seen[2:]] == [[-1.0, 3.0], [-2.0, 2.0]]
    assert cli._build_parser() is cli._build_parser()


def test_explicit_out_overrides_config_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", out_dir="from_config")
    assert main(["analyze", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config" / "analysis.csv").exists()
    assert main(["analyze", "--config", str(cfg), "--out", "."]) == 0
    assert (tmp_path / "analysis.csv").exists()


INF, NAN = float("inf"), float("nan")
OFFSET = {"mode": "constant_angle", "theta": np.pi / 4, "theta_star": 2 * SQ2}


@pytest.mark.parametrize("overrides, argv, message", [
    ({"param_range": [None, 1]}, [], "param_range entry"),
    ({"param_range": [0, INF]}, [], "param_range entry"),
    ({"offsets": [{"mode": "theorem_consistent", "c": None, "c_star": 0.7}]},
     [], "offsets[0].c "),
    ({"offsets": [{"mode": "theorem_consistent", "c": INF, "c_star": 0.7}]},
     [], "offsets[0].c "),
    ({"surface": {"builtin": "helicoid", "pitch": None}}, [],
     "surface 'pitch'"),
    ({"surface": {"builtin": "cone", "alpha": "0.7"}}, [], "surface 'alpha'"),
    ({"tolerances": {"theorem_compare": NAN}}, [], "tolerance 'theorem_compare'"),
    ({"tolerances": {"theorem_compare": INF}}, [], "tolerance 'theorem_compare'"),
    ({}, ["--tolerance", "theorem_compare=inf"], "tolerance 'theorem_compare'"),
    ({}, ["--tolerance", "theorem_compare=nan"], "tolerance 'theorem_compare'"),
    ({}, ["--tolerance", "theorem_compare=abc"], "NAME=NUMBER"),
    ({"surface": {"sampled_csv": "s.csv"}, "param_range": [0, 1]}, [],
     "sampled_csv surfaces take no parameters ['param_range']"),
    ({"surface": {"sampled_csv": "s.csv"}, "sample_count": 101}, [],
     "sampled_csv surfaces take no parameters ['sample_count']"),
    ({"surface": {"sampled_csv": 3}}, [], "'sampled_csv' must be a string"),
    ({}, ["mesh", "--v-range", "nan", "1", "--v-count", "3"], "--v-range entry"),
    ({}, ["mesh", "--v-range", "0", "inf"], "--v-range entry"),
    # an unhashable mode must not reach a dict lookup (TypeError)
    *[({"offsets": [{"mode": mode}]}, argv, "offsets[0].mode must be ")
      for mode in (["theorem_consistent"], {}) for argv in ([], ["mesh"])],
    ({"seed": -1}, [], "seed must be a non-negative integer"),
])
def test_bad_config_value_exits_1(tmp_path, capsys, overrides, argv, message):
    doc = {"surface": {"builtin": "hyperbolic_paraboloid"}, "offsets": [OFFSET]}
    doc.update(overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))      # NaN/Infinity as json.loads reads them
    # argv runs offset unless it starts with the mesh command
    command, *options = argv if argv[:1] == ["mesh"] else ["offset", *argv]
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]
                + options) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.obj"))


# --- offset ---

def test_offset_emits_catalog_striction_lines(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", sample_count=2001,
        offsets=[
            {"mode": "constant_angle", "theta": 0.0, "theta_star": 4 * SQ2},
            {"mode": "constant_angle", "theta": np.pi / 4,
             "theta_star": 2 * SQ2},
        ])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "informational" in out

    for idx, shift in ((0, 4.0), (1, 2.0)):
        header, data = read_table(tmp_path / f"offset_{idx}.csv")
        u = data[:, col(header, "u")]
        want = np.stack([u / 2 - shift, u / 2 - shift, np.zeros_like(u)],
                        axis=1)
        got = data[:, col(header, "c_x"):col(header, "c_x") + 3]
        assert np.max(np.abs(got - want)) < 1e-9
        assert (tmp_path / f"offset_{idx}_report.txt").exists()


def test_offset_theorem_mode_asserts_and_passes(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "ok" in out


def test_offset_computes_each_offsets_invariants_once(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
                 {"mode": "constant_angle", "theta": 0.5, "theta_star": 1.0}])
    with mock.patch.object(surface, "dual_invariants",
                           wraps=surface.dual_invariants) as counted:
        assert main(["offset", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    assert counted.call_count == 2


def test_offset_theorem_mode_failure_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path),
                 "--tolerance", "theorem_compare=1e-12"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_offset_theorem_mode_with_no_compared_sample_exits_2(tmp_path, capsys):
    # theta = -s + c stays outside (0, pi) everywhere, so every sample lies
    # in a guard band and nothing is compared
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=501,
        offsets=[{"mode": "theorem_consistent", "c": 2.8 + 2 * np.pi,
                  "c_star": 0.7}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "  samples compared: 0/501  [FAIL: no sample compared]\n" in out
    assert out.count("FAIL") == 1


def test_offset_rows_emptied_by_the_theta_band_say_so(tmp_path, capsys):
    # the README cone with c + 2 pi: the same offset as c, but theta = -s + c
    # leaves (0, pi) at every sample, so no row compares one
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8 + 2 * np.pi,
                  "c_star": 0.7}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "  samples compared: 0/2001  [FAIL: no sample compared]\n" in out
    rows = [line for line in out.splitlines() if line.startswith("    ")]
    assert len(rows) == 11
    assert all(line.endswith(
        "[n/a(band)]  no sample inside the theta band (0, pi)")
        for line in rows)
    assert "guard bands" not in out


def test_theta_band_cells_say_band_and_info_cells_say_guard(tmp_path):
    # the README config with c + 2 pi: the theorem report's empty cells
    # blame the theta band; the constant-angle report's keep n/a(guard)
    cfg = write_config(
        tmp_path / "cfg.json",
        surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8 + 2 * np.pi,
                  "c_star": 0.7},
                 {"mode": "constant_angle", "theta": 0.0,
                  "theta_star": 4 * SQ2}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    theorem = (tmp_path / "offset_0_report.txt").read_text().splitlines()
    rows = [line for line in theorem if line.startswith("    ")]
    assert len(rows) == 11
    assert all(line.endswith(" n/a(band)  [n/a(band)]  no sample inside the "
                             "theta band (0, pi)") for line in rows)
    assert "guard" not in "\n".join(theorem)
    info = (tmp_path / "offset_1_report.txt").read_text()
    assert "samples compared: 0/2001" in info
    assert "n/a(band)" not in info
    assert info.count("n/a(guard)  [info]  no samples outside guard bands") == 11


def test_offset_without_offsets_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_identity_offset_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        offsets=[{"mode": "constant_angle", "theta": 0.0, "theta_star": 0.0}])
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "identity" in capsys.readouterr().err


# --- mesh ---

def obj_counts(path):
    verts, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:]])
    return np.array(verts), faces


def test_mesh_grid_counts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sample_count=101)
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--v-range", "-1", "1", "--v-count", "2"]) == 0
    verts, faces = obj_counts(tmp_path / "base.obj")
    assert len(verts) == 202
    assert len(faces) == 100
    assert all(len(f) == 4 for f in faces)
    assert min(min(f) for f in faces) == 1          # 1-based
    assert max(max(f) for f in faces) == len(verts)


@pytest.mark.parametrize("low, high", [("2", "2"), ("1", "-1")])
def test_v_range_must_increase(tmp_path, capsys, low, high):
    """An empty v-range puts a ruling's vertices at one point (zero-area
    faces) and a reversed one winds the faces against phi_u x phi_v: both
    exit 1 before any output."""
    cfg = write_config(tmp_path / "cfg.json", sample_count=101)
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--v-range", low, high]) == 1
    assert capsys.readouterr().err == "error: --v-range must satisfy A < B\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("plain, written", [
    ("-0.1", "-1e-1"), ("-0.1", "-1.e-1"), ("-0.1", "-0.01E1"), ("-5", "-5.")])
def test_v_range_reads_negative_numbers_in_any_float_form(tmp_path, plain,
                                                          written):
    cfg = write_config(tmp_path / "cfg.json", sample_count=101)
    for out, low in (("plain", plain), ("written", written)):
        assert main(["mesh", "--config", str(cfg), "--out",
                     str(tmp_path / out), "--v-range", low, "2"]) == 0
    assert ((tmp_path / "written" / "base.obj").read_bytes()
            == (tmp_path / "plain" / "base.obj").read_bytes())


@pytest.mark.parametrize("low", ["-inf", "-nan", "-1e", "-e1"])
def test_v_range_non_numbers_still_exit_1(capsys, low):
    # read as an option, as before: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--config", "cfg.json", "--v-range", low, "2"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "argument --v-range: expected 2 arguments" in err
    assert "Traceback" not in err


def test_mesh_rows_are_rulings(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sample_count=101)
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--v-range", "-2", "2", "--v-count", "5"]) == 0
    verts, _ = obj_counts(tmp_path / "base.obj")
    grid = verts.reshape(101, 5, 3)
    for i in range(0, 101, 10):
        row = grid[i]
        d = row[1] - row[0]
        for j in range(2, 5):
            assert np.linalg.norm(np.cross(row[j] - row[0], d)) < 1e-10


def test_offset_mesh_is_translated(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", sample_count=101,
        offsets=[{"mode": "constant_angle", "theta": 0.0,
                  "theta_star": 4 * SQ2}])
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--v-range", "-1", "1", "--v-count", "3"]) == 0
    base, _ = obj_counts(tmp_path / "base.obj")
    off, _ = obj_counts(tmp_path / "offset_0.obj")
    assert np.max(np.abs((off - base) - np.array([-4.0, -4.0, 0.0]))) < 1e-9


def test_mesh_and_the_offset_re_analysis_fit_no_spline(tmp_path, monkeypatch):
    # the README config: a theorem-consistent and a constant-angle offset
    cfg = write_config(
        tmp_path / "cfg.json", surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001,
        offsets=[{"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
                 {"mode": "constant_angle", "theta": 0.0,
                  "theta_star": 4 * SQ2}])
    assert main(["mesh", "--config", str(cfg), "--out", str(tmp_path),
                 "--v-count", "3"]) == 0
    a = analyze(catalog.cone(np.pi / 4, (0.0, 2.5 / np.sin(np.pi / 4)),
                             2001))
    specs = []   # the spec of the offset's re-analysis
    monkeypatch.setattr(offsets, "analyze",
                        lambda spec: specs.append(spec) or analyze(spec))
    offsets.verify_offset(a, offsets.OffsetSpec.theorem(2.8, 0.7))
    # the re-analysis reads its splines at the grid only: they are
    # grid-bound, and no module of the package can fit one
    spec, = specs
    with pytest.raises(ValueError, match="sample grid"):
        spec.director(0.5 * (a.u[1:] + a.u[:-1]))
    assert spec.base(a.u).shape == (2001, 3)


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the address-space limit is enforced on Linux")
def test_mesh_too_large_to_hold_exits_1(tmp_path):
    """A v-count whose vertex grid cannot be allocated exits 1 with an
    error line and no traceback, before any face text is formatted.  The
    command runs in a child process under a 2-GB address-space limit, so
    that it fails at once instead of growing until the host runs out of
    memory."""
    cfg = write_config(
        tmp_path / "cfg.json", surface={"builtin": "cone", "alpha": np.pi / 4},
        param_range=[0.0, 2.5 / np.sin(np.pi / 4)], sample_count=2001)
    argv = ["mesh", "--config", str(cfg), "--out", str(tmp_path / "out"),
            "--v-count", "1000000000000"]
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from ruledgeom.cli import main\n"
             f"sys.exit(main({argv!r}))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    # numpy's message for the grid's v array: the grid is allocated first
    assert done.stderr.startswith("error: out of memory: Unable to allocate")
    assert "shape (1000000000000,)" in done.stderr
    assert "Traceback" not in done.stderr


def test_mesh_unwritable_path_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    target = tmp_path / "file"
    target.write_text("")
    # a file where a directory is needed cannot be created/written into
    assert main(["mesh", "--config", str(cfg), "--out",
                 str(target / "sub")]) == 1


# --- verify ---

def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "FAIL" not in first


def test_verify_config_needs_no_surface(tmp_path, capsys):
    """verify reads only the seed and the tolerances from a config."""
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"seed": 3}))
    full = write_config(tmp_path / "full.json", seed=3)
    assert main(["verify", "--config", str(bare)]) == 0
    out = capsys.readouterr().out
    assert main(["verify", "--config", str(full)]) == 0
    assert out == capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["analyze", "offset", "mesh"])
def test_commands_that_build_a_surface_need_one(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "offsets": [OFFSET]}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config requires a single 'surface' object\n"
    assert not out.exists()


@pytest.mark.parametrize("surface_doc, message", [
    ({"builtin": "nosuch"}, "unknown builtin surface 'nosuch'"),
    ({"builtin": "cone"}, "surface 'cone' requires parameters ['alpha']"),
    ({"builtin": "cone", "alpha": 5}, "cone half-angle must lie in (0, pi/2)"),
    ({"builtin": "hyperbolic_paraboloid", "alpha": 0.5},
     "surface 'hyperbolic_paraboloid' does not accept parameters ['alpha']"),
    ({"builtin": "cone", "alpha": 0.5, "bogus": 1},
     "surface 'cone' does not accept parameters ['bogus']"),
    ({"sampled_csv": "missing.csv"}, "missing.csv"),
])
def test_verify_rejects_an_invalid_surface(tmp_path, capsys, surface_doc,
                                           message):
    """A surface given to verify is parsed and must be valid, although
    verify does not analyze it."""
    if "sampled_csv" in surface_doc:
        surface_doc = {"sampled_csv": str(tmp_path / "missing.csv")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": surface_doc, "seed": 3}))
    assert main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


def test_small_circle_radius_defaults_to_1(tmp_path, capsys):
    beta = np.pi / 6
    for name, surface_doc in (("default", {"builtin": "small_circle",
                                           "beta": beta}),
                              ("given", {"builtin": "small_circle",
                                         "beta": beta, "radius": 1.0})):
        cfg = write_config(tmp_path / f"{name}.json", surface=surface_doc)
        assert main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / name)]) == 0
        assert main(["verify", "--config", str(cfg)]) == 0
    assert ((tmp_path / "default" / "analysis.csv").read_bytes()
            == (tmp_path / "given" / "analysis.csv").read_bytes())


def test_verify_unattainable_tolerance_exits_2(capsys):
    assert main(["verify", "--tolerance", "frame_ode_sampled=1e-15"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "frame evolution" in out


# --- sampled-surface round trip ---

def test_csv_round_trip_reproduces_invariants(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", sample_count=2001)
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    header, data = read_table(tmp_path / "analysis.csv")

    sampled = tmp_path / "sampled.csv"
    with open(sampled, "w", newline="\n") as fh:
        fh.write("u,ex,ey,ez,px,py,pz\n")
        for row in data:
            cells = [row[col(header, k)] for k in
                     ("u", "e_x", "e_y", "e_z", "c_x", "c_y", "c_z")]
            fh.write(",".join(format(v, ".17g") for v in cells) + "\n")

    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"surface": {"sampled_csv": str(sampled)}}))
    out2 = tmp_path / "round"
    assert main(["analyze", "--config", str(cfg2), "--out", str(out2)]) == 0
    header2, data2 = read_table(out2 / "analysis.csv")
    for name in ("Delta", "delta", "gamma"):
        dev = np.max(np.abs(data[:, col(header, name)]
                            - data2[:, col(header2, name)]))
        assert dev < 1e-4, (name, dev)


def test_nan_sampled_director_exits_1(tmp_path, capsys):
    sampled = tmp_path / "sampled.csv"
    rows = ["u,ex,ey,ez,px,py,pz"]
    for i, u in enumerate(np.linspace(0.0, 1.0, 11).tolist()):
        ey = "nan" if i == 4 else repr(np.sin(u).item())
        rows.append(f"{u!r},{np.cos(u).item()!r},{ey},0,0,0,{u!r}")
    sampled.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"sampled_csv": str(sampled)}}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: sampled directors are not unit vectors\n")


@pytest.mark.parametrize("bad_u", [
    {4: "nan"},                     # not finite
    {5: "0.4"},                     # repeats sample 4's u
    {4: "0.5", 5: "0.4"},           # decreases
])
def test_a_bad_u_column_names_the_csv(tmp_path, capsys, bad_u):
    # at the grid spline these read "`x` must contain only finite values."
    # and "`x` must be strictly increasing sequence.", naming no file
    sampled = tmp_path / "sampled.csv"
    rows = ["u,ex,ey,ez,px,py,pz"]
    for i, u in enumerate(np.linspace(0.0, 1.0, 11).tolist()):
        cell = bad_u.get(i, repr(u))
        rows.append(f"{cell},{np.cos(u).item()!r},{np.sin(u).item()!r},0,"
                    f"0,0,{u!r}")
    sampled.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"sampled_csv": str(sampled)}}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {sampled}: column u must be finite and strictly "
        "increasing\n")


@pytest.mark.parametrize("cell", ["inf", "nan"])
@pytest.mark.parametrize("column", [4, 5, 6])
def test_a_non_finite_base_cell_names_the_csv(tmp_path, capsys, cell,
                                              column):
    # at the grid spline this read "`y` must contain only finite values.",
    # naming no file
    sampled = tmp_path / "sampled.csv"
    rows = ["u,ex,ey,ez,px,py,pz"]
    for i, u in enumerate(np.linspace(0.0, 1.0, 11).tolist()):
        cells = [repr(u), repr(np.cos(u).item()), repr(np.sin(u).item()),
                 "0", "0", "0", repr(u)]
        if i == 4:
            cells[column] = cell
        rows.append(",".join(cells))
    sampled.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"sampled_csv": str(sampled)}}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {sampled}: columns px, py, pz must be finite\n")


def test_read_sampled_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,ex,ey,ez\n0,1,0,0\n")
    with pytest.raises(ConfigError):
        read_sampled_csv(bad)
