"""Command-line contract: files, formats, exit codes."""

import csv
import json

import numpy as np
import pytest

from ruledgeom.cli import main
from ruledgeom.io import ANALYSIS_COLUMNS, read_sampled_csv
from ruledgeom.errors import ConfigError

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
])
def test_bad_config_value_exits_1(tmp_path, capsys, overrides, argv, message):
    doc = {"surface": {"builtin": "hyperbolic_paraboloid"}, "offsets": [OFFSET]}
    doc.update(overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))      # NaN/Infinity as json.loads reads them
    assert main(["offset", "--config", str(cfg), "--out", str(tmp_path)]
                + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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


def test_read_sampled_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("u,ex,ey,ez\n0,1,0,0\n")
    with pytest.raises(ConfigError):
        read_sampled_csv(bad)
