"""Seeded input generation."""

import math
from pathlib import Path

import pytest

import inputs


def written(seed):
    inputs.write_inputs(seed, Path("in"))
    return {p.name: p.read_bytes() for p in sorted(Path("in").iterdir())}


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 7])
def test_same_seed_gives_byte_identical_inputs(tmp_path, monkeypatch, seed):
    runs = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        runs.append(written(seed))
    assert runs[0] == runs[1]
    (tmp_path / "c").mkdir()
    monkeypatch.chdir(tmp_path / "c")
    assert written(seed + 1) != runs[0]


def test_default_seed_reproduces_the_baseline_cases():
    p = inputs.draw(inputs.DEFAULT_SEED)
    jobs = inputs.pipeline_jobs(p)
    name, kwargs, offset = jobs[0]
    assert name == "cone" and kwargs["alpha"] == math.pi / 4
    assert kwargs["param_range"] == (0.0, 2.5 / math.sin(math.pi / 4))
    assert offset == {"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7}
    assert jobs[1][2] == {"mode": "theorem_consistent", "c": 2.8,
                          "c_star": 1.0}
    cfg = inputs.cli_config(p)
    assert cfg["param_range"] == [0.0, 3.5355339059327378]
    assert cfg["offsets"][1]["theta_star"] == 5.656854249492381


@pytest.mark.parametrize("seed", range(1, 200))
def test_theorem_offsets_keep_theta_inside_the_band(seed):
    p = inputs.draw(seed)
    for key in ("cone", "small_circle", "cli"):
        s_max, c = p[key]["s_max"], p[key]["c"]
        assert c - s_max >= inputs.THETA_MARGIN
        assert c <= math.pi - inputs.THETA_MARGIN
