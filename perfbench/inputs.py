"""Seeded input generator.

Every workload input is drawn here from the workload seed, so the program
only ever sees the generated configs and CSV files.  Surface parameters
and offset constants are drawn inside the bands where the kernel's
checks hold:

* theorem-consistent offsets go only on surfaces whose conical curvature
  never vanishes (cone, small_circle; the saddle and the helicoid have
  gamma = 0 identically), and the integration constant c is drawn so that
  theta = -s + c stays in [THETA_MARGIN, pi - THETA_MARGIN] over the whole
  parameter range, well inside offsets.THETA_BAND;
* constant-angle offsets use a nonzero dual angle, so none is the
  identity offset.

DEFAULT_SEED reproduces the ROADMAP baseline cases (cone pi/4 with
c = 2.8, c* = 0.7; small_circle pi/6 with c = 2.8, c* = 1.0) and the
README config example.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
# theta = -s + c keeps at least this far from 0 and pi (radians).
THETA_MARGIN = 0.3
PIPELINE_N = 200001
CLI_N = 2001
MESH_V_COUNT = 25
# Config seeds the verify workload cycles through.
VERIFY_SEED_COUNT = 16
# The verify command's own default seed, used at DEFAULT_SEED.
VERIFY_DEFAULT_SEED = 42


def _theorem_band(rng: np.random.Generator) -> tuple[float, float, float]:
    """Arc-length span s_max, c and c* with theta = -s + c inside the band
    for every s in [0, s_max]."""
    s_max = rng.uniform(1.6, 2.5)
    c = rng.uniform(s_max + THETA_MARGIN, math.pi - THETA_MARGIN)
    return s_max, c, rng.uniform(-1.5, 1.5)


def draw(seed: int) -> dict:
    """All surface parameters and offset constants of one workload seed."""
    if seed == DEFAULT_SEED:
        sq2 = math.sqrt(2.0)
        return {
            "cone": {"alpha": math.pi / 4.0, "s_max": 2.5, "c": 2.8,
                     "c_star": 0.7},
            "small_circle": {"beta": math.pi / 6.0, "radius": 1.0,
                             "s_max": 2.5, "c": 2.8, "c_star": 1.0},
            "saddle": {"half_range": 1.0, "theta": math.pi / 4.0,
                       "theta_star": 2.0 * sq2},
            "helicoid": {"pitch": 0.4, "theta": 0.5, "theta_star": 1.0},
            "cli": {"alpha": math.pi / 4.0, "s_max": 2.5, "c": 2.8,
                    "c_star": 0.7, "theta": 0.0, "theta_star": 4.0 * sq2},
            "sampled": {"beta": math.pi / 6.0, "radius": 1.0, "rise": 0.25,
                        "length": 2.0 * math.pi},
            "verify_seeds": [VERIFY_DEFAULT_SEED + i
                             for i in range(VERIFY_SEED_COUNT)],
        }
    rng = np.random.default_rng(seed)
    cone_s, cone_c, cone_cs = _theorem_band(rng)
    sc_s, sc_c, sc_cs = _theorem_band(rng)
    cli_s, cli_c, cli_cs = _theorem_band(rng)
    return {
        "cone": {"alpha": rng.uniform(0.35, 1.2), "s_max": cone_s,
                 "c": cone_c, "c_star": cone_cs},
        "small_circle": {"beta": rng.uniform(0.35, 1.2),
                         "radius": rng.uniform(0.5, 2.0), "s_max": sc_s,
                         "c": sc_c, "c_star": sc_cs},
        "saddle": {"half_range": rng.uniform(0.5, 1.5),
                   "theta": rng.uniform(0.2, 1.4),
                   "theta_star": rng.uniform(0.5, 3.0)},
        "helicoid": {"pitch": rng.uniform(0.2, 1.0),
                     "theta": rng.uniform(0.2, 1.4),
                     "theta_star": rng.uniform(0.5, 3.0)},
        "cli": {"alpha": rng.uniform(0.35, 1.2), "s_max": cli_s, "c": cli_c,
                "c_star": cli_cs, "theta": rng.uniform(0.0, 1.2),
                "theta_star": rng.uniform(1.0, 6.0)},
        "sampled": {"beta": rng.uniform(0.35, 1.2),
                    "radius": rng.uniform(0.5, 2.0),
                    "rise": rng.uniform(-0.5, 0.5),
                    "length": rng.uniform(math.pi, 2.0 * math.pi)},
        "verify_seeds": [int(k) for k in
                         rng.integers(0, 2**31, VERIFY_SEED_COUNT)],
    }


def pipeline_jobs(params: dict) -> list[tuple]:
    """The four library jobs as (builtin name, builder kwargs, offset doc).

    Ranges are chosen so the indicatrix arc length spans s_max: the cone
    and the small circle both have indicatrix speed sin(half-angle)."""
    cone, sc = params["cone"], params["small_circle"]
    sad, hel = params["saddle"], params["helicoid"]
    return [
        ("cone", {"alpha": cone["alpha"],
                  "param_range": (0.0, cone["s_max"] / math.sin(cone["alpha"]))},
         {"mode": "theorem_consistent", "c": cone["c"],
          "c_star": cone["c_star"]}),
        ("small_circle", {"beta": sc["beta"], "radius": sc["radius"],
                          "param_range": (0.0, sc["s_max"] / math.sin(sc["beta"]))},
         {"mode": "theorem_consistent", "c": sc["c"],
          "c_star": sc["c_star"]}),
        ("hyperbolic_paraboloid",
         {"param_range": (-sad["half_range"], sad["half_range"])},
         {"mode": "constant_angle", "theta": sad["theta"],
          "theta_star": sad["theta_star"]}),
        ("helicoid", {"pitch": hel["pitch"],
                      "param_range": (0.0, 2.0 * math.pi)},
         {"mode": "constant_angle", "theta": hel["theta"],
          "theta_star": hel["theta_star"]}),
    ]


def cli_config(params: dict) -> dict:
    """Cone with one theorem offset and one constant-angle offset."""
    p = params["cli"]
    return {
        "surface": {"builtin": "cone", "alpha": p["alpha"]},
        "param_range": [0.0, p["s_max"] / math.sin(p["alpha"])],
        "sample_count": CLI_N,
        "offsets": [
            {"mode": "theorem_consistent", "c": p["c"], "c_star": p["c_star"]},
            {"mode": "constant_angle", "theta": p["theta"],
             "theta_star": p["theta_star"]},
        ],
    }


def sampled_csv_text(params: dict) -> str:
    """u,ex,ey,ez,px,py,pz samples of a rising one-sheet hyperboloid:
    director on a colatitude-beta circle, base on a helix of the waist
    radius.  17 significant digits, so the directors stay unit vectors."""
    p = params["sampled"]
    u = np.linspace(0.0, p["length"], CLI_N)
    sb, cb = math.sin(p["beta"]), math.cos(p["beta"])
    r, h = p["radius"], p["rise"]
    cols = np.column_stack([
        u, sb * np.cos(u), sb * np.sin(u), np.full_like(u, cb),
        -r * np.sin(u), r * np.cos(u), h * u])
    rows = (",".join(format(float(v), ".17g") for v in row) for row in cols)
    return "u,ex,ey,ez,px,py,pz\n" + "\n".join(rows) + "\n"


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_inputs(seed: int, out_dir: Path) -> dict:
    """Write every config and CSV of `seed` under out_dir (a path relative
    to the working directory, since configs name the CSV by path).

    Returns the drawn parameters plus the written config paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    params = draw(seed)
    sampled_path = out_dir / "sampled.csv"
    sampled_path.write_text(sampled_csv_text(params), newline="\n")
    cli_path = out_dir / "cli.json"
    cli_path.write_text(_json(cli_config(params)))
    sampled_cfg = out_dir / "sampled.json"
    sampled_cfg.write_text(_json({"surface": {"sampled_csv": str(sampled_path)}}))
    verify_paths = []
    for i, k in enumerate(params["verify_seeds"]):
        path = out_dir / f"verify_{i:02d}.json"
        path.write_text(_json({"surface": {"builtin": "hyperbolic_paraboloid"},
                               "seed": k}))
        verify_paths.append(str(path))
    return {"params": params, "cli_config": str(cli_path),
            "sampled_config": str(sampled_cfg), "verify_configs": verify_paths}
