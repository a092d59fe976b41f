"""Byte pins for every emitted file and for the verify report.

The digests were recorded from the per-value formatting code that the
bulk writers replaced; any change to a cell's text, a separator, a line
ending or the verify report's wording shows up here.
"""

import hashlib
import json

import pytest

from ruledgeom.cli import main
from ruledgeom.config import Tolerances
from ruledgeom.verify import run_all

# The README config at n = 201: a theorem-consistent and a constant-angle
# offset of the cone, meshed with five samples per ruling.
README_CONFIG = {
    "surface": {"builtin": "cone", "alpha": 0.7853981633974483},
    "param_range": [0.0, 3.5355339059327378],
    "sample_count": 201,
    "offsets": [
        {"mode": "theorem_consistent", "c": 2.8, "c_star": 0.7},
        {"mode": "constant_angle", "theta": 0.0,
         "theta_star": 5.656854249492381},
    ],
    "seed": 42,
}

FILE_SHA256 = {
    "analysis.csv":
        "b036e2f7efe3a5575a9bdf81becbe1a310b5e0369b2e8b90aa0b6826cdc45a96",
    "offset_0.csv":
        "684f1dec8ac20ce56bd7870c371d99eeeb7be46102331dd7578ded58b4bcef9b",
    "offset_1.csv":
        "d2c69c92360ab11a14ec99489b89451f45972f0c96dee8109adb464c60eb2b11",
    "base.obj":
        "183e1f6b18d12541a4eceeadcfb6a052a0bb1eeb7e751f1b21df13a27f8afce2",
    "offset_0.obj":
        "245becfcfbbf87fdf36b71a41fbb6c33da196f2d19f7f22dc04489f4515dc742",
    "offset_1.obj":
        "ddcc8f55035e9142f55623eb96aea48356f588be56235c0ed04e54a855976f46",
}

# `ruledgeom offset` on the README config, run from its output directory
# so that the printed paths are relative: (sample_count, --tolerance
# overrides) -> (exit code, sha256 of stdout, of offset_0_report.txt and of
# offset_1_report.txt).  The two developable_class overrides flip the
# offsets' developability verdicts from yes to no and from no to yes.
OFFSET_REPORT_SHA256 = {
    (201, ()): (
        2,
        "b22fb07efcfe25edc7baf70535f9e429f87693c2030246c3d0b8190d6872c098",
        "72f541a641291971ddee80b012a018c14e5b5f3080558b73f614efb401cde12e",
        "25b3ddfa7434926a906d56316db45186f62aa27a1634dfdb7df9bb7336cecb8a"),
    (2001, ()): (
        0,
        "3b7dd8290dd67dc350d9d12dd80b9e475847318c55d372e16717708d63049759",
        "02d774f11638d1c43bc55010bfa27876d170246233cd89f1ccced315e2780485",
        "173052cbb5beb81fee6ac1afa1083d3b2a3dedc3f3285cdacd5d3350cdefedde"),
    (2001, ("developable_class=1e-300",)): (
        0,
        "5329c881f1577a24f1edad51b44e3ea224a71880e7f90e5634746bc88f13ce9d",
        "02d774f11638d1c43bc55010bfa27876d170246233cd89f1ccced315e2780485",
        "da547ed5e292536230f2a9b0d3cd0fe7da36dd5a328746c7a40c261c13144ba3"),
    (2001, ("developable_class=10",)): (
        0,
        "515e0291cd7d036f8a4a22ef096e4b92b626cf5a476f8c98dcb17653cef61459",
        "5b2a1a843889a45919be465393163c9daf1d7eaba45895480d0f74ffefcb2a81",
        "173052cbb5beb81fee6ac1afa1083d3b2a3dedc3f3285cdacd5d3350cdefedde"),
}

VERIFY_SHA256 = {
    0: "b642e43331af789c7880937ea71a17c996201dc347d1d4e4ca59566690a56e73",
    1: "f7593ccfb3b6a4cc568c5b75d0520d0e844e82cb4d54ce644b99b45c979f5b82",
}

# sha256 of the verify report texts for seeds 0-20, concatenated in order.
VERIFY_SEEDS_0_20_SHA256 = (
    "f8c7946852d1c113fc84a34efdf58a3a7eadd7fccde7e91e18d2a89e82db8836")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
    # at n = 201 the theorem offset misses gamma1/delta1 (exit 2); its
    # CSV is written either way
    assert main(["offset", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["mesh", "--config", str(cfg), "--out", str(out),
                 "--v-count", "5"]) == 0
    return out


@pytest.mark.parametrize("name", sorted(FILE_SHA256))
def test_emitted_file_bytes(emitted, name):
    assert sha256((emitted / name).read_bytes()) == FILE_SHA256[name]


@pytest.mark.parametrize("seed", sorted(VERIFY_SHA256))
def test_verify_report_bytes(seed):
    text, failed = run_all(Tolerances(), seed)
    assert failed == 0
    assert sha256(text.encode()) == VERIFY_SHA256[seed]


def test_verify_report_bytes_seeds_0_to_20():
    text = "".join(run_all(Tolerances(), seed)[0] for seed in range(21))
    assert sha256(text.encode()) == VERIFY_SEEDS_0_20_SHA256


@pytest.mark.parametrize("n, overrides", sorted(OFFSET_REPORT_SHA256))
def test_offset_report_bytes(tmp_path, monkeypatch, capsys, n, overrides):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps(dict(README_CONFIG, sample_count=n)))
    argv = ["offset", "--config", "cfg.json", "--out", "."]
    for item in overrides:
        argv += ["--tolerance", item]
    code = main(argv)
    got = (code, sha256(capsys.readouterr().out.encode()),
           sha256((tmp_path / "offset_0_report.txt").read_bytes()),
           sha256((tmp_path / "offset_1_report.txt").read_bytes()))
    assert got == OFFSET_REPORT_SHA256[n, overrides]
