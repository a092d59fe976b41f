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

VERIFY_SHA256 = {
    0: "b642e43331af789c7880937ea71a17c996201dc347d1d4e4ca59566690a56e73",
    1: "f7593ccfb3b6a4cc568c5b75d0520d0e844e82cb4d54ce644b99b45c979f5b82",
}


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
