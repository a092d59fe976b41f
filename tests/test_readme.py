"""The README's library quick start runs as written: its python block,
in a fresh interpreter that imports the package from this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import ruledgeom

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(ruledgeom.__file__).resolve().parents[1])


def quick_start() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_runs(tmp_path):
    done = subprocess.run([sys.executable, "-c", quick_start()],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # its first line prints analysis.gamma[0], commented cot(alpha) = 1.0
    assert abs(float(done.stdout.splitlines()[0]) - 1.0) < 1e-12
