"""Environment stamp recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Optional


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout at `root`, read from .git without running git;
    None when `root` is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def filesystem_of(path: Path) -> str:
    """Type of the mounted filesystem holding `path` (Linux mountinfo)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fs = fields[fields.index("-") + 1]
                if ((target == mount or target.startswith(mount.rstrip("/") + "/"))
                        and len(mount) >= len(best)):
                    best, fstype = mount, fs
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def stamp(root: Path, out_dir: Path) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "output_filesystem": filesystem_of(out_dir),
    }
