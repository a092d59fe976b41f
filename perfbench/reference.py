"""Fixed reference loops, timed beside every operation of a run.

On a shared host the speed of identical work drifts by up to 2x over
minutes, with neighbouring load (CPU time tracks wall time, so it is the
core that slows, not the scheduler).  The fastest run of an operation
only escapes that drift when the run outlasts the slow spell, and on
this host some spells outlast any run.  A reference loop never calls
the program, and it slows with the host, so the ratio of an operation's
time to the loop's time right after it moves only with the program.

Interpreter-bound and memory-bound work slow by different amounts, so
each workload is paired with the loop of its own kind:

* `interpreter` does what the CLI commands spend their time on: float
  formatting as in `io`, small Python objects as in `lines`, and many
  numpy calls on small arrays as in `dual`;
* `arrays` does what the n = 200001 library pipeline spends its time on:
  numpy arithmetic over arrays of 200001 3-vectors.
"""

from __future__ import annotations

import time

import numpy as np

_VALUES = np.random.default_rng(1).random(6000) * 100.0
_POINTS = np.random.default_rng(2).random((300, 3))
_GRID = np.random.default_rng(3).random((200001, 3))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int):
        self.a = a
        self.b = b


def interpreter() -> float:
    """Wall seconds of one pass of the interpreter-bound loop."""
    start = time.perf_counter()
    "\n".join(",".join(format(v, ".17g") for v in _VALUES[i:i + 6])
              for i in range(0, len(_VALUES), 6))
    totals: dict[int, float] = {}
    for p in [_Pair(i * 0.5, i) for i in range(15000)]:
        totals[p.b % 97] = totals.get(p.b % 97, 0.0) + p.a * 1.5
    for _ in range(60):
        y = np.cross(_POINTS, _POINTS[::-1])
        (y / (np.linalg.norm(y, axis=1)[:, None] + 1.0)).sum()
    return time.perf_counter() - start


def arrays() -> float:
    """Wall seconds of one pass of the large-array loop."""
    start = time.perf_counter()
    y = np.cross(_GRID, _GRID[::-1])
    (y / (np.linalg.norm(y, axis=1)[:, None] + 1.0)).sum()
    return time.perf_counter() - start
