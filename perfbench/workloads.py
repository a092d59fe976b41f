"""Workload operations and the checks on their outputs.

An operation drives the public API or `ruledgeom.cli.main(argv)` in
process, from one thread, and returns its wall time and the problems its
outputs showed.  Functions are looked up on their modules at call time,
so a traced run sees the wrapped versions.

Output gate: at the default workload seed every emitted file and every
command's stdout must match the sha256 digests in golden.json, recorded
from the ruledgeom sources the benchmark was introduced with, so later
changes must keep those outputs byte for byte.  At other seeds each output must repeat byte for
byte on every operation with the same config, pass the structural checks
below, and every offset report and verify run must report its checks
passed.  A nonzero exit, an exception, a digest mismatch or a failed
structural check makes the operation a failed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import ruledgeom
import ruledgeom.catalog
import ruledgeom.cli
import ruledgeom.offsets
from ruledgeom.config import Tolerances

import inputs
import reference

ANALYSIS_COLUMN_COUNT = 23


@dataclass
class Outcome:
    seconds: float
    problems: list[str]
    samples: int = 0      # grid samples pushed through analyze


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _count_lines(data: bytes, prefix: bytes) -> int:
    return sum(1 for line in data.split(b"\n") if line.startswith(prefix))


def _check_table(path: Path, n: int) -> list[str]:
    lines = path.read_bytes().split(b"\n")
    if lines[-1] != b"" or len(lines) != n + 2:
        return [f"{path.name}: expected {n} data rows and a final LF"]
    if lines[0].count(b",") != ANALYSIS_COLUMN_COUNT - 1:
        return [f"{path.name}: expected {ANALYSIS_COLUMN_COUNT} columns"]
    return []


def validate_analyze(stdout: str, out_dir: Path) -> list[str]:
    path = out_dir / "analysis.csv"
    if stdout != f"wrote {path} ({inputs.CLI_N} samples)\n":
        return [f"unexpected analyze stdout {stdout!r}"]
    return _check_table(path, inputs.CLI_N)


def validate_offset(stdout: str, out_dir: Path) -> list[str]:
    """Offset 0 is theorem-consistent, offset 1 constant-angle (whose
    comparison is informational and may cover no samples)."""
    problems = []
    for j in range(2):
        report = (out_dir / f"offset_{j}_report.txt").read_text()
        if report not in stdout:
            problems.append(f"offset_{j}_report.txt differs from stdout")
        if "FAIL" in report:
            problems.append(f"offset {j} reports a failed check")
        m = re.search(r"samples compared: (\d+)/(\d+)", report)
        if m is None or (j == 0 and int(m.group(1)) == 0):
            problems.append(f"offset {j} compared no samples")
        problems += _check_table(out_dir / f"offset_{j}.csv", inputs.CLI_N)
    return problems


def validate_mesh(stdout: str, out_dir: Path) -> list[str]:
    n_u, n_v = inputs.CLI_N, inputs.MESH_V_COUNT
    problems = []
    for name in ("base.obj", "offset_0.obj", "offset_1.obj"):
        data = (out_dir / name).read_bytes()
        if (_count_lines(data, b"v ") != n_u * n_v
                or _count_lines(data, b"f ") != (n_u - 1) * (n_v - 1)):
            problems.append(f"{name}: wrong vertex or face count")
        if f"wrote {out_dir / name}\n" not in stdout:
            problems.append(f"stdout does not report {name}")
    return problems


def validate_verify(stdout: str, out_dir: Path) -> list[str]:
    m = re.search(r"(\d+)/(\d+) checks passed\n\Z", stdout)
    if m is None or m.group(1) != m.group(2) or "  FAIL  " in stdout:
        return ["verify did not pass every check"]
    return []


@dataclass
class Command:
    """One CLI invocation: the key its digests are filed under, its argv,
    the files it writes into out_dir and the structural check on them."""
    key: str
    argv: list[str]
    out_dir: Path
    files: list[str]
    validate: Callable[[str, Path], list[str]]


class CliWorkload:
    """One CLI command per operation; operation i runs commands[i % len].

    The commands cycle through `steps`, the rotation whose timings the
    benchmark reports apart: command i is a run of steps[i % len(steps)]."""

    # The commands' time goes to formatting and Python-level loops.
    reference_loop = staticmethod(reference.interpreter)

    def __init__(self, name: str, steps: tuple[str, ...],
                 commands: list[Command], reference: Optional[dict]):
        self.name = name
        self.steps = steps
        self.commands = commands
        # Digests every operation must reproduce, by command key: pinned
        # from golden.json, or else taken from the first operation.
        self.pinned = reference is not None
        self.reference: dict[str, dict] = reference if self.pinned else {}

    def run(self, i: int) -> Outcome:
        command = self.commands[i % len(self.commands)]
        seconds, rc, stdout, stderr = self.invoke(command)
        return Outcome(seconds, self.check(command, rc, stdout, stderr))

    def invoke(self, command: Command) -> tuple[float, object, str, str]:
        """Run `command` once on a cleared output directory; returns
        (wall seconds, exit code or error text, stdout, stderr)."""
        command.out_dir.mkdir(parents=True, exist_ok=True)
        for name in command.files:
            (command.out_dir / name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = ruledgeom.cli.main(command.argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception:
            rc = traceback.format_exc()
        return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()

    def check(self, command: Command, rc, stdout: str,
              stderr: str) -> list[str]:
        """Problems with one operation's exit status and outputs."""
        tag = f"{self.name}[{command.key}]"
        if rc != 0:
            return [f"{tag}: exit {rc}: {stderr.strip()[-500:]}"]
        found = {"stdout": sha256(stdout.encode())}
        for name in command.files:
            path = command.out_dir / name
            found[name] = sha256(path.read_bytes()) if path.exists() else "missing"
        if "missing" in found.values():
            return [f"{tag}: missing output files"]
        problems = [f"{tag}: {p}"
                    for p in command.validate(stdout, command.out_dir)]
        want = (self.reference[command.key] if self.pinned
                else self.reference.setdefault(command.key, found))
        what = "golden.json's" if self.pinned else "the first run's"
        problems += [f"{tag}: {name} differs from {what} output"
                     for name in sorted(found) if found[name] != want.get(name)]
        return problems


class PipelineWorkload:
    """Library calls with no file output: one job per operation, rotating
    through the four surfaces, each on a freshly built SurfaceSpec so no
    lazily cached invariant carries over between jobs."""

    # The jobs' time goes to numpy arithmetic over n-sample arrays.
    reference_loop = staticmethod(reference.arrays)

    def __init__(self, jobs: list[tuple], n: int):
        self.jobs = jobs
        self.steps = tuple(f"{name}_job_s" for name, _, _ in jobs)
        self.n = n
        self.tol = Tolerances()

    def run(self, i: int) -> Outcome:
        name, kwargs, offset = self.jobs[i % len(self.jobs)]
        tag = f"pipeline[{name}]"
        start = time.perf_counter()
        try:
            spec = getattr(ruledgeom.catalog, name)(sample_count=self.n,
                                                    **kwargs)
            a = ruledgeom.analyze(spec)
            a.invariants()
            ode = ruledgeom.frame_ode_residual(a)
            report = ruledgeom.offsets.verify_offset(
                a, ruledgeom.offsets.OffsetSpec(**offset))
        except Exception:
            return Outcome(time.perf_counter() - start,
                           [f"{tag}: {traceback.format_exc()}"])
        seconds = time.perf_counter() - start
        problems = [f"{tag}: {p}" for p in self.check(offset, ode, report)]
        return Outcome(seconds, problems,
                       samples=a.n + report.offset_analysis.n)

    def check(self, offset: dict, ode, report) -> list[str]:
        tol = self.tol
        problems = []
        if max(ode.real_max, ode.dual_max) > tol.frame_ode_analytic:
            problems.append(f"frame ODE residual {ode.real_max:.3e}/"
                            f"{ode.dual_max:.3e}")
        if report.n_valid == 0:
            problems.append("offset compared no samples")
        if report.constructed.transport_residual > tol.offset_striction:
            problems.append("striction transport residual "
                            f"{report.constructed.transport_residual:.3e}")
        if offset["mode"] == "theorem_consistent":
            if (report.mannheim_residual_real > tol.mannheim_real
                    or report.mannheim_residual_dual > tol.mannheim_dual):
                problems.append("Mannheim residual above tolerance")
            problems += [f"{row.name}: deviation {row.deviation}"
                         for row in report.rows
                         if row.deviation is None
                         or row.deviation > tol.theorem_compare]
        return problems


WORKLOADS = ("pipeline_large", "cli")


def make(name: str, made: dict, out_root: Path,
         golden: Optional[dict]):
    """Build workload `name` from the generated inputs `made` (see
    inputs.write_inputs); golden holds the digests of the default seed.

    The cli workload interleaves the file-writing commands with verify:
    each cycle runs analyze (cone config), analyze (sampled_csv config),
    offset and mesh, then verify on the next of the seeded configs."""
    if name == "pipeline_large":
        return PipelineWorkload(inputs.pipeline_jobs(made["params"]),
                                inputs.PIPELINE_N)
    out = out_root / name
    cfg = made["cli_config"]

    def emit(key, command, config, files, validate, *extra):
        return Command(key, [command, "--config", config, *extra,
                             "--out", str(out / command)],
                       out / command, files, validate)

    cycle = [
        emit("analyze", "analyze", cfg, ["analysis.csv"], validate_analyze),
        emit("analyze_sampled", "analyze", made["sampled_config"],
             ["analysis.csv"], validate_analyze),
        emit("offset", "offset", cfg,
             ["offset_0.csv", "offset_0_report.txt",
              "offset_1.csv", "offset_1_report.txt"], validate_offset),
        emit("mesh", "mesh", cfg, ["base.obj", "offset_0.obj", "offset_1.obj"],
             validate_mesh, "--v-count", str(inputs.MESH_V_COUNT)),
    ]
    commands = []
    for j, vcfg in enumerate(made["verify_configs"]):
        verify = Command(f"verify_{j:02d}", ["verify", "--config", vcfg],
                         out, [], validate_verify)
        commands += cycle + [verify]
    return CliWorkload(name, ("analyze_s", "analyze_sampled_s", "offset_s",
                              "mesh_s", "verify_s"), commands,
                       None if golden is None else golden[name])
