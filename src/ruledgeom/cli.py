"""Command-line front end.

    ruledgeom analyze --config cfg.json [--out DIR]
    ruledgeom offset  --config cfg.json [--out DIR] [--tolerance k=v ...]
    ruledgeom mesh    --config cfg.json [--out DIR] [--v-range A B] [--v-count N]
    ruledgeom verify  [--config cfg.json] [--tolerance k=v ...]

--out defaults to the config's out_dir.  Exit codes: 0 success, 1
input/environment error (usage errors included, and inputs whose numerics
overflow the float range), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, finite_number
from .errors import RuledGeomError
from .io import (obj_faces, render_offset_report, surface_grid,
                 write_analysis_csv, write_obj)
from .offsets import construct_offset, verify_offset
from .surface import analyze
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code of a failed
    verification here; this parser (and its subparsers) exits 1.  It also
    reads a negative number written with an exponent or a trailing dot
    (-1e-1, -5.) as a value, as argparse reads -0.1, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args reads it and never
    changes it, and each call fills a fresh namespace."""
    parser = _Parser(
        prog="ruledgeom",
        description="Ruled-surface analysis, Mannheim offsets, and the "
                    "verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    analyze_p = sub.add_parser("analyze", help="frame + invariant CSV table")
    offset_p = sub.add_parser("offset", help="offset CSVs and reports")
    mesh_p = sub.add_parser("mesh", help="OBJ meshes of base and offsets")
    verify_p = sub.add_parser("verify", help="run all verification suites")
    for p in (analyze_p, offset_p, mesh_p, verify_p):
        p.add_argument("--config", required=p is not verify_p,
                       help="JSON run configuration")
    for p in (analyze_p, offset_p, mesh_p):
        p.add_argument("--out", help="output directory (default: the "
                                     "config's out_dir)")
    for p in (offset_p, verify_p):
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
    mesh_p.add_argument("--v-range", nargs=2, type=float, default=[-2.0, 2.0],
                        metavar=("A", "B"), help="ruling parameter range")
    mesh_p.add_argument("--v-count", type=int, default=25,
                        help="samples per ruling")
    return parser


def _tolerance_overrides(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            out[name] = float(value)
        except ValueError:
            raise RuledGeomError(
                f"--tolerance expects NAME=NUMBER, got {item!r}") from None
    return out


def _load(args) -> RunConfig:
    if args.config is not None:
        return RunConfig.from_file(args.config)
    return RunConfig()


def _out_dir(args, cfg: RunConfig) -> Path:
    d = Path(cfg.out_dir if args.out is None else args.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_analyze(args) -> int:
    cfg = _load(args)
    analysis = analyze(cfg.build_surface())
    out = _out_dir(args, cfg)
    path = out / "analysis.csv"
    write_analysis_csv(path, analysis, analysis.invariants())
    print(f"wrote {path} ({analysis.n} samples)")
    return EXIT_OK


def cmd_offset(args) -> int:
    cfg = _load(args)
    tol = cfg.tolerances.override(_tolerance_overrides(args.tolerance))
    if not cfg.offsets:
        raise RuledGeomError("config declares no offsets")
    analysis = analyze(cfg.build_surface())
    out = _out_dir(args, cfg)
    all_ok = True
    for i, spec in enumerate(cfg.offsets):
        report = verify_offset(analysis, spec)
        csv_path = out / f"offset_{i}.csv"
        write_analysis_csv(csv_path, report.offset_analysis,
                           report.offset_invariants)
        text, ok = render_offset_report(i, spec, report, tol)
        (out / f"offset_{i}_report.txt").write_text(text)
        sys.stdout.write(text)
        print(f"wrote {csv_path}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_mesh(args) -> int:
    cfg = _load(args)
    if args.v_count < 2:
        raise RuledGeomError("--v-count must be at least 2")
    v_range = [finite_number(v, "--v-range entry") for v in args.v_range]
    if not v_range[0] < v_range[1]:
        raise RuledGeomError("--v-range must satisfy A < B")
    analysis = analyze(cfg.build_surface())
    out = _out_dir(args, cfg)
    base_path = out / "base.obj"
    # the grid first: a v-count too large to hold fails before face text
    grid = surface_grid(analysis.c, analysis.e, v_range, args.v_count)
    faces = obj_faces(analysis.n, args.v_count)   # shared by every mesh
    write_obj(base_path, grid, faces)
    print(f"wrote {base_path}")
    for i, spec in enumerate(cfg.offsets):
        built = construct_offset(analysis, spec)
        path = out / f"offset_{i}.obj"
        write_obj(path, surface_grid(built.c1, built.e1, v_range,
                                     args.v_count), faces)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    tol = cfg.tolerances.override(_tolerance_overrides(args.tolerance))
    text, failed = run_all(tol, cfg.seed)
    sys.stdout.write(text)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "offset": cmd_offset,
               "mesh": cmd_mesh, "verify": cmd_verify}[args.command]
    try:
        # an overflow would leave inf in place of a number: fail closed
        with np.errstate(over="raise"):
            return handler(args)
    except FloatingPointError as exc:
        print(f"error: {exc}: the run's magnitudes leave the float range",
              file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuledGeomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
