"""Command-line front end.

    ruledgeom analyze --config cfg.json [--out DIR] [--tolerance k=v ...]
    ruledgeom offset  --config cfg.json [--out DIR] [--tolerance k=v ...]
    ruledgeom mesh    --config cfg.json [--out DIR] [--v-range A B] [--v-count N]
    ruledgeom verify  [--config cfg.json] [--tolerance k=v ...]

Exit codes: 0 success, 1 input/environment error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import RunConfig, Tolerances
from .errors import RuledGeomError
from .io import (render_offset_report, surface_grid, write_analysis_csv,
                 write_obj)
from .offsets import OffsetSpec, construct_offset, verify_offset
from .surface import analyze
from .verify import run_all

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledgeom",
        description="Ruled-surface analysis, Mannheim offsets, and the "
                    "verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")

    common(sub.add_parser("analyze", help="frame + invariant CSV table"))
    common(sub.add_parser("offset", help="offset CSVs and reports"))
    mesh = sub.add_parser("mesh", help="OBJ meshes of base and offsets")
    common(mesh)
    mesh.add_argument("--v-range", nargs=2, type=float, default=[-2.0, 2.0],
                      metavar=("A", "B"), help="ruling parameter range")
    mesh.add_argument("--v-count", type=int, default=25,
                      help="samples per ruling")
    common(sub.add_parser("verify", help="run all verification suites"),
           config_required=False)
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


def _load(args) -> tuple[RunConfig, Tolerances]:
    if args.config is not None:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig(surface={"builtin": "hyperbolic_paraboloid"})
    tol = cfg.tolerances.override(_tolerance_overrides(args.tolerance))
    return cfg, tol


def _out_dir(args, cfg: RunConfig) -> Path:
    d = Path(args.out if args.out != "." else cfg.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def cmd_analyze(args) -> int:
    cfg, _ = _load(args)
    out = _out_dir(args, cfg)
    analysis = analyze(cfg.build_surface())
    path = out / "analysis.csv"
    write_analysis_csv(path, analysis)
    print(f"wrote {path} ({analysis.n} samples)")
    return EXIT_OK


def cmd_offset(args) -> int:
    cfg, tol = _load(args)
    if not cfg.offsets:
        raise RuledGeomError("config declares no offsets")
    out = _out_dir(args, cfg)
    analysis = analyze(cfg.build_surface())
    all_ok = True
    for i, doc in enumerate(cfg.offsets):
        spec = OffsetSpec(**doc)
        report = verify_offset(analysis, spec,
                               developable_tol=tol.developable_class)
        csv_path = out / f"offset_{i}.csv"
        write_analysis_csv(csv_path, report.offset_analysis)
        text, ok = render_offset_report(
            i, spec, report, tol.mannheim_real, tol.mannheim_dual,
            tol.theorem_compare)
        (out / f"offset_{i}_report.txt").write_text(text)
        sys.stdout.write(text)
        print(f"wrote {csv_path}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_mesh(args) -> int:
    cfg, _ = _load(args)
    out = _out_dir(args, cfg)
    if args.v_count < 2:
        raise RuledGeomError("--v-count must be at least 2")
    analysis = analyze(cfg.build_surface())
    base_path = out / "base.obj"
    write_obj(base_path, surface_grid(analysis, args.v_range, args.v_count))
    print(f"wrote {base_path}")
    for i, doc in enumerate(cfg.offsets):
        built = construct_offset(analysis, OffsetSpec(**doc))
        path = out / f"offset_{i}.obj"
        write_obj(path, surface_grid(analysis, args.v_range, args.v_count,
                                     e=built.e1, c=built.c1))
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, tol = _load(args)
    text, failed = run_all(tol, cfg.seed)
    sys.stdout.write(text)
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": cmd_analyze, "offset": cmd_offset,
               "mesh": cmd_mesh, "verify": cmd_verify}[args.command]
    try:
        return handler(args)
    except (RuledGeomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
