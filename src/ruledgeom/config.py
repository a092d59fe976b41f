"""Run configuration: JSON schema, tolerance table, surface construction.

Parsing is fail-closed: unknown keys anywhere in the document are
rejected so that a misspelled tolerance or parameter name cannot silently
fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import builtin_surface
from .errors import ConfigError
from .io import read_sampled_csv
from .surface import SurfaceSpec, sampled_surface


def _finite_number(value, what: str) -> float:
    """`value` as a float; ConfigError unless it is a finite number (a bool,
    a string, null, NaN or +-Infinity is not)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class Tolerances:
    """Every residual threshold the verification suites assert, by name.

    Override individual entries from the config file ("tolerances" map)
    or with --tolerance name=value on the command line.
    """

    algebra_identity: float = 1e-12      # nilpotency / exact dual algebra
    lift_fd_rel: float = 1e-6            # lifted derivative vs central diff
    lagrange: float = 1e-12              # dual Lagrange identity
    normalize_unit: float = 1e-12        # dual_normalize output norm defect
    pluecker_constraints: float = 1e-12  # line image constraint defect
    roundtrip_foot: float = 1e-10        # recovered foot point on the line
    theta_star_oracle: float = 1e-9      # |theta*| vs common perpendicular
    dual_unit: float = 1e-9              # <e~,e~> = 1 + eps*0 per sample
    frame_orthonormal: float = 1e-9
    chain_rule: float = 1e-8             # reparametrization consistency
    striction_orthogonality: float = 1e-6   # <c', e'> at interior samples
    striction_decomposition: float = 1e-5   # c' - (delta e + Delta g)
    striction_invariance: float = 1e-6
    arc_speed_fd: float = 1e-5           # d s*/ds vs Delta (finite diff)
    frame_ode_analytic: float = 1e-8
    frame_ode_sampled: float = 1e-4
    radius_identity: float = 1e-9        # sin(rho)=R, cot(rho)=gamma (dual)
    example_ruling: float = 1e-9         # saddle dual ruling at u=0
    example_g: float = 1e-6
    example_gamma: float = 1e-4
    example_delta: float = 1e-6
    example_Delta: float = 1e-6
    offset_striction: float = 1e-9       # catalog offset striction lines
    mannheim_real: float = 1e-4
    mannheim_dual: float = 1e-3
    theorem_compare: float = 1e-3        # predicted vs recomputed table
    theta_law: float = 1e-6              # d(theta~)/d(s~) = -1 + eps*0
    developable_evidence: float = 1e-8   # cone max|Delta|, theta* variation
    developable_offset: float = 1e-4     # max|Delta1| of the flattened offset
    developable_class: float = 1e-7      # default classification threshold

    def override(self, updates: dict) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        bad = set(updates) - names
        if bad:
            raise ConfigError(
                f"unknown tolerance name(s) {sorted(bad)}; "
                f"known: {sorted(names)}")
        return dataclasses.replace(self, **{
            k: _finite_number(v, f"tolerance {k!r}") for k, v in updates.items()})


_TOP_KEYS = {"surface", "param_range", "sample_count", "offsets", "seed",
             "tolerances", "out_dir"}
_SURFACE_KEYS = {"builtin", "sampled_csv", "alpha", "beta", "radius", "pitch"}
_OFFSET_KEYS = {"mode", "c", "c_star", "theta", "theta_star"}


@dataclass
class RunConfig:
    """One surface, any number of offsets, seeded randomness."""

    surface: dict
    param_range: tuple[float, float] = (-1.0, 1.0)
    sample_count: int = 2001
    offsets: list = field(default_factory=list)
    seed: int = 42
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "."

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config key(s) {sorted(unknown)}")

        surface = doc.get("surface")
        if not isinstance(surface, dict):
            raise ConfigError("config requires a single 'surface' object")
        bad = set(surface) - _SURFACE_KEYS
        if bad:
            raise ConfigError(f"unknown surface key(s) {sorted(bad)}")
        if ("builtin" in surface) == ("sampled_csv" in surface):
            raise ConfigError(
                "surface must name exactly one of 'builtin' or 'sampled_csv'")
        kind = "builtin" if "builtin" in surface else "sampled_csv"
        if not isinstance(surface[kind], str):
            raise ConfigError(f"surface {kind!r} must be a string")
        if kind == "sampled_csv":
            extra = (set(surface) - {kind}) | (
                set(doc) & {"param_range", "sample_count"})
            if extra:
                raise ConfigError(
                    f"sampled_csv surfaces take no parameters {sorted(extra)}: "
                    "the CSV fixes the grid")
        for k in set(surface) - {kind}:
            _finite_number(surface[k], f"surface {k!r}")

        rng = doc.get("param_range", [-1.0, 1.0])
        if (not isinstance(rng, (list, tuple)) or len(rng) != 2):
            raise ConfigError("param_range must be [min, max]")
        lo, hi = (_finite_number(x, "param_range entry") for x in rng)
        if not lo < hi:
            raise ConfigError("param_range must satisfy min < max")

        n = doc.get("sample_count", 2001)
        if not isinstance(n, int) or isinstance(n, bool):
            raise ConfigError("sample_count must be an integer")
        if n < 101 or n % 2 == 0:
            raise ConfigError(
                f"sample_count must be odd and >= 101 (got {n}): the "
                "arc-length quadrature uses composite Simpson")

        offsets = doc.get("offsets", [])
        if not isinstance(offsets, list):
            raise ConfigError("offsets must be a list")
        parsed = []
        for i, off in enumerate(offsets):
            if not isinstance(off, dict):
                raise ConfigError(f"offsets[{i}] must be an object")
            bad = set(off) - _OFFSET_KEYS
            if bad:
                raise ConfigError(f"offsets[{i}]: unknown key(s) {sorted(bad)}")
            mode = off.get("mode")
            if mode == "theorem_consistent":
                allowed = {"mode", "c", "c_star"}
            elif mode == "constant_angle":
                allowed = {"mode", "theta", "theta_star"}
            else:
                raise ConfigError(
                    f"offsets[{i}].mode must be 'theorem_consistent' or "
                    f"'constant_angle'")
            stray = set(off) - allowed
            if stray:
                raise ConfigError(
                    f"offsets[{i}]: key(s) {sorted(stray)} do not apply to "
                    f"mode {mode!r}")
            parsed.append({k: (v if k == "mode" else
                               _finite_number(v, f"offsets[{i}].{k}"))
                           for k, v in off.items()})

        seed = doc.get("seed", 42)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("seed must be an integer")

        tol_doc = doc.get("tolerances", {})
        if not isinstance(tol_doc, dict):
            raise ConfigError("tolerances must be an object")
        tolerances = Tolerances().override(tol_doc)

        out_dir = doc.get("out_dir", ".")
        if not isinstance(out_dir, str):
            raise ConfigError("out_dir must be a string")

        return cls(surface=surface, param_range=(lo, hi), sample_count=n,
                   offsets=parsed, seed=seed, tolerances=tolerances,
                   out_dir=out_dir)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        p = Path(path)
        try:
            doc = json.loads(p.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {p}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc})") from None
        return cls.from_dict(doc)

    def build_surface(self) -> SurfaceSpec:
        s = dict(self.surface)
        if "sampled_csv" in s:
            u, e, p = read_sampled_csv(s["sampled_csv"])
            return sampled_surface(u, e, p, name=f"sampled:{s['sampled_csv']}")
        name = s.pop("builtin")
        return builtin_surface(name, s, self.param_range, self.sample_count)
