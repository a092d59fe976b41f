"""Ruled-surface geometry kernel.

Models ruled surfaces as curves on the dual unit sphere: dual-number
algebra, the oriented-line correspondence, striction/Darboux-frame
analysis with its scalar and dual invariants, and Mannheim surface
offsets with independent numerical verification of their invariant
relations.
"""

from .dual import (DualScalar, dual_angle, dual_cos, dual_cross,
                   dual_div, dual_dot, dual_mul, dual_norm, dual_normalize,
                   dual_sin, dual_sqrt, lift)
from .errors import (ConfigError, DegenerateIndicatrix, DegenerateOffset,
                     DomainError, NotALine, PureDualDivisor, PureDualVector,
                     RuledGeomError)
from .lines import Line, common_perpendicular, dual_to_line, line_to_dual
from .surface import (SurfaceAnalysis, SurfaceSpec, analyze, dual_invariants,
                      frame_ode_residual, sampled_surface)

__version__ = "0.1.0"

__all__ = [
    "DualScalar", "dual_angle", "dual_cos", "dual_cross",
    "dual_div", "dual_dot", "dual_mul", "dual_norm", "dual_normalize",
    "dual_sin", "dual_sqrt", "lift",
    "ConfigError", "DegenerateIndicatrix", "DegenerateOffset", "DomainError",
    "NotALine", "PureDualDivisor", "PureDualVector", "RuledGeomError",
    "Line", "common_perpendicular", "dual_to_line", "line_to_dual",
    "SurfaceAnalysis", "SurfaceSpec", "analyze", "dual_invariants",
    "frame_ode_residual", "sampled_surface",
    "__version__",
]
