"""Exception types raised by the kernel."""


class RuledGeomError(Exception):
    """Base class for all kernel errors."""


class PureDualDivisor(RuledGeomError):
    """Division by a dual number whose real part is (numerically) zero."""


class PureDualVector(RuledGeomError):
    """A dual vector with vanishing real part where the norm is needed."""


class DomainError(RuledGeomError):
    """A lifted real function was evaluated outside its domain."""


class NotALine(RuledGeomError):
    """Dual vector does not satisfy the unit-direction / orthogonal-moment
    constraints of an oriented line."""


class DegenerateIndicatrix(RuledGeomError):
    """The director field is (locally) constant: the spherical indicatrix
    has a singular point and the arc-length pipeline cannot proceed."""


class DegenerateOffset(RuledGeomError):
    """The requested offset surface is degenerate (singular indicatrix or
    identity offset) and cannot be analyzed as a separate surface."""


class ConfigError(RuledGeomError):
    """Invalid run configuration or input file."""
