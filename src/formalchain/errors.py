"""Exception types shared across the package."""


class FormalChainError(Exception):
    """Base class for all package errors."""


class StructureError(FormalChainError):
    """A complex violates a structural requirement (non-manifold, bad incidence)."""


class UnsupportedError(FormalChainError):
    """Input is valid but outside the supported class (e.g. non-orientable)."""


class GeometryError(FormalChainError):
    """Metric data is degenerate (triangle inequality violated, zero lengths)."""


class MoveError(FormalChainError):
    """A local move is not applicable to its target."""


class BoundaryError(FormalChainError):
    """Two kets do not share the boundary required for gluing."""


class ZeroStateError(FormalChainError):
    """An operation requiring a nonzero state received the zero superposition."""


class EulerConstraintError(FormalChainError):
    """A proposed cobordism violates chi(X) = chi(lower boundary)."""


class SuperpositionForbiddenError(FormalChainError):
    """Superposed growth requested where only a single cobordism is allowed."""


class SingularError(FormalChainError):
    """A singular (non-manifold) component reached an operation configured to reject it."""


class NumericError(FormalChainError):
    """A numeric result is unusable: not finite, or off its contract or oracle."""


class IntegratorError(NumericError):
    """Numerical time evolution lost more norm than the integrator contract allows."""


class ConfigError(FormalChainError):
    """A run configuration file or flag set is malformed."""


class ParseError(FormalChainError):
    """A text-format input is malformed; message carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
