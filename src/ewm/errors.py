"""Exception hierarchy shared by the whole package.

Every failure mode named in the module contracts gets its own class so that
callers (and the CLI exit-code mapping) can dispatch on type rather than on
message strings.
"""

__all__ = [
    "EwmError",
    "MathError",
    "InvalidType",
    "NegativeRootCoordinate",
    "AlphaNotInLambda",
    "NoExpression",
    "NoLift",
    "Inconsistent",
    "UniquenessViolated",
    "GeneratorsOutsideAmbient",
    "PiMapError",
    "BijectionFailure",
    "SchemaError",
    "DataInconsistency",
]


class EwmError(Exception):
    """Base class for all errors raised by this package."""


class MathError(EwmError):
    """Well-formed input that is mathematically inconsistent (CLI exit 3)."""


class InvalidType(EwmError):
    """A Cartan type outside the allowed family/rank ranges."""


class NegativeRootCoordinate(EwmError):
    """supp() called on a vector with mixed-sign coordinates."""


class AlphaNotInLambda(MathError):
    """A simple root is not an element of the computed weight lattice."""


class NoExpression(MathError):
    """iota(alpha) has no expression in the given module weights (bad input)."""


class NoLift(MathError):
    """A module weight lies outside the image of the restriction map."""


class Inconsistent(MathError):
    """The third-family linear system has no integer solution."""


class UniquenessViolated(MathError):
    """A unique solution was promised but a positive-dimensional family exists."""


class GeneratorsOutsideAmbient(EwmError):
    """ideal_closure() generators do not lie in the span of the ambient basis."""


class PiMapError(MathError):
    """The distinguished-simple-root map is undefined or ambiguous for a root."""


class BijectionFailure(MathError):
    """The restricted map pi: F(beta) -> Supp(beta) fails to be bijective."""


class SchemaError(EwmError):
    """Input document fails schema validation; carries a JSON-pointer path."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class DataInconsistency(MathError):
    """Input assertions contradict a computed necessary condition."""
