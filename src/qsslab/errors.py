"""Exception taxonomy for qsslab.

Every failure mode exposed by the library maps to one of these classes so
callers (and the CLI exit-code logic) can distinguish usage errors from
numerical failures without string matching.
"""


class QsslabError(Exception):
    """Base class for all qsslab errors."""


class ParameterError(QsslabError, KeyError):
    """A parameter is missing, undeclared, or violates its schema constraint."""

    def __str__(self):  # KeyError quotes its args; keep plain messages
        return Exception.__str__(self)


class ShapeError(QsslabError):
    """A state vector does not match the model's declared dimension."""


class ValidationError(QsslabError):
    """A model/parameter/state combination failed validation.

    Carries the full violation list in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(QsslabError, ValueError):
    """A time span, tolerance or step size lies outside its domain:
    ``t_end <= t0``, a ``t0``, ``t_end`` or ``t_end - t0`` that is not
    finite, an ``rtol`` or ``atol`` that is not finite and positive, a
    ``dt`` that is not positive, or a ``dt`` that needs more than the step
    budget."""


class UnsupportedKindError(QsslabError):
    """The requested operation is not defined for this model kind."""


class BlowupError(QsslabError):
    """Integration produced a non-finite state, or a state that grows without
    bound in finite time. ``time`` holds the failure time."""

    def __init__(self, message, time):
        super().__init__(message)
        self.time = time


class StiffnessError(QsslabError):
    """Adaptive step size underflowed; the problem is too stiff for this scheme."""


class NoConvergenceError(QsslabError):
    """Root finding failed: a steady state, or a Radau step's Newton solve.
    ``best`` holds the best iterate found."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ConvergenceTimeoutError(QsslabError):
    """A trajectory did not reach the requested neighbourhood within the time budget."""


class InsufficientDataError(QsslabError):
    """Too few trajectory points inside the analysis window, or, for an
    ordering leg, a steady state within the runs' atol of 0: no approach
    to measure."""


class ParseError(QsslabError):
    """Lexical or syntactic error in model-definition text.

    ``location`` is a SourceLocation, which the text names as
    ``<message> at line L, column C``; ``expected`` is a set of token
    descriptions that would have been accepted.
    """

    def __init__(self, message, location, expected=()):
        super().__init__(f"{message} at {location}")
        self.location = location
        self.expected = frozenset(expected)


class SemanticError(QsslabError):
    """One or more semantic violations in a parsed model definition.

    ``messages`` lists every offense found, not just the first.
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class EvaluationError(QsslabError):
    """Arithmetic failure (division by zero, domain violation) during evaluation."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class UsageError(QsslabError):
    """Invalid request at the API or CLI surface."""


# The failures of the numerics on valid input, as against a bad request.
# EvaluationError counts: it fires while a compiled model is being
# integrated (overflow, division by zero), not while parsing.
NUMERICAL_ERRORS = (
    BlowupError, StiffnessError, NoConvergenceError, ConvergenceTimeoutError,
    EvaluationError,
)
