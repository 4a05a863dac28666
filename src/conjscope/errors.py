"""Exception types shared across the package."""


class ConjscopeError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(ConjscopeError):
    """Malformed expression text.

    Carries the character offset of the failure and a short description of
    what was expected there.
    """

    def __init__(self, offset, expected):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class UnknownFunction(ConjscopeError):
    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown function {name!r}")


class UnboundVariable(ConjscopeError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no binding for variable {name!r}")


class DomainError(ConjscopeError):
    """Evaluation left the domain of a subexpression (log of non-positive,
    division by zero, ...). ``where`` is the offending subexpression, printed."""

    def __init__(self, message, where=None):
        self.where = where
        if where is not None:
            message = f"{message} in {where!r}"
        super().__init__(message)


class StepSizeUnderflow(ConjscopeError):
    """The adaptive integrator could not make progress (stiffness or a
    singularity of the right-hand side).

    ``t`` is the time the solve reached, ``point`` the state there, ``step``
    the last step size and ``n_steps`` the accepted steps taken."""

    def __init__(self, message, t=None, point=None, step=None, n_steps=None):
        self.t = t
        self.point = point
        self.step = step
        self.n_steps = n_steps
        super().__init__(message)


class NonFiniteState(ConjscopeError):
    """The right-hand side or the state became NaN/inf during integration."""


class RegularityViolation(ConjscopeError):
    """The dynamic pair fails a regularity or invariance condition at a point.

    ``cond`` names the condition ("R2", "I"), ``residual`` is the measured
    value that failed it and ``point`` the state where it failed."""

    def __init__(self, message, cond=None, residual=None, point=None):
        self.cond = cond
        self.residual = residual
        self.point = point
        super().__init__(message)


class SingularG(ConjscopeError):
    """Frame transport matrix lost invertibility (numerical breakdown)."""


class DegenerateMetric(ConjscopeError):
    """Induced metric is numerically degenerate."""


class UnknownEntry(ConjscopeError):
    def __init__(self, name, known):
        self.name = name
        super().__init__(f"no catalog entry {name!r}; known entries: {', '.join(sorted(known))}")


class MissingParam(ConjscopeError):
    def __init__(self, entry, param):
        self.entry = entry
        self.param = param
        super().__init__(f"catalog entry {entry!r} requires parameter {param!r}")


class ClosedOrbitWarning(UserWarning):
    """The analysed trajectory appears to revisit its initial point; conjugate
    point bookkeeping assumes a non-closed trajectory."""
