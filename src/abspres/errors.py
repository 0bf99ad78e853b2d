"""Exception hierarchy shared by all modules."""


class AbspresError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatchError(AbspresError):
    """Two values over different state spaces were combined."""


class CapacityError(AbspresError):
    """A computation would exceed a configured size bound."""


class ValidationError(AbspresError):
    """A structural invariant of an input value does not hold."""


class FormulaSyntaxError(AbspresError):
    """Formula or transformer-expression text failed to parse.

    Carries the character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResolutionError(AbspresError):
    """A formula references an atom or operator the language does not define."""
