"""Exception types shared across the package.

Every error raised on bad input derives from ValidationError so the CLI can
map it to a single exit code; budget blowups get their own class.
"""


class FentropyError(Exception):
    pass


class ValidationError(FentropyError):
    pass


class ParseError(ValidationError):
    pass


class AtomMismatch(ValidationError):
    pass


class NotProbability(ValidationError):
    pass


class MissingTranslate(ValidationError):
    pass


class BadLetter(ValidationError):
    pass


class RankMismatch(ValidationError):
    pass


class RankTooSmall(ValidationError):
    pass


class NoConvergence(FentropyError):
    def __init__(self, msg, residual_trace=None):
        super().__init__(msg)
        self.residual_trace = residual_trace or []


class DepthMismatch(ValidationError):
    pass


class NonPositiveDenominator(FentropyError):
    pass


class StepTooLarge(ValidationError):
    pass


class MassBelowFloor(ValidationError):
    pass


class GeneratorOverflow(ValidationError):
    pass


class BudgetExceeded(FentropyError):
    def __init__(self, msg, level=None):
        super().__init__(msg)
        self.level = level


class IncompleteTable(ValidationError):
    pass


class TooManyDiscards(FentropyError):
    pass


class InvalidWeight(ValidationError):
    pass


class TooManyAtoms(ValidationError):
    pass


class BadSample(ValidationError):
    pass


class NotSuperlinear(ValidationError):
    pass


class UnsupportedPayloadForCsv(ValidationError):
    pass
