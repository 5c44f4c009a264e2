"""Exception types shared by the reader, evaluator and samplers."""


class ProblispError(Exception):
    """Base class for every error the language reports."""

    def __init__(self, message, loc=None):
        super().__init__(message)
        self.message = message
        self.loc = loc
        self.filename = None

    def __str__(self):
        parts = []
        if self.filename is not None:
            parts.append(self.filename)
        if self.loc is not None:
            parts.append(str(self.loc))
        parts.append(self.message)
        return ": ".join(parts)


class LexError(ProblispError):
    incomplete = False


class ParseError(ProblispError):
    def __init__(self, message, loc=None, incomplete=False):
        super().__init__(message, loc)
        # True when the input simply ended early (unclosed paren); the REPL
        # uses this to keep reading instead of reporting an error.
        self.incomplete = incomplete


class EvalError(ProblispError):
    pass


class FileReadError(EvalError):
    """A program, prelude or rules file could not be opened or decoded."""


class ConceptError(ProblispError):
    pass


class RuleError(ProblispError):
    pass


class BudgetError(ProblispError):
    """Concept sampling exceeded its depth or node budget."""


class ExhaustionError(ProblispError):
    """A rejection query ran out of attempts."""

    def __init__(self, message, attempts, partial=None):
        super().__init__(message)
        self.attempts = attempts
        self.partial = partial


class ZeroProbabilityError(ProblispError):
    """The optimizer proved the query condition unsatisfiable."""
