"""Exception hierarchy shared across the toolkit."""


class PathinvError(Exception):
    """Base class for all toolkit errors."""


class SourceError(PathinvError):
    """An error anchored to a position in MiniC source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class LexError(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, message: str, line: int, col: int, expected: tuple = ()):
        super().__init__(message, line, col)
        self.expected = expected


class TypeCheckError(SourceError):
    pass


class UndeclaredVariableError(SourceError):
    pass


class NonlinearExprError(SourceError):
    """Multiplication of two non-constant operands (outside LIA)."""


class CompoundStatementError(PathinvError):
    """A straight-line operation received an If/While statement."""


class NotALoopHeaderError(PathinvError):
    pass


class NotABranchError(PathinvError):
    pass


class MissingSummaryError(PathinvError):
    pass


class ModelParseError(PathinvError):
    def __init__(self, message: str, fragment: str = ""):
        super().__init__(f"{message}: {fragment!r}" if fragment else message)
        self.fragment = fragment


class SolverFailure(PathinvError):
    """Solver produced unusable output or died without a status."""


class LlmTransportError(PathinvError):
    pass


class LlmFormatError(PathinvError):
    pass
