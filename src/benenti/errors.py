"""Exception types shared across the package."""


class BenentiError(Exception):
    """Base class for all errors raised by this package."""


class SingularInputError(BenentiError, ArithmeticError):
    """An elementary jet operation was applied outside its domain.

    Carries the name of the offending operation (``div``, ``sqrt``, ``ln``,
    ``pow``, ``abs``) so callers can report which step of a larger formula
    became singular.
    """

    def __init__(self, operation: str, detail: str):
        self.operation = operation
        super().__init__(f"{operation}: {detail}")


class OrderExhaustedError(BenentiError):
    """More derivatives were requested than the jet carries."""


class DegenerateMetricError(BenentiError):
    """A metric's determinant fell below the degeneracy tolerance."""


class ExpressionError(BenentiError):
    """Expression parsing/evaluation failure at character offset ``position``."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class ExpressionSyntaxError(ExpressionError):
    """Syntax or name error in expression text."""


class EvaluationDomainError(ExpressionError):
    """A singular jet operation occurred while evaluating an expression;
    ``position`` is that of the AST node that failed."""


class PairFileError(BenentiError):
    """A metric-pair file is unreadable or ill-formed.

    ``line``/``column`` are 1-based when known, else None.
    """

    def __init__(self, message: str, line=None, column=None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnknownEntryError(BenentiError, KeyError):
    """Requested catalog entry does not exist."""

    def __init__(self, name: str, known):
        self.name = name
        super().__init__(f"unknown catalog entry {name!r}; known: {', '.join(known)}")

    def __str__(self):
        # KeyError.__str__ would quote the message
        return self.args[0]
